//! Engine implementation.

use fairmpi_sync::Mutex;
use std::cell::Cell;
use std::sync::Arc;

use fairmpi_cri::{Assignment, Cri, CriPool};
use fairmpi_fabric::{busy_wait_ns, Completion, Packet};
use fairmpi_spc::{Counter, Histogram};
use fairmpi_trace as trace;

/// Which progress design is active (the Fig. 3a vs Fig. 3b axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgressMode {
    /// Original Open MPI: one global progress lock; one thread extracts.
    Serial,
    /// Paper Algorithm 2: all threads extract, per-instance try-locks.
    Concurrent,
}

/// Consumer of drained items. Implemented by the runtime above (packet ->
/// matching engine, completion -> request completion).
///
/// Each callback returns the number of *user-visible* completions it
/// produced (matched receives, finished sends); Algorithm 2 uses that count
/// to decide whether the fallback sweep is needed.
pub trait ProgressHandler {
    /// An incoming packet was extracted from a context's rx ring.
    fn on_packet(&self, packet: Packet) -> usize;
    /// A local completion event was extracted from a completion queue.
    fn on_completion(&self, completion: Completion) -> usize;
}

/// Items drained from an instance, pending handling.
#[derive(Default)]
struct Batch {
    completions: Vec<Completion>,
    packets: Vec<Packet>,
}

thread_local! {
    /// This thread's drain buffers, reused across passes so a drain
    /// allocates nothing once they have grown.
    static BATCH: Cell<Batch> = const {
        Cell::new(Batch {
            completions: Vec::new(),
            packets: Vec::new(),
        })
    };
}

/// The progress engine for one rank.
#[derive(Debug)]
pub struct ProgressEngine {
    mode: ProgressMode,
    pool: Arc<CriPool>,
    /// Global lock serializing progress in [`ProgressMode::Serial`].
    serial_gate: Mutex<()>,
    /// Per-item extraction cost charged while the instance lock is held.
    extraction_overhead_ns: u64,
    /// Maximum items drained from one instance per visit, bounding the time
    /// an instance lock is held.
    drain_budget: usize,
}

impl ProgressEngine {
    /// Default per-visit drain budget.
    pub const DEFAULT_DRAIN_BUDGET: usize = 128;

    /// Build an engine over a rank's instance pool.
    pub fn new(pool: Arc<CriPool>, mode: ProgressMode, extraction_overhead_ns: u64) -> Self {
        Self {
            mode,
            pool,
            serial_gate: Mutex::named((), || "progress.serial_gate".to_string()),
            extraction_overhead_ns,
            drain_budget: Self::DEFAULT_DRAIN_BUDGET,
        }
    }

    /// Override the per-visit drain budget.
    pub fn with_drain_budget(mut self, budget: usize) -> Self {
        self.drain_budget = budget.max(1);
        self
    }

    /// Active mode.
    pub fn mode(&self) -> ProgressMode {
        self.mode
    }

    /// The instance pool this engine progresses.
    pub fn pool(&self) -> &Arc<CriPool> {
        &self.pool
    }

    /// Make one progress pass; returns the number of user-visible
    /// completions produced (the `count` of paper Algorithm 2).
    pub fn progress<H: ProgressHandler>(&self, assignment: Assignment, handler: &H) -> usize {
        let _span = trace::span("progress.pass");
        let spc = self.pool.spc();
        spc.inc(Counter::ProgressCalls);
        let count = match self.mode {
            ProgressMode::Serial => self.progress_serial(handler),
            ProgressMode::Concurrent => self.progress_concurrent(assignment, handler),
        };
        // Useful vs wasted share of the progress budget: a pass that drains
        // nothing is pure polling overhead (the cost the paper's dedicated
        // design avoids by keeping threads on their own instance).
        spc.inc(if count > 0 {
            Counter::ProgressUsefulPasses
        } else {
            Counter::ProgressWastedPasses
        });
        count
    }

    /// Serial design: only the thread holding the global gate extracts;
    /// everyone else returns immediately (as `opal_progress` does when the
    /// progress lock is taken).
    fn progress_serial<H: ProgressHandler>(&self, handler: &H) -> usize {
        let Some(_gate) = self.serial_gate.try_lock() else {
            return 0;
        };
        let mut count = 0;
        for cri in self.pool.instances() {
            count += self.drain_one(cri, handler);
        }
        count
    }

    /// Concurrent design — paper Algorithm 2.
    fn progress_concurrent<H: ProgressHandler>(
        &self,
        assignment: Assignment,
        handler: &H,
    ) -> usize {
        let k = self.pool.instance_id(assignment);
        let mut count = self.drain_one(self.pool.instance(k), handler);
        if count == 0 {
            // Fallback sweep: guarantee eventual progress of every instance
            // (dedicated threads may be gone; completions may be stranded).
            trace::instant("progress.fallback_sweep");
            self.pool.spc().inc(Counter::ProgressFallbackSweeps);
            for _ in 0..self.pool.len() {
                let k = self.pool.round_robin_id();
                count += self.drain_one(self.pool.instance(k), handler);
                if count > 0 {
                    break;
                }
            }
        }
        count
    }

    /// Try-lock one instance, extract up to the drain budget (charging
    /// extraction overhead under the lock), release, then handle the items.
    /// Completions drain first, then packets; each queue's lock is taken
    /// once per batch.
    fn drain_one<H: ProgressHandler>(&self, cri: &Arc<Cri>, handler: &H) -> usize {
        if !cri.is_alive() {
            // Quarantined by the fault plan: its CQ reports nothing ever
            // again, so polling it would only burn the progress budget
            // (the Algorithm 2 extension for failed CQs).
            return 0;
        }
        let spc = self.pool.spc();
        let mut batch = {
            let Some(guard) = cri.try_lock(spc) else {
                // Another thread is working this instance; its progress is
                // in good hands (paper §III-C).
                return 0;
            };
            // Taken for the pass: a nested pass would find empty buffers
            // and use fresh ones.
            let mut batch = BATCH.take();
            let mut drain = guard.begin_drain();
            let completions = drain.pop_completions(self.drain_budget, &mut batch.completions);
            for _ in 0..completions {
                busy_wait_ns(self.extraction_overhead_ns);
                drain.context().op_finished();
            }
            let packets = drain.pop_packets(self.drain_budget - completions, &mut batch.packets);
            for _ in 0..packets {
                busy_wait_ns(self.extraction_overhead_ns);
            }
            batch
        }; // instance lock released before matching, per Fig. 1's pipeline.

        let drained = batch.completions.len() + batch.packets.len();
        spc.record_hist(Histogram::DrainBatchSize, drained as u64);
        let mut count = 0;
        if drained > 0 {
            trace::counter("progress.drained", drained as u64);
            spc.add(Counter::CompletionsDrained, drained as u64);
            for c in batch.completions.drain(..) {
                count += handler.on_completion(c);
            }
            for p in batch.packets.drain(..) {
                count += handler.on_packet(p);
            }
        }
        BATCH.set(batch);
        count
    }
}
