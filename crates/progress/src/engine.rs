//! Engine implementation.

use fairmpi_sync::Mutex;
use std::cell::Cell;
use std::sync::Arc;

use fairmpi_cri::{Assignment, Cri, CriPool, Plan, Sweep};
use fairmpi_fabric::{busy_wait_ns, Completion, Packet};
use fairmpi_spc::{Counter, Histogram, Watermark};
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
    /// One visit's packets, extracted from an instance in arrival order.
    /// The handler takes every packet out, leaving `packets` empty so the
    /// engine can reuse it. The default hands them to
    /// [`on_packet`](Self::on_packet) one at a time.
    fn on_packets(&self, packets: &mut Vec<Packet>) -> usize {
        packets.drain(..).map(|p| self.on_packet(p)).sum()
    }
    /// A local completion event was extracted from a completion queue.
    fn on_completion(&self, completion: Completion) -> usize;
    /// One visit's completions, extracted from an instance in queue order.
    /// Like [`on_packets`](Self::on_packets), the handler leaves
    /// `completions` empty. The default hands them to
    /// [`on_completion`](Self::on_completion) one at a time.
    fn on_completions(&self, completions: &mut Vec<Completion>) -> usize {
        completions.drain(..).map(|c| self.on_completion(c)).sum()
    }
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

    /// Make one progress pass; returns the number of user-visible
    /// completions produced (the `count` of paper Algorithm 2).
    pub fn progress<H: ProgressHandler>(&self, assignment: Assignment, handler: &H) -> usize {
        let _span = trace::span("progress.pass");
        let spc = self.pool.spc();
        spc.inc(Counter::ProgressCalls);
        let count = match self.mode {
            // Only the thread holding the global gate extracts, visiting
            // every instance; everyone else returns at once (as
            // `opal_progress` does when the progress lock is taken).
            ProgressMode::Serial => match self.serial_gate.try_lock() {
                Some(_gate) => self.sweep(Plan::All, handler),
                None => 0,
            },
            // Paper Algorithm 2. The fallback past the assigned instance
            // guarantees every instance eventual progress (dedicated threads
            // may be gone) and draws nothing from Algorithm 1's counter.
            ProgressMode::Concurrent => {
                self.sweep(Plan::From(self.pool.instance_id(assignment)), handler)
            }
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

    /// Drain the instances `plan` visits, in its order.
    fn sweep<H: ProgressHandler>(&self, plan: Plan, handler: &H) -> usize {
        let mut sweep = Sweep::new(self.pool.len(), plan);
        let mut count = 0;
        let mut k = sweep.current();
        loop {
            count += self.drain_one(self.pool.instance(k), handler);
            match sweep.next(count > 0) {
                Some(next) => k = next,
                None => return count,
            }
            if sweep.falls_back() {
                trace::instant("progress.fallback_sweep");
                self.pool.spc().inc(Counter::ProgressFallbackSweeps);
            }
        }
    }

    /// Try-lock one instance, extract up to the drain budget (charging
    /// extraction overhead under the lock), release, then handle the items.
    /// Completions drain first, then packets. The instance lock guards the
    /// completion queue, so a visit takes no other lock for it, and each
    /// kind goes to the handler as one batch.
    fn drain_one<H: ProgressHandler>(&self, cri: &Arc<Cri>, handler: &H) -> usize {
        if !cri.is_alive() {
            // Quarantined by the fault plan: its CQ reports nothing ever
            // again, so polling it would only burn the progress budget
            // (the Algorithm 2 extension for failed CQs).
            return 0;
        }
        let spc = self.pool.spc();
        let mut batch = {
            let Some(mut guard) = cri.try_lock(spc) else {
                // Another thread is working this instance; its progress is
                // in good hands (paper §III-C).
                return 0;
            };
            // Taken for the pass: a nested pass would find empty buffers
            // and use fresh ones.
            let mut batch = BATCH.take();
            let drain = guard.begin_drain();
            let completions = drain.pop_completions(self.drain_budget, &mut batch.completions);
            for _ in 0..completions {
                busy_wait_ns(self.extraction_overhead_ns);
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
            if !batch.completions.is_empty() {
                count += handler.on_completions(&mut batch.completions);
                debug_assert!(batch.completions.is_empty(), "handler left completions");
            }
            if !batch.packets.is_empty() {
                // The rx depth this visit found, read off the drain itself
                // so the wire's delivery path never touches the consumer
                // side of the ring.
                spc.record_level(Watermark::InstanceRxDepth, batch.packets.len() as u64);
                count += handler.on_packets(&mut batch.packets);
                debug_assert!(batch.packets.is_empty(), "handler left packets");
            }
        }
        BATCH.set(batch);
        count
    }
}
