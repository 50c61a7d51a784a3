//! Offload worker threads: batch-drain the command queue, execute against
//! the real engine, notify completions.

use std::sync::Arc;
use std::thread::JoinHandle;

use fairmpi_sync::atomic::{AtomicBool, Ordering};
use fairmpi_sync::{Mutex, QueueFull, TicketRing};
use std::time::Duration;

use fairmpi_spc::{Counter, SpcSet, Watermark};

use crate::command::{Command, CompletionQueue};
use crate::queue::Backpressure;

/// How the offload crate reaches the real CRI/matching/fabric machinery.
///
/// The core runtime implements this for its per-rank state; the crate's own
/// tests use a mock. Workers are plain threads, so implementations must be
/// `Send + Sync`; per-worker isolation (each worker owning a dedicated CRI)
/// comes from the backend's thread-local instance assignment, exactly as it
/// does for application threads in the direct path.
pub trait OffloadBackend: Send + Sync + 'static {
    /// Execute one drained command (inject the packet, post the receive,
    /// apply the put, or register the flush). Completion is usually
    /// asynchronous: the harness polls [`OffloadBackend::is_complete`]
    /// after progress passes.
    fn execute(&self, cmd: Command);

    /// One progress pass on this worker's resources; returns the number of
    /// completions it produced (0 = idle).
    fn progress(&self) -> usize;

    /// Whether the request behind `token` has completed. A token the
    /// backend no longer knows (already reaped by `wait`) counts as
    /// complete.
    fn is_complete(&self, token: u64) -> bool;
}

/// Tuning knobs of one offload engine (surfaced as `FAIRMPI_OFFLOAD_*`
/// control variables by the core crate).
#[derive(Debug, Clone, Copy)]
pub struct OffloadConfig {
    /// Number of dedicated communication (worker) threads.
    pub workers: usize,
    /// Command-queue capacity (rounded up to a power of two).
    pub queue_capacity: usize,
    /// Maximum commands a worker drains per batch.
    pub batch_limit: usize,
    /// Producer behavior when the command queue is full.
    pub backpressure: Backpressure,
}

impl Default for OffloadConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            queue_capacity: 1024,
            batch_limit: 32,
            backpressure: Backpressure::Yield,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug)]
pub enum SubmitError {
    /// The queue was full under [`Backpressure::TryAgain`]; the command is
    /// handed back for the caller to retry or reroute.
    WouldBlock(Command),
    /// The engine has begun shutting down; the caller should take the
    /// direct path.
    Shutdown(Command),
}

/// A command travelling with its producer's completion queue.
struct Sealed {
    cmd: Command,
    reply: Option<Arc<CompletionQueue>>,
}

/// The engine: one command queue, N worker threads.
///
/// Shutdown is a drain, not an abort: workers first empty the command
/// queue (every accepted command is executed), then run a bounded number
/// of grace progress passes so in-flight completions land, then exit.
pub struct OffloadEngine {
    queue: Arc<TicketRing<Sealed>>,
    shutdown: Arc<AtomicBool>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    config: OffloadConfig,
    spc: Arc<SpcSet>,
}

/// Idle spins before a worker starts yielding.
const IDLE_SPINS: u32 = 64;
/// Idle spins before a worker starts sleeping between polls.
const IDLE_SLEEPS: u32 = 4096;
/// Sleep length once a worker has gone quiet (the wake-up latency a
/// sleeping worker adds to the next command).
const IDLE_NAP: Duration = Duration::from_micros(20);
/// Empty progress passes a worker grants in-flight operations during
/// shutdown before abandoning them (bounds drain on never-matching recvs).
const DRAIN_GRACE: u32 = 10_000;

impl OffloadEngine {
    /// Spawn `config.workers` worker threads over `backend`.
    pub fn start<B: OffloadBackend>(
        config: OffloadConfig,
        backend: Arc<B>,
        spc: Arc<SpcSet>,
    ) -> Arc<Self> {
        let queue = Arc::new(TicketRing::with_capacity(config.queue_capacity.max(2)));
        let shutdown = Arc::new(AtomicBool::new(false));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let shutdown = Arc::clone(&shutdown);
                let backend = Arc::clone(&backend);
                let spc = Arc::clone(&spc);
                let batch_limit = config.batch_limit.max(1);
                std::thread::Builder::new()
                    .name(format!("fairmpi-offload-{i}"))
                    .spawn(move || worker_loop(&queue, &*backend, &spc, &shutdown, batch_limit))
                    .expect("spawn offload worker")
            })
            .collect();
        Arc::new(Self {
            queue,
            shutdown,
            workers: Mutex::new(workers),
            config,
            spc,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &OffloadConfig {
        &self.config
    }

    /// Whether shutdown has begun (submissions are refused).
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Enqueue one command. `reply` (the producer's completion queue)
    /// receives the token once the command completes.
    pub fn submit(
        &self,
        cmd: Command,
        reply: Option<&Arc<CompletionQueue>>,
    ) -> Result<(), SubmitError> {
        if self.is_shutdown() {
            return Err(SubmitError::Shutdown(cmd));
        }
        let sealed = Sealed {
            cmd,
            reply: reply.map(Arc::clone),
        };
        match self.config.backpressure.push(&self.queue, sealed) {
            Ok(stalled) => {
                if stalled {
                    self.spc.inc(Counter::OffloadBackpressureStalls);
                }
            }
            Err(QueueFull(sealed)) => {
                self.spc.inc(Counter::OffloadBackpressureStalls);
                return Err(SubmitError::WouldBlock(sealed.cmd));
            }
        }
        self.spc.inc(Counter::OffloadCommands);
        self.spc
            .record_level(Watermark::OffloadQueueDepth, self.queue.len() as u64);
        Ok(())
    }

    /// Signal shutdown without waiting (submissions start failing; workers
    /// begin their drain).
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Wait for every worker to finish its drain and exit.
    pub fn join(&self) {
        let handles: Vec<_> = self.workers.lock().drain(..).collect();
        for h in handles {
            h.join().expect("offload worker panicked");
        }
    }

    /// Signal shutdown and wait for the drain to finish.
    pub fn shutdown(&self) {
        self.begin_shutdown();
        self.join();
    }
}

impl Drop for OffloadEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(
    queue: &TicketRing<Sealed>,
    backend: &dyn OffloadBackend,
    spc: &SpcSet,
    shutdown: &AtomicBool,
    batch_limit: usize,
) {
    let mut batch: Vec<Sealed> = Vec::with_capacity(batch_limit);
    let mut inflight: Vec<(u64, Option<Arc<CompletionQueue>>)> = Vec::new();
    let mut idle = 0u32;
    loop {
        batch.clear();
        let drained = queue.pop_batch(&mut batch, batch_limit);
        if drained > 0 {
            spc.inc(Counter::OffloadBatches);
            idle = 0;
        }
        for sealed in batch.drain(..) {
            let token = sealed.cmd.token();
            backend.execute(sealed.cmd);
            inflight.push((token, sealed.reply));
        }
        let progressed = backend.progress();
        if progressed > 0 {
            idle = 0;
        }
        reap(backend, &mut inflight);
        if drained == 0 && progressed == 0 {
            if shutdown.load(Ordering::Acquire) && queue.is_empty() {
                drain_inflight(backend, &mut inflight);
                return;
            }
            idle = idle.saturating_add(1);
            if idle > IDLE_SLEEPS {
                std::thread::sleep(IDLE_NAP);
            } else if idle > IDLE_SPINS {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Notify and drop every in-flight entry whose request completed.
fn reap(backend: &dyn OffloadBackend, inflight: &mut Vec<(u64, Option<Arc<CompletionQueue>>)>) {
    inflight.retain(|(token, reply)| {
        if backend.is_complete(*token) {
            if let Some(q) = reply {
                q.notify(*token);
            }
            false
        } else {
            true
        }
    });
}

/// Shutdown tail: every accepted command has been executed; give their
/// completions a bounded window to land before exiting.
fn drain_inflight(
    backend: &dyn OffloadBackend,
    inflight: &mut Vec<(u64, Option<Arc<CompletionQueue>>)>,
) {
    let mut quiet = 0u32;
    while !inflight.is_empty() && quiet < DRAIN_GRACE {
        if backend.progress() == 0 {
            quiet += 1;
            std::thread::yield_now();
        } else {
            quiet = 0;
        }
        reap(backend, inflight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairmpi_fabric::{Envelope, Packet};
    use fairmpi_sync::atomic::AtomicU64;
    use std::collections::HashSet;

    /// Backend that records executed tokens and completes each one after
    /// `latency` progress passes.
    struct MockBackend {
        executed: Mutex<Vec<u64>>,
        pending: Mutex<Vec<(u64, u32)>>,
        latency: u32,
        progress_calls: AtomicU64,
    }

    impl MockBackend {
        fn new(latency: u32) -> Self {
            Self {
                executed: Mutex::new(Vec::new()),
                pending: Mutex::new(Vec::new()),
                latency,
                progress_calls: AtomicU64::new(0),
            }
        }
    }

    impl OffloadBackend for MockBackend {
        fn execute(&self, cmd: Command) {
            let token = cmd.token();
            self.executed.lock().push(token);
            self.pending.lock().push((token, self.latency));
        }

        fn progress(&self) -> usize {
            self.progress_calls.fetch_add(1, Ordering::Relaxed);
            let mut done = 0;
            let mut pending = self.pending.lock();
            for entry in pending.iter_mut() {
                if entry.1 > 0 {
                    entry.1 -= 1;
                    if entry.1 == 0 {
                        done += 1;
                    }
                }
            }
            done
        }

        fn is_complete(&self, token: u64) -> bool {
            self.pending
                .lock()
                .iter()
                .all(|(t, left)| *t != token || *left == 0)
        }
    }

    fn send_cmd(token: u64) -> Command {
        Command::Send {
            packet: Packet::eager(
                Envelope {
                    src: 0,
                    dst: 1,
                    comm: 0,
                    tag: 1,
                    seq: 0,
                },
                vec![0],
            ),
            token,
            cq_token: token,
        }
    }

    #[test]
    fn commands_execute_and_notify_the_producer_queue() {
        let backend = Arc::new(MockBackend::new(2));
        let spc = Arc::new(SpcSet::new());
        let engine = OffloadEngine::start(
            OffloadConfig {
                workers: 2,
                ..OffloadConfig::default()
            },
            Arc::clone(&backend),
            Arc::clone(&spc),
        );
        let cq = Arc::new(CompletionQueue::new(64));
        for t in 1..=20u64 {
            engine.submit(send_cmd(t), Some(&cq)).unwrap();
        }
        let mut seen = HashSet::new();
        while seen.len() < 20 {
            if let Some(t) = cq.poll() {
                seen.insert(t);
            } else {
                std::thread::yield_now();
            }
        }
        assert_eq!(seen.len(), 20);
        assert_eq!(spc.get(Counter::OffloadCommands), 20);
        assert!(spc.get(Counter::OffloadBatches) >= 1);
        assert!(spc.watermark(Watermark::OffloadQueueDepth).high() >= 1);
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_every_accepted_command() {
        let backend = Arc::new(MockBackend::new(1));
        let spc = Arc::new(SpcSet::new());
        let engine = OffloadEngine::start(
            OffloadConfig::default(),
            Arc::clone(&backend),
            Arc::clone(&spc),
        );
        for t in 1..=500u64 {
            engine.submit(send_cmd(t), None).unwrap();
        }
        engine.shutdown();
        let executed = backend.executed.lock();
        assert_eq!(executed.len(), 500, "no accepted command is lost");
        // Submissions after shutdown are refused, command handed back.
        match engine.submit(send_cmd(501), None) {
            Err(SubmitError::Shutdown(cmd)) => assert_eq!(cmd.token(), 501),
            other => panic!("expected Shutdown, got {other:?}"),
        }
    }

    #[test]
    fn try_again_backpressure_fails_fast_and_counts() {
        // A tiny queue and a backend whose completions never land until
        // many progress passes, so the queue genuinely fills.
        let backend = Arc::new(MockBackend::new(u32::MAX));
        let spc = Arc::new(SpcSet::new());
        let engine = OffloadEngine::start(
            OffloadConfig {
                workers: 1,
                queue_capacity: 2,
                batch_limit: 1,
                backpressure: Backpressure::TryAgain,
            },
            Arc::clone(&backend),
            Arc::clone(&spc),
        );
        // Race the single worker: keep pushing until a WouldBlock surfaces.
        let mut rejected = None;
        for t in 1..=10_000u64 {
            match engine.submit(send_cmd(t), None) {
                Ok(()) => {}
                Err(SubmitError::WouldBlock(cmd)) => {
                    rejected = Some(cmd);
                    break;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        let rejected = rejected.expect("a 2-slot queue must eventually reject");
        assert!(rejected.token() > 0);
        assert!(spc.get(Counter::OffloadBackpressureStalls) >= 1);
        engine.begin_shutdown();
        engine.join();
    }
}
