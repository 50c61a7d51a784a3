//! Offload worker threads: batch-drain the command queue and execute
//! against the real engine.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use fairmpi_spc::{Counter, SpcSet, Watermark};
use fairmpi_sync::Mutex;

use crate::command::Command;
use crate::queue::CommandQueue;

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

/// Command-queue slots (a power of two).
pub const QUEUE_CAPACITY: usize = 1024;
/// Most commands a worker drains per batch.
pub const BATCH_LIMIT: usize = 32;

/// The engine: one command queue, N worker threads.
///
/// Shutdown is a drain, not an abort: workers first empty the command
/// queue (every accepted command is executed, see [`CommandQueue`] for the
/// admission rule that makes "accepted" and "executed" agree), then run a
/// bounded number of grace progress passes so in-flight completions land,
/// then exit.
pub struct OffloadEngine {
    queue: Arc<CommandQueue<Command>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
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
    /// Spawn `workers` worker threads (at least one) over `backend`. Only
    /// the workers hold `backend`: joining them releases it.
    pub fn start<B: OffloadBackend>(workers: usize, backend: Arc<B>, spc: Arc<SpcSet>) -> Self {
        let queue = Arc::new(CommandQueue::with_capacity(QUEUE_CAPACITY));
        let workers = (0..workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let backend = Arc::clone(&backend);
                let spc = Arc::clone(&spc);
                std::thread::Builder::new()
                    .name(format!("fairmpi-offload-{i}"))
                    .spawn(move || worker_loop(&queue, &*backend, &spc))
                    .expect("spawn offload worker")
            })
            .collect();
        Self {
            queue,
            workers: Mutex::new(workers),
            spc,
        }
    }

    /// Whether shutdown has begun (submissions are refused).
    pub fn is_shutdown(&self) -> bool {
        self.queue.is_closed()
    }

    /// Enqueue one command. A full queue makes the caller yield and retry;
    /// once shutdown has begun the command is handed back for the caller
    /// to run on the direct path.
    pub fn submit(&self, cmd: Command) -> Result<(), Command> {
        if self.queue.push(cmd)? {
            self.spc.inc(Counter::OffloadBackpressureStalls);
        }
        self.spc.inc(Counter::OffloadCommands);
        self.spc
            .record_level(Watermark::OffloadQueueDepth, self.queue.len() as u64);
        Ok(())
    }

    /// Signal shutdown without waiting (submissions start failing; workers
    /// begin their drain).
    pub fn begin_shutdown(&self) {
        self.queue.close();
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

fn worker_loop(queue: &CommandQueue<Command>, backend: &dyn OffloadBackend, spc: &SpcSet) {
    let mut batch = Vec::with_capacity(BATCH_LIMIT);
    // Tokens of executed commands whose requests have not completed yet.
    let mut inflight: Vec<u64> = Vec::new();
    let mut idle = 0u32;
    loop {
        let drained = queue.pop_batch(&mut batch, BATCH_LIMIT);
        if drained > 0 {
            spc.inc(Counter::OffloadBatches);
            idle = 0;
        }
        for cmd in batch.drain(..) {
            inflight.push(cmd.token());
            backend.execute(cmd);
        }
        let progressed = backend.progress();
        if progressed > 0 {
            idle = 0;
        }
        inflight.retain(|&token| !backend.is_complete(token));
        if drained == 0 && progressed == 0 {
            if queue.drained() {
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

/// Shutdown tail: every accepted command has been executed; give their
/// completions a bounded window to land before exiting.
fn drain_inflight(backend: &dyn OffloadBackend, inflight: &mut Vec<u64>) {
    let mut quiet = 0u32;
    while !inflight.is_empty() && quiet < DRAIN_GRACE {
        if backend.progress() == 0 {
            quiet += 1;
            std::thread::yield_now();
        } else {
            quiet = 0;
        }
        inflight.retain(|&token| !backend.is_complete(token));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairmpi_fabric::{Envelope, Packet};
    use fairmpi_sync::atomic::{AtomicBool, Ordering};

    /// Backend that records executed tokens and completes each one after
    /// `latency` progress passes. While `open` is false, `execute` blocks
    /// and raises `blocked`.
    struct MockBackend {
        executed: Mutex<Vec<u64>>,
        pending: Mutex<Vec<(u64, u32)>>,
        latency: u32,
        open: AtomicBool,
        blocked: AtomicBool,
    }

    impl MockBackend {
        fn new(latency: u32) -> Self {
            Self {
                executed: Mutex::new(Vec::new()),
                pending: Mutex::new(Vec::new()),
                latency,
                open: AtomicBool::new(true),
                blocked: AtomicBool::new(false),
            }
        }
    }

    impl OffloadBackend for MockBackend {
        fn execute(&self, cmd: Command) {
            while !self.open.load(Ordering::Acquire) {
                self.blocked.store(true, Ordering::Release);
                std::thread::yield_now();
            }
            let token = cmd.token();
            self.executed.lock().push(token);
            self.pending.lock().push((token, self.latency));
        }

        fn progress(&self) -> usize {
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
    fn commands_execute_and_complete() {
        let backend = Arc::new(MockBackend::new(2));
        let spc = Arc::new(SpcSet::new());
        let engine = OffloadEngine::start(2, Arc::clone(&backend), Arc::clone(&spc));
        for t in 1..=20u64 {
            engine.submit(send_cmd(t)).unwrap();
        }
        while backend.executed.lock().len() < 20 || !(1..=20).all(|t| backend.is_complete(t)) {
            std::thread::yield_now();
        }
        assert_eq!(spc.get(Counter::OffloadCommands), 20);
        assert!(spc.get(Counter::OffloadBatches) >= 1);
        assert!(spc.watermark(Watermark::OffloadQueueDepth).high() >= 1);
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_every_accepted_command() {
        let backend = Arc::new(MockBackend::new(1));
        let engine = OffloadEngine::start(1, Arc::clone(&backend), Arc::new(SpcSet::new()));
        for t in 1..=500u64 {
            engine.submit(send_cmd(t)).unwrap();
        }
        engine.shutdown();
        assert_eq!(
            backend.executed.lock().len(),
            500,
            "no accepted command is lost"
        );
        // Submissions after shutdown are refused, command handed back.
        let refused = engine.submit(send_cmd(501)).unwrap_err();
        assert_eq!(refused.token(), 501);
        assert_eq!(
            Arc::strong_count(&backend),
            1,
            "joined workers release the backend"
        );
    }

    /// With the only worker blocked in `execute`, it holds at most one
    /// batch and the ring the rest: one command more than both can take
    /// must stall its submitter, and every command still runs once the
    /// worker moves again.
    #[test]
    fn a_full_queue_stalls_the_submitter_until_a_worker_drains() {
        const N: u64 = (QUEUE_CAPACITY + BATCH_LIMIT + 1) as u64;
        let backend = Arc::new(MockBackend::new(1));
        backend.open.store(false, Ordering::Release);
        let spc = Arc::new(SpcSet::new());
        let engine = Arc::new(OffloadEngine::start(
            1,
            Arc::clone(&backend),
            Arc::clone(&spc),
        ));
        let submitter = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                for t in 1..=N {
                    engine.submit(send_cmd(t)).unwrap();
                }
            })
        };
        // A full ring behind a blocked worker: the submitter has at least
        // one command left, and it cannot land until the worker moves.
        while !backend.blocked.load(Ordering::Acquire) || engine.queue.len() < QUEUE_CAPACITY {
            std::thread::yield_now();
        }
        backend.open.store(true, Ordering::Release);
        submitter.join().unwrap();
        engine.shutdown();
        assert!(spc.get(Counter::OffloadBackpressureStalls) >= 1);
        assert_eq!(spc.get(Counter::OffloadCommands), N);
        let mut executed = backend.executed.lock().clone();
        executed.sort_unstable();
        assert_eq!(
            executed,
            (1..=N).collect::<Vec<_>>(),
            "each command ran once"
        );
    }
}
