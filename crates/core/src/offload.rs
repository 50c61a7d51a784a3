//! Software-offload wiring: the bridge between the public API and the
//! `fairmpi-offload` engine.
//!
//! When a world is built with `DesignConfig::builder().offload(n)`, application
//! threads stop touching the CRI and matching locks. Instead every
//! `isend`/`irecv`/`put`/`flush` packages a descriptor and enqueues it on
//! the engine's lock-free command queue; dedicated worker threads drain the
//! queue, run the descriptors through the *real* engine (each worker binds
//! its own dedicated CRI through the pool's thread-local assignment), and
//! notify per-thread completion queues that `wait`/`test` poll.
//!
//! Ordering notes:
//!
//! * **Sends** keep the MPI non-overtaking rule because the sequence number
//!   is drawn by the application thread at enqueue time; the matcher
//!   reorders out-of-sequence arrivals no matter which worker injects.
//! * **Receive posting order** is program order per thread, which matters
//!   because the matcher serves posted receives FIFO. Each recv descriptor
//!   carries an order ticket drawn at enqueue; workers funnel them through
//!   [`RecvSequencer`], a turn-gated stash, so posting happens in ticket
//!   order regardless of which worker drains which batch.
//! * **Flushes** are deferred: the worker registers the request and the
//!   engine's progress pass completes it once the window's pending count
//!   toward the target drains to zero.
//!
//! Refused submissions (queue full under `TryAgain`, or engine shut down)
//! fall back to the direct path, so `Proc` handles stay usable after the
//! `World` is dropped and fail-fast backpressure degrades gracefully.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use fairmpi_sync::atomic::{AtomicU64, Ordering};
use fairmpi_sync::Mutex;

use fairmpi_fabric::{Completion, CompletionKind, Rank};
use fairmpi_matching::{MatchEvent, PostOutcome, PostedRecv};
use fairmpi_offload::{
    Backpressure, Command, CompletionQueue, OffloadBackend, OffloadConfig, OffloadEngine,
    SubmitError,
};
use fairmpi_spc::Counter;

use crate::env::{EnvKey, EnvValue};
use crate::proc::ProcState;
use crate::rma::{WindowId, WindowState};

/// Resolve the `FAIRMPI_OFFLOAD_*` runtime tuning keys on top of the
/// design's worker count:
///
/// * `FAIRMPI_OFFLOAD_QUEUE_CAPACITY` — command-queue slots (default 1024,
///   rounded up to a power of two);
/// * `FAIRMPI_OFFLOAD_BATCH_LIMIT` — max commands a worker drains per batch
///   (default 32);
/// * `FAIRMPI_OFFLOAD_BACKPRESSURE` — `spin`, `yield` (default) or
///   `try_again` (fail fast; refused operations run inline).
///
/// Unparsable values fall back to the default (tuning keys must never turn
/// a working world into a panic).
const QUEUE_CAPACITY: EnvKey<usize> = EnvKey::new("FAIRMPI_OFFLOAD_QUEUE_CAPACITY");
const BATCH_LIMIT: EnvKey<usize> = EnvKey::new("FAIRMPI_OFFLOAD_BATCH_LIMIT");
const BACKPRESSURE: EnvKey<Backpressure> = EnvKey::new("FAIRMPI_OFFLOAD_BACKPRESSURE");

impl EnvValue for Backpressure {
    fn parse_env(raw: &str) -> Result<Self, String> {
        match raw {
            "spin" => Ok(Backpressure::Spin),
            "yield" => Ok(Backpressure::Yield),
            "try_again" => Ok(Backpressure::TryAgain),
            _ => Err(format!("expected spin, yield or try_again, got {raw:?}")),
        }
    }
}

pub(crate) fn offload_config_from_env(workers: usize) -> OffloadConfig {
    let defaults = OffloadConfig::default();
    OffloadConfig {
        workers,
        queue_capacity: QUEUE_CAPACITY
            .get()
            .filter(|&n| n > 0)
            .unwrap_or(defaults.queue_capacity),
        batch_limit: BATCH_LIMIT
            .get()
            .filter(|&n| n > 0)
            .unwrap_or(defaults.batch_limit),
        backpressure: BACKPRESSURE.get_or(Backpressure::Yield),
    }
}

/// Turn-gated stash keeping receive posting in enqueue order across
/// workers. Tickets are dense (drawn by [`OffloadRuntime::submit_recv`]),
/// and every drawn ticket eventually reaches [`ProcBackend::post_ordered`]
/// — via a worker or via the submitter's own refusal fallback — so the turn
/// counter never strands.
#[derive(Default)]
struct RecvSequencer {
    /// Next ticket to hand out (application threads, at enqueue).
    next_order: AtomicU64,
    /// Next ticket allowed to post.
    turn: AtomicU64,
    /// Tickets that arrived ahead of their turn.
    stash: Mutex<BTreeMap<u64, PostedRecv>>,
}

/// A flush request waiting for the window's pending count to drain.
struct DeferredFlush {
    win: Arc<WindowState>,
    target: Option<Rank>,
    token: u64,
}

/// The [`OffloadBackend`] over one rank's real engine state.
pub(crate) struct ProcBackend {
    state: Arc<ProcState>,
    recvs: RecvSequencer,
    flushes: Mutex<Vec<DeferredFlush>>,
}

impl ProcBackend {
    /// Post (or stash) one receive ticket, then drain every consecutive
    /// ticket that is now unblocked. Runs on workers and, for refused
    /// submissions, on the application thread itself; the stash lock makes
    /// the post-and-advance step atomic across both.
    fn post_ordered(&self, order: u64, posted: PostedRecv) {
        let mut stash = self.recvs.stash.lock();
        stash.insert(order, posted);
        self.drain_recvs(&mut stash);
    }

    fn drain_recvs(&self, stash: &mut BTreeMap<u64, PostedRecv>) {
        loop {
            let turn = self.recvs.turn.load(Ordering::Acquire);
            let Some(posted) = stash.remove(&turn) else {
                break;
            };
            self.post_now(posted);
            self.recvs.turn.store(turn + 1, Ordering::Release);
        }
    }

    /// The real matcher post, identical to the direct `irecv` path.
    fn post_now(&self, posted: PostedRecv) {
        let st = &self.state;
        let token = posted.token;
        let comm = posted.comm;
        match st.with_matcher(comm, |m| m.post_recv(posted)) {
            Ok((outcome, _work)) => {
                if let PostOutcome::Matched(packet) = outcome {
                    st.complete_match(MatchEvent { token, packet });
                }
            }
            Err(e) => {
                st.requests.fail(token, e);
            }
        }
    }

    /// Origin-side put, identical to the direct path except that the
    /// pending count was already raised at enqueue time (so a flush issued
    /// right behind the put can never observe zero and return early).
    fn apply_put(&self, window: u64, target: Rank, offset: usize, data: &[u8]) {
        let st = &self.state;
        let Ok(win) = st.windows.get(WindowId(window as u32)) else {
            // Window freed with the put still queued ("callers must have
            // flushed"); nothing to apply.
            return;
        };
        let guard = st.rma_inject(data.len());
        win.store_bytes(target, offset, data);
        guard.post_completion(Completion {
            token: ProcState::rma_token(&win, target),
            kind: CompletionKind::RmaDone,
        });
        st.spc.inc(Counter::RmaPuts);
        st.spc.add(Counter::BytesSent, data.len() as u64);
    }

    fn register_flush(&self, window: u64, target: Option<Rank>, token: u64) {
        match self.state.windows.get(WindowId(window as u32)) {
            Ok(win) => self
                .flushes
                .lock()
                .push(DeferredFlush { win, target, token }),
            // Window already freed: vacuously drained.
            Err(_) => self.complete_flush(token),
        }
    }

    fn complete_flush(&self, token: u64) {
        self.state.requests.complete_send(token);
        self.state.spc.inc(Counter::RmaFlushes);
    }
}

impl OffloadBackend for ProcBackend {
    fn execute(&self, cmd: Command) {
        match cmd {
            Command::Send {
                packet, cq_token, ..
            } => self.state.send_packet(packet, cq_token),
            Command::Recv { posted, order } => self.post_ordered(order, posted),
            Command::Put {
                window,
                target,
                offset,
                data,
                ..
            } => self.apply_put(window, target, offset, &data),
            Command::Flush {
                window,
                target,
                token,
            } => self.register_flush(window, target, token),
        }
    }

    fn progress(&self) -> usize {
        let mut n = self.state.progress_engine();
        {
            // Opportunistic: a ticket unblocked by another worker's post may
            // still sit in the stash if that worker raced past it.
            let mut stash = self.recvs.stash.lock();
            if !stash.is_empty() {
                self.drain_recvs(&mut stash);
            }
        }
        let mut flushes = self.flushes.lock();
        if !flushes.is_empty() {
            let origin = self.state.rank;
            flushes.retain(|f| {
                let pending = match f.target {
                    Some(t) => f.win.pending_toward(origin, t),
                    None => f.win.pending_total(origin),
                };
                if pending == 0 {
                    self.complete_flush(f.token);
                    n += 1;
                    false
                } else {
                    true
                }
            });
        }
        n
    }

    fn is_complete(&self, token: u64) -> bool {
        self.state.requests.is_done(token).unwrap_or(true)
    }
}

static NEXT_RUNTIME_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's completion queue per offload runtime (keyed by runtime
    /// id, the same idiom as the CRI pool's thread-local dedicated map).
    static COMPLETIONS: RefCell<HashMap<u64, Arc<CompletionQueue>>> = RefCell::new(HashMap::new());
}

/// One rank's offload runtime: the engine plus the backend handle needed
/// for the refusal fallback of ordered receives.
pub(crate) struct OffloadRuntime {
    engine: Arc<OffloadEngine>,
    backend: Arc<ProcBackend>,
    id: u64,
    completion_capacity: usize,
}

impl OffloadRuntime {
    pub(crate) fn start(state: &Arc<ProcState>, config: OffloadConfig) -> Self {
        let backend = Arc::new(ProcBackend {
            state: Arc::clone(state),
            recvs: RecvSequencer::default(),
            flushes: Mutex::new(Vec::new()),
        });
        let engine = OffloadEngine::start(config, Arc::clone(&backend), Arc::clone(&state.spc));
        Self {
            engine,
            backend,
            id: NEXT_RUNTIME_ID.fetch_add(1, Ordering::Relaxed),
            completion_capacity: config.queue_capacity.clamp(64, 1024),
        }
    }

    /// Whether the engine still accepts commands (false once shutdown has
    /// begun; callers then take the direct path).
    pub(crate) fn active(&self) -> bool {
        !self.engine.is_shutdown()
    }

    fn thread_queue(&self) -> Arc<CompletionQueue> {
        COMPLETIONS.with(|m| {
            Arc::clone(
                m.borrow_mut()
                    .entry(self.id)
                    .or_insert_with(|| Arc::new(CompletionQueue::new(self.completion_capacity))),
            )
        })
    }

    /// Enqueue a command whose completion this thread will wait on. On
    /// refusal the command is handed back for the direct path.
    pub(crate) fn submit(&self, cmd: Command) -> Result<(), Command> {
        let reply = self.thread_queue();
        self.engine.submit(cmd, Some(&reply)).map_err(take_back)
    }

    /// Enqueue a command nobody waits on (puts: flush is the sync point).
    pub(crate) fn submit_silent(&self, cmd: Command) -> Result<(), Command> {
        self.engine.submit(cmd, None).map_err(take_back)
    }

    /// Enqueue a receive post. Never fails: a refused submission posts
    /// inline through the same ordering protocol, so the ticket sequence
    /// stays gapless.
    pub(crate) fn submit_recv(&self, posted: PostedRecv) {
        let order = self
            .backend
            .recvs
            .next_order
            .fetch_add(1, Ordering::Relaxed);
        let reply = self.thread_queue();
        match self
            .engine
            .submit(Command::Recv { posted, order }, Some(&reply))
        {
            Ok(()) => {}
            Err(e) => {
                let Command::Recv { posted, order } = take_back(e) else {
                    unreachable!("recv submission hands back a recv");
                };
                self.backend.post_ordered(order, posted);
            }
        }
    }

    /// Drain this thread's completion notifications; returns how many
    /// arrived. The notifications are hints — request status words are the
    /// ground truth — so draining is enough, no dispatch needed.
    pub(crate) fn poll_completions(&self) -> usize {
        let q = self.thread_queue();
        let mut n = 0;
        while q.poll().is_some() {
            n += 1;
        }
        n
    }

    pub(crate) fn begin_shutdown(&self) {
        self.engine.begin_shutdown();
    }

    pub(crate) fn join(&self) {
        self.engine.join();
    }
}

fn take_back(e: SubmitError) -> Command {
    match e {
        SubmitError::WouldBlock(cmd) | SubmitError::Shutdown(cmd) => cmd,
    }
}
