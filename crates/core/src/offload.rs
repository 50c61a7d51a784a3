//! Software-offload wiring: the bridge between the public API and the
//! `fairmpi-offload` engine.
//!
//! When a world is built with `DesignConfig::builder().offload(n)`, application
//! threads stop touching the CRI and matching locks. Instead every
//! `isend`/`irecv`/`put`/`flush` packages a descriptor and enqueues it on
//! the engine's lock-free command queue; dedicated worker threads drain the
//! queue, run the descriptors through the *real* engine (each worker binds
//! its own dedicated CRI through the pool's thread-local assignment), and
//! complete the requests whose status words `wait`/`test` watch.
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
//!   order regardless of which worker drains which batch. `cancel_recv`
//!   first waits for the turn to pass every ticket drawn so far, so the
//!   matcher has the receive before the cancel looks for it there.
//! * **Flushes** are deferred: the worker registers the request and the
//!   engine's progress pass completes it once the window's pending count
//!   toward the target drains to zero.
//!
//! Submissions refused because the engine has shut down fall back to the
//! direct path, so `Proc` handles stay usable after the `World` is
//! dropped.
//!
//! Only the workers' [`ProcBackend`] holds the rank's `Arc<ProcState>`;
//! the state's own [`OffloadRuntime`] holds the engine and the receive
//! sequencer, so joining the workers at `World` drop leaves no cycle and
//! the rank's state is freed with its last handle.

use std::collections::BTreeMap;
use std::sync::Arc;

use fairmpi_sync::atomic::{AtomicU64, Ordering};
use fairmpi_sync::Mutex;

use fairmpi_fabric::{Completion, CompletionKind, Rank};
use fairmpi_matching::{MatchEvent, PostOutcome, PostedRecv};
use fairmpi_offload::{Command, OffloadBackend, OffloadEngine};
use fairmpi_spc::Counter;

use crate::proc::ProcState;
use crate::rma::{WindowId, WindowState};

/// Turn-gated stash keeping receive posting in enqueue order across
/// workers. Tickets are dense (drawn by [`OffloadRuntime::submit_recv`]),
/// and every drawn ticket eventually reaches [`RecvSequencer::post_ordered`]
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

impl RecvSequencer {
    /// Post (or stash) one receive ticket, then drain every consecutive
    /// ticket that is now unblocked. Runs on workers and, for refused
    /// submissions, on the application thread itself; the stash lock makes
    /// the post-and-advance step atomic across both.
    fn post_ordered(&self, st: &ProcState, order: u64, posted: PostedRecv) {
        let mut stash = self.stash.lock();
        stash.insert(order, posted);
        self.drain(st, &mut stash);
    }

    fn drain(&self, st: &ProcState, stash: &mut BTreeMap<u64, PostedRecv>) {
        loop {
            let turn = self.turn.load(Ordering::Acquire);
            let Some(posted) = stash.remove(&turn) else {
                break;
            };
            post_now(st, posted);
            self.turn.store(turn + 1, Ordering::Release);
        }
    }
}

/// The real matcher post, identical to the direct `irecv` path.
fn post_now(st: &ProcState, posted: PostedRecv) {
    let token = posted.token;
    let comm = posted.comm;
    match st.with_matcher_unchecked(comm, |m| m.post_recv(posted)) {
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

/// A flush request waiting for the window's pending count to drain.
struct DeferredFlush {
    win: Arc<WindowState>,
    target: Option<Rank>,
    token: u64,
}

/// The [`OffloadBackend`] over one rank's real engine state, held by the
/// workers alone.
struct ProcBackend {
    state: Arc<ProcState>,
    recvs: Arc<RecvSequencer>,
    flushes: Mutex<Vec<DeferredFlush>>,
}

impl ProcBackend {
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
            Command::Recv { posted, order } => self.recvs.post_ordered(&self.state, order, posted),
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
                self.recvs.drain(&self.state, &mut stash);
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

/// One rank's offload runtime: the engine, and the receive sequencer that
/// application threads draw tickets from.
pub(crate) struct OffloadRuntime {
    pub(crate) engine: OffloadEngine,
    recvs: Arc<RecvSequencer>,
}

impl OffloadRuntime {
    pub(crate) fn start(state: &Arc<ProcState>, workers: usize) -> Self {
        let recvs = Arc::new(RecvSequencer::default());
        let backend = Arc::new(ProcBackend {
            state: Arc::clone(state),
            recvs: Arc::clone(&recvs),
            flushes: Mutex::new(Vec::new()),
        });
        let engine = OffloadEngine::start(workers, backend, Arc::clone(&state.spc));
        Self { engine, recvs }
    }

    /// Enqueue a receive post. Never fails: a refused submission posts
    /// inline on `st` through the same ordering protocol, so the ticket
    /// sequence stays gapless.
    pub(crate) fn submit_recv(&self, st: &ProcState, posted: PostedRecv) {
        let order = self.recvs.next_order.fetch_add(1, Ordering::Relaxed);
        match self.engine.submit(Command::Recv { posted, order }) {
            Ok(()) => {}
            Err(Command::Recv { posted, order }) => self.recvs.post_ordered(st, order, posted),
            Err(_) => unreachable!("recv submission hands back a recv"),
        }
    }

    /// Block until every receive submitted before this call has reached
    /// its matcher. Tickets are gapless and posted in order, so the turn
    /// passing the ticket count read here covers them all.
    pub(crate) fn wait_recvs_posted(&self) {
        let drawn = self.recvs.next_order.load(Ordering::Relaxed);
        while self.recvs.turn.load(Ordering::Acquire) < drawn {
            std::thread::yield_now();
        }
    }
}
