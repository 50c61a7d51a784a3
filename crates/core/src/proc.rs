//! Per-rank runtime state and the public `Proc` handle.

use fairmpi_sync::{Mutex, MutexGuard, RwLock};
use std::sync::{Arc, OnceLock};

use fairmpi_cri::CriPool;
use fairmpi_fabric::{busy_wait_ns, CommId, Completion, CompletionKind, Fabric, Rank};
use fairmpi_matching::Matcher;
use fairmpi_progress::ProgressEngine;
use fairmpi_spc::{Counter, SpcSet, SpcSnapshot};

use crate::comm::CommState;
use crate::design::{DesignConfig, LockModel, MatchMode};
use crate::error::{MpiError, Result};
use crate::offload::OffloadRuntime;
use crate::reliability::{Reliability, Watchdog};
use crate::request::RequestTable;
use crate::rma::{AccumulateOp, Window, WindowId, WindowRegistry, WindowState};

/// Handle to one simulated MPI process. Cloneable and `Send + Sync`; any
/// number of OS threads may drive the same rank concurrently
/// (`MPI_THREAD_MULTIPLE`).
#[derive(Clone)]
pub struct Proc {
    pub(crate) state: Arc<ProcState>,
}

impl Proc {
    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.state.rank
    }

    /// Number of ranks in the world.
    pub fn num_ranks(&self) -> usize {
        self.state.num_ranks
    }

    /// The design configuration this world runs.
    pub fn design(&self) -> &DesignConfig {
        &self.state.design
    }

    /// Live software performance counters of this rank.
    pub fn spc(&self) -> &Arc<SpcSet> {
        &self.state.spc
    }

    /// Snapshot this rank's counters.
    pub fn spc_snapshot(&self) -> SpcSnapshot {
        self.state.spc.snapshot()
    }

    /// Make one explicit progress pass (usually unnecessary: blocking calls
    /// progress internally).
    pub fn progress(&self) -> usize {
        self.state.progress_once()
    }

    /// Whether a communicator was created with
    /// `mpi_assert_allow_overtaking` (paper §IV-D).
    pub fn comm_allows_overtaking(&self, comm: crate::Communicator) -> Result<bool> {
        self.state.with_comm(comm.id, |cs| cs.allow_overtaking)
    }

    /// Number of requests currently live on this rank (diagnostics).
    pub fn pending_requests(&self) -> usize {
        self.state.requests.len()
    }

    /// Number of reliability frames this rank has on the wire awaiting
    /// acknowledgment. Always 0 when no fault plan is armed.
    pub fn in_flight_frames(&self) -> usize {
        self.state.reliability.as_ref().map_or(0, |r| r.in_flight())
    }

    /// Resolve a window id into a handle bound to this rank.
    pub fn window(&self, id: WindowId) -> Result<Window> {
        let state = self.state.windows.get(id)?;
        Ok(Window {
            state,
            proc: self.clone(),
        })
    }

    /// Drop this thread's dedicated CRI binding (models a communicating
    /// thread exiting; its instance becomes an orphan other threads must
    /// keep progressing).
    pub fn forget_dedicated_instance(&self) {
        self.state.pool.forget_dedicated();
    }
}

/// Internal state of one rank.
pub(crate) struct ProcState {
    pub(crate) rank: Rank,
    pub(crate) num_ranks: usize,
    pub(crate) design: DesignConfig,
    pub(crate) fabric: Arc<Fabric>,
    pub(crate) pool: Arc<CriPool>,
    pub(crate) engine: ProgressEngine,
    pub(crate) spc: Arc<SpcSet>,
    pub(crate) requests: RequestTable,
    /// Communicators, indexed by id (ids are dense from 0).
    pub(crate) comms: RwLock<Vec<Arc<CommState>>>,
    /// Single process-wide matcher for [`MatchMode::Global`] designs.
    pub(crate) global_matcher: Mutex<Matcher>,
    /// Process-wide critical section for big-lock design emulations.
    pub(crate) big_lock: Mutex<()>,
    pub(crate) windows: Arc<WindowRegistry>,
    /// The software-offload runtime, set at build time when the design has
    /// `offload_workers > 0` (the engine's workers hold an `Arc` back to
    /// this state, so it outlives them; `World::drop` runs the shutdown).
    pub(crate) offload: OnceLock<OffloadRuntime>,
    /// Ack/retransmit state, present exactly when the design armed a fault
    /// plan. `None` keeps the chaos-free send path bit-identical.
    pub(crate) reliability: Option<Reliability>,
    /// Progress stall detector, armed with the fault plan.
    pub(crate) watchdog: Option<Watchdog>,
}

impl ProcState {
    pub(crate) fn new(
        rank: Rank,
        num_ranks: usize,
        design: DesignConfig,
        fabric: Arc<Fabric>,
        windows: Arc<WindowRegistry>,
    ) -> Arc<Self> {
        let spc = Arc::new(SpcSet::new());
        let pool = Arc::new(CriPool::new(
            &fabric,
            rank,
            design.num_instances,
            Arc::clone(&spc),
        ));
        let engine = ProgressEngine::new(
            Arc::clone(&pool),
            design.progress,
            fabric.config().extraction_overhead_ns,
        );
        let state = Arc::new(Self {
            rank,
            num_ranks,
            design,
            fabric,
            pool,
            engine,
            spc: Arc::clone(&spc),
            requests: RequestTable::new(),
            comms: RwLock::new(Vec::new()),
            global_matcher: Mutex::named(Matcher::new(spc, design.allow_overtaking), move || {
                format!("matching.global[rank={rank}]")
            }),
            big_lock: Mutex::named((), move || format!("core.big_lock[rank={rank}]")),
            windows,
            offload: OnceLock::new(),
            reliability: design.chaos.map(|plan| Reliability::new(plan, num_ranks)),
            watchdog: design.chaos.map(|_| Watchdog::new()),
        });
        if design.offload_workers > 0 {
            let config = crate::offload::offload_config_from_env(design.offload_workers);
            let _ = state.offload.set(OffloadRuntime::start(&state, config));
        }
        state
    }

    /// Register a communicator's per-rank state. Ids must arrive in
    /// order, so that a communicator's id is its index.
    pub(crate) fn register_comm(&self, state: Arc<CommState>) {
        let mut comms = self.comms.write();
        assert_eq!(state.id as usize, comms.len(), "communicator ids are dense");
        comms.push(state);
    }

    /// Run `f` on a communicator's state, borrowed under the table's read
    /// lock.
    pub(crate) fn with_comm<R>(&self, id: CommId, f: impl FnOnce(&CommState) -> R) -> Result<R> {
        let comms = self.comms.read();
        let cs = comms.get(id as usize).ok_or(MpiError::InvalidComm(id))?;
        Ok(f(cs))
    }

    /// Hold the process-global critical section when emulating big-lock
    /// designs; free otherwise.
    pub(crate) fn maybe_big_lock(&self) -> Option<MutexGuard<'_, ()>> {
        match self.design.lock_model {
            LockModel::GlobalCriticalSection => Some(self.big_lock.lock()),
            LockModel::PerInstance => None,
        }
    }

    /// Run `f` holding the appropriate matching lock, charging the time to
    /// the match-time counter (lock acquisition included — contention on
    /// the matching lock is exactly what Table II's match time exposes).
    /// `Err(InvalidComm)` when `comm` names no communicator, in either mode.
    pub(crate) fn with_matcher<R>(
        &self,
        comm: CommId,
        f: impl FnOnce(&mut Matcher) -> R,
    ) -> Result<R> {
        if matches!(self.design.matching, MatchMode::Global) {
            // The global matcher is found without a lookup: check here.
            self.with_comm(comm, |_| ())?;
        }
        self.with_matcher_unchecked(comm, f)
    }

    /// [`with_matcher`](Self::with_matcher) for a communicator already
    /// checked (a packet's sender checked it; `irecv` checked a receive it
    /// queued to offload), so Global mode skips the lookup. One call is one
    /// timed hold, however many packets `f` delivers: a clock read costs as
    /// much as a counter update several times over.
    pub(crate) fn with_matcher_unchecked<R>(
        &self,
        comm: CommId,
        f: impl FnOnce(&mut Matcher) -> R,
    ) -> Result<R> {
        let timer = fairmpi_spc::ScopedTimer::new(&self.spc, Counter::MatchTimeNanos);
        let result = match self.design.matching {
            MatchMode::Global => {
                let mut m = self.global_matcher.lock();
                f(&mut m)
            }
            MatchMode::PerCommunicator => self.with_comm(comm, |cs| f(&mut cs.matcher.lock()))?,
        };
        drop(timer);
        Ok(result)
    }

    /// The offload runtime, while it still accepts commands. `None` both
    /// for non-offload designs and after shutdown (callers then take the
    /// direct path, so `Proc` handles stay usable after the world drops).
    pub(crate) fn offload_runtime(&self) -> Option<&OffloadRuntime> {
        self.offload.get().filter(|rt| rt.active())
    }

    /// One raw pass over the progress engine. Offload workers call this
    /// through their backend; application threads must go through
    /// [`ProcState::progress_once`], which keeps them off the engine while
    /// offload is active.
    pub(crate) fn progress_engine(&self) -> usize {
        let mut count = {
            let _big = self.maybe_big_lock();
            self.engine.progress(self.design.assignment, self)
        };
        if self.reliability.is_some() {
            // Outside the big lock: the tick re-takes it per retransmit, and
            // a fatal error handler may panic out of it.
            count += self.reliability_tick();
            if let Some(w) = &self.watchdog {
                w.observe(count > 0, &self.spc);
            }
        }
        count
    }

    /// One progress pass under the configured design. A no-op while offload
    /// is active: the workers own the engine, and an application thread
    /// touching it would bind itself a dedicated CRI the workers rely on.
    pub(crate) fn progress_once(&self) -> usize {
        if self.offload_runtime().is_some() {
            return 0;
        }
        self.progress_engine()
    }

    /// What a blocked application thread does per spin: drain completion
    /// notifications in offload mode, drive the engine otherwise. Returns
    /// the number of events observed (0 = idle, caller may yield).
    pub(crate) fn advance(&self) -> usize {
        match self.offload_runtime() {
            Some(rt) => rt.poll_completions(),
            None => self.progress_once(),
        }
    }

    pub(crate) fn validate_rank(&self, rank: Rank) -> Result<()> {
        if (rank as usize) < self.num_ranks {
            Ok(())
        } else {
            Err(MpiError::InvalidRank(rank as i32))
        }
    }

    // ---- one-sided implementation (called from `Window`) ----

    /// Charge the origin-side cost of moving `len` payload bytes and return
    /// with the acquired instance still locked.
    pub(crate) fn rma_inject(&self, payload_len: usize) -> fairmpi_cri::CriGuard<'_> {
        let k = self.pool.instance_id(self.design.assignment);
        let guard = self.pool.instance(k).lock(&self.spc);
        let cfg = self.fabric.config();
        busy_wait_ns(
            cfg.injection_overhead_ns
                .max(cfg.serialization_time_ns(payload_len)),
        );
        guard
    }

    pub(crate) fn rma_token(win: &WindowState, target: Rank) -> u64 {
        ((win.id.0 as u64) << 32) | target as u64
    }

    pub(crate) fn rma_put(&self, win: &Arc<WindowState>, target: Rank, offset: usize, data: &[u8]) {
        // The pending count rises at initiation time — before any offload
        // enqueue — so a flush issued right behind the put always sees it.
        win.pending_inc(self.rank, target);
        if let Some(rt) = self.offload_runtime() {
            let cmd = fairmpi_offload::Command::Put {
                window: win.id.0 as u64,
                target,
                offset,
                data: data.to_vec(),
                token: 0,
            };
            if rt.submit_silent(cmd).is_ok() {
                return;
            }
            // Refused (fail-fast backpressure or shutdown): apply inline.
        }
        let _big = self.maybe_big_lock();
        let guard = self.rma_inject(data.len());
        win.store_bytes(target, offset, data);
        guard.post_completion(Completion {
            token: Self::rma_token(win, target),
            kind: CompletionKind::RmaDone,
        });
        self.spc.inc(Counter::RmaPuts);
        self.spc.add(Counter::BytesSent, data.len() as u64);
    }

    pub(crate) fn rma_get(
        &self,
        win: &Arc<WindowState>,
        target: Rank,
        offset: usize,
        len: usize,
    ) -> Vec<u8> {
        let _big = self.maybe_big_lock();
        let guard = self.rma_inject(len);
        let data = win.load_bytes(target, offset, len);
        win.pending_inc(self.rank, target);
        guard.post_completion(Completion {
            token: Self::rma_token(win, target),
            kind: CompletionKind::RmaDone,
        });
        self.spc.inc(Counter::RmaGets);
        self.spc.add(Counter::BytesReceived, len as u64);
        data
    }

    pub(crate) fn rma_accumulate(
        &self,
        win: &Arc<WindowState>,
        target: Rank,
        offset: usize,
        lanes: &[u64],
        op: AccumulateOp,
    ) {
        let _big = self.maybe_big_lock();
        let guard = self.rma_inject(lanes.len() * 8);
        win.accumulate_u64(target, offset, lanes, op);
        win.pending_inc(self.rank, target);
        guard.post_completion(Completion {
            token: Self::rma_token(win, target),
            kind: CompletionKind::RmaDone,
        });
        self.spc.inc(Counter::RmaAccumulates);
    }

    pub(crate) fn rma_fetch_op(
        &self,
        win: &Arc<WindowState>,
        target: Rank,
        offset: usize,
        value: u64,
    ) -> u64 {
        let _big = self.maybe_big_lock();
        let guard = self.rma_inject(8);
        let prev = win.accumulate_u64(target, offset, &[value], AccumulateOp::Sum);
        win.pending_inc(self.rank, target);
        guard.post_completion(Completion {
            token: Self::rma_token(win, target),
            kind: CompletionKind::RmaDone,
        });
        self.spc.inc(Counter::RmaAccumulates);
        prev
    }

    pub(crate) fn rma_compare_swap(
        &self,
        win: &Arc<WindowState>,
        target: Rank,
        offset: usize,
        compare: u64,
        swap: u64,
    ) -> u64 {
        let _big = self.maybe_big_lock();
        let guard = self.rma_inject(8);
        let prev = win.compare_swap_u64(target, offset, compare, swap);
        win.pending_inc(self.rank, target);
        guard.post_completion(Completion {
            token: Self::rma_token(win, target),
            kind: CompletionKind::RmaDone,
        });
        self.spc.inc(Counter::RmaAccumulates);
        prev
    }

    /// Progress until this rank's outstanding RMA ops (toward `target`, or
    /// all targets) have drained.
    pub(crate) fn rma_flush(&self, win: &Arc<WindowState>, target: Option<Rank>) {
        if let Some(rt) = self.offload_runtime() {
            // Ship a flush descriptor: the worker registers it and the
            // engine's progress pass completes the request once the pending
            // count drains (FIFO behind every queued put).
            let token = self.requests.new_send(self.rank, 0, None);
            let cmd = fairmpi_offload::Command::Flush {
                window: win.id.0 as u64,
                target,
                token,
            };
            if rt.submit(cmd).is_ok() {
                let mut idle_spins = 0u32;
                while self.requests.is_done(token) == Some(false) {
                    if rt.poll_completions() == 0 {
                        idle_spins += 1;
                        if idle_spins > 64 {
                            std::thread::yield_now();
                        }
                    } else {
                        idle_spins = 0;
                    }
                }
                let _ = self.requests.try_reap(token);
                // The backend counted RmaFlushes at completion.
                return;
            }
            // Refused: retire the unused request and drain inline below
            // (the workers still retire the queued puts; progress_once
            // only yields meanwhile).
            self.requests.discard(token);
        }
        loop {
            let pending = match target {
                Some(t) => win.pending_toward(self.rank, t),
                None => win.pending_total(self.rank),
            };
            if pending == 0 {
                break;
            }
            if self.progress_once() == 0 {
                std::thread::yield_now();
            }
        }
        self.spc.inc(Counter::RmaFlushes);
    }
}
