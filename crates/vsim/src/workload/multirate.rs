//! Multirate–pairwise under virtual time.
//!
//! N sender threads on rank 0 stream 0-byte messages to N receiver threads
//! on rank 1 (paper Fig. 2, thread↔thread mode; process mode replaces the
//! threads with independent single-threaded processes). The actors run the
//! **real** matching engine and the **real** send-side sequence counters;
//! only time, locks and cores are virtual. Out-of-sequence percentages and
//! match times (Table II) therefore come out of the actual data structures.

use std::collections::VecDeque;
use std::sync::Arc;

use fairmpi_chaos::rng::Xoshiro256;
use fairmpi_chaos::{retransmit_backoff_ns, ChaosEngine, DedupWindow, Delivery, FaultPlan};

use fairmpi_fabric::{Envelope, Packet, ANY_TAG};
use fairmpi_matching::{MatchEvent, Matcher, PostOutcome, PostedRecv, SendSequencer};
use fairmpi_progress::Plan;
use fairmpi_spc::{Counter, SpcSet, SpcSnapshot, Watermark};

use crate::cost::CostModel;
use crate::engine::{Action, Actor, LockId, Resume, Sim, WorldAccess};
use crate::machine::Machine;
use crate::workload::{
    Drain, Flow, Hold, IdleBackoff, Pass, SimAssignment, SimProgress, DRAIN_BATCH,
};

/// How matching state is laid out across pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMatchLayout {
    /// All pairs share one communicator (one matcher, one matching lock) —
    /// the configuration of paper Figs. 3a/3b.
    SingleComm,
    /// One communicator per pair (a matcher and lock each) — the
    /// "concurrent matching" configuration of Fig. 3c.
    CommPerPair,
}

/// One design point of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimDesign {
    /// Number of CRIs per rank.
    pub instances: usize,
    /// Instance assignment strategy (Algorithm 1).
    pub assignment: SimAssignment,
    /// Progress-engine design (Algorithm 2 or the serial original).
    pub progress: SimProgress,
    /// Matching layout.
    pub matching: SimMatchLayout,
    /// `mpi_assert_allow_overtaking`: skip sequence validation (Fig. 4).
    pub allow_overtaking: bool,
    /// Receivers post `MPI_ANY_TAG` so every message matches the head of
    /// the posted queue (Fig. 4's queue-search elimination).
    pub any_tag: bool,
    /// Emulate a big-lock implementation: one process-wide critical
    /// section around the send path and each whole progress pass (the
    /// IMPI / MPICH threaded baselines of Fig. 5).
    pub big_lock: bool,
    /// Process mode: each pair is a pair of single-threaded processes with
    /// private resources (the process-mode baselines of Fig. 5).
    pub process_mode: bool,
    /// Software offload: this many dedicated communication workers per
    /// side, each owning one instance. Application threads only enqueue
    /// command descriptors (lock-free) and poll completions; the workers
    /// do all injection, extraction and matching. 0 disables offload
    /// (and it is ignored under `big_lock` or `process_mode`).
    pub offload_workers: usize,
    /// Chaos: per-mille probability that a shipped frame is dropped on
    /// the wire, repaired by timeout-and-retransmit at the cost model's
    /// `retransmit_timeout_ns` with exponential backoff. 0 disables.
    pub chaos_drop_pm: u16,
    /// Chaos: per-mille probability that a shipped frame arrives twice;
    /// the receive path suppresses the duplicate. 0 disables.
    pub chaos_dup_pm: u16,
    /// Seed of the chaos RNG stream. Deliberately separate from the run
    /// seed so arming chaos never perturbs the scheduler's draws.
    pub chaos_seed: u64,
}

impl SimDesign {
    /// The original Open MPI threaded design (the red baseline of Fig. 3).
    pub fn baseline() -> Self {
        Self {
            instances: 1,
            assignment: SimAssignment::RoundRobin,
            progress: SimProgress::Serial,
            matching: SimMatchLayout::SingleComm,
            allow_overtaking: false,
            any_tag: false,
            big_lock: false,
            process_mode: false,
            offload_workers: 0,
            chaos_drop_pm: 0,
            chaos_dup_pm: 0,
            chaos_seed: 0,
        }
    }

    /// Process-mode baseline (pairs of single-threaded processes).
    pub fn process_mode() -> Self {
        Self {
            process_mode: true,
            matching: SimMatchLayout::CommPerPair,
            ..Self::baseline()
        }
    }

    /// The software-offload design point: `workers` dedicated communication
    /// threads per side, each with a dedicated instance (mirrors
    /// `DesignConfig::builder().offload(n)` in `fairmpi`). Composes with per-communicator
    /// matching — without it every pair's posted receives share one PRQ and
    /// the workers' match traversals grow with the pair count, burying the
    /// benefit of the lock-free submission path.
    pub fn offload(workers: usize) -> Self {
        let workers = workers.max(1);
        Self {
            instances: workers,
            assignment: SimAssignment::Dedicated,
            progress: SimProgress::Concurrent,
            matching: SimMatchLayout::CommPerPair,
            offload_workers: workers,
            ..Self::baseline()
        }
    }

    /// Arm the lossy-wire model on this design (the degradation grids
    /// sweep `drop_pm` through this).
    pub fn chaos(mut self, drop_pm: u16, dup_pm: u16, seed: u64) -> Self {
        self.chaos_drop_pm = drop_pm;
        self.chaos_dup_pm = dup_pm;
        self.chaos_seed = seed;
        self
    }
}

/// A Multirate–pairwise experiment.
#[derive(Debug, Clone)]
pub struct MultirateSim {
    /// Simulated testbed.
    pub machine: Machine,
    /// Number of communicating pairs (threads or processes per side).
    pub pairs: usize,
    /// Outstanding-receive window (the paper uses 128).
    pub window: usize,
    /// Windows per pair; total messages = pairs × window × iterations.
    pub iterations: usize,
    /// Design under test.
    pub design: SimDesign,
    /// RNG seed (wire jitter).
    pub seed: u64,
    /// Override the cost model (default: derived from the machine's
    /// fabric). Used by the Fig. 5 harness to apply per-implementation
    /// software-overhead emulation constants.
    pub cost: Option<CostModel>,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct MultirateResult {
    /// Aggregate message rate over the virtual makespan.
    pub msg_rate_per_s: f64,
    /// Virtual makespan in nanoseconds.
    pub makespan_ns: u64,
    /// Messages transferred.
    pub total_messages: u64,
    /// Counters (out-of-sequence, match time, ...), receiver side included.
    pub spc: SpcSnapshot,
}

// ---------------------------------------------------------------------
// Shared world
// ---------------------------------------------------------------------

/// Simulated offload command-queue capacity (the native default of
/// `fairmpi_offload::OffloadConfig`). Enqueues against a full queue stall
/// and count [`Counter::OffloadBackpressureStalls`].
const OFFLOAD_QUEUE_CAP: usize = 1024;

fn pack(comm: u32, tag: u16, seq: u64) -> u64 {
    debug_assert!(comm < 1 << 15, "too many communicators to pack");
    debug_assert!(seq < 1 << 32, "sequence number overflows packing");
    ((comm as u64) << 48) | ((tag as u64) << 32) | seq
}

fn unpack(payload: u64) -> Packet {
    let comm = (payload >> 48) as u32;
    let tag = ((payload >> 32) & 0xffff) as i32;
    let seq = payload & 0xffff_ffff;
    Packet::eager(
        Envelope {
            src: 0,
            dst: 1,
            comm,
            tag,
            seq,
        },
        Vec::new(),
    )
}

fn payload_comm(payload: u64) -> u32 {
    (payload >> 48) as u32
}

/// The simulated lossy wire: the runtime's own fault engine, on the
/// fault plan's seeded stream (never the scheduler's — arming chaos must
/// not perturb the jitter draws of an otherwise identical run), plus the
/// receiver-side duplicate suppression.
struct ChaosWire {
    engine: ChaosEngine,
    /// One window per communicator of the sequence numbers matched once,
    /// each offset by one: the sequencer counts from 0, a window from 1.
    seen: Vec<DedupWindow>,
}

/// Shared state: receiver rings, the real matchers and sequencers.
pub(crate) struct MrWorld {
    chaos: Option<ChaosWire>,
    rings: Vec<VecDeque<u64>>,
    matchers: Vec<Matcher>,
    sequencers: Vec<SendSequencer>,
    spc: Arc<SpcSet>,
    /// Completed receives per receiver thread (request tokens == thread id).
    recv_done: Vec<u64>,
    /// Sum of `recv_done` (the offload workers' termination check).
    received: u64,
    /// Offload: send command descriptors awaiting a worker (payload words).
    cmd_send: VecDeque<u64>,
    /// Offload: receive-post commands awaiting a worker (receiver ids).
    cmd_recv: VecDeque<usize>,
    /// Senders that have finished enqueueing (offload workers drain until
    /// every sender is done *and* the command queue is empty).
    senders_done: usize,
    rr_send: u64,
    rr_recv: u64,
    rng: Xoshiro256,
    scratch: Vec<MatchEvent>,
}

impl WorldAccess for MrWorld {
    fn deliver(&mut self, mailbox: usize, payload: u64) {
        self.rings[mailbox].push_back(payload);
    }
}

impl MrWorld {
    fn note_received(&mut self, token: usize) {
        self.recv_done[token] += 1;
        self.received += 1;
    }

    /// What the wire does to one shipped frame: the fault engine's
    /// verdict, counted as the native fabric's chaos hook counts it.
    fn chaos_ship(&mut self) -> Delivery {
        let Some(chaos) = &self.chaos else {
            return Delivery::Deliver;
        };
        let verdict = chaos.engine.decide_delivery();
        match verdict {
            Delivery::Drop => self.spc.inc(Counter::ChaosDrops),
            Delivery::Duplicate => self.spc.inc(Counter::ChaosDups),
            _ => {}
        }
        verdict
    }
}

/// Lock-free enqueue of one offload command (the whole point: no lock
/// action here). Returns false — after counting a backpressure stall —
/// when the queue is full.
fn offload_enqueue<T>(queue: &mut VecDeque<T>, spc: &SpcSet, cmd: T) -> bool {
    if queue.len() >= OFFLOAD_QUEUE_CAP {
        spc.inc(Counter::OffloadBackpressureStalls);
        return false;
    }
    queue.push_back(cmd);
    spc.inc(Counter::OffloadCommands);
    spc.record_level(Watermark::OffloadQueueDepth, queue.len() as u64);
    true
}

/// What every actor of one run shares: the design, the cost model and the
/// simulated locks.
struct Wiring {
    design: SimDesign,
    cost: CostModel,
    instances: usize,
    send_locks: Vec<LockId>,
    recv_locks: Vec<LockId>,
    match_locks: Vec<LockId>,
    gate: LockId,
    big: LockId,
    /// Send-side request-pool locks (one per process: a single entry in
    /// thread mode, one per pair in process mode).
    send_pools: Vec<LockId>,
    /// Receive-side request-pool locks.
    recv_pools: Vec<LockId>,
}

impl Wiring {
    fn send_pool(&self, pair: usize) -> LockId {
        self.send_pools[pair % self.send_pools.len()]
    }

    fn recv_pool(&self, pair: usize) -> LockId {
        self.recv_pools[pair % self.recv_pools.len()]
    }

    /// The communicator that pair `pair`'s traffic travels on. A
    /// communicator id is also the index of its matcher, sequencer and
    /// matching lock: under `SingleComm` every pair is on communicator 0.
    fn comm_of(&self, pair: usize) -> u32 {
        match self.design.matching {
            SimMatchLayout::SingleComm => 0,
            SimMatchLayout::CommPerPair => pair as u32,
        }
    }

    fn match_lock(&self, comm: u32) -> LockId {
        self.match_locks[comm as usize]
    }
}

// ---------------------------------------------------------------------
// Protocol phases, shared by the application actors and the offload
// workers
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Default)]
enum ShipStep {
    #[default]
    Lock,
    Inject,
    Ship,
    /// Chaos duplicated the frame: post the second copy.
    ShipDup,
    /// Chaos dropped the frame: the (virtual) ack timeout elapses with
    /// nothing to show.
    Backoff,
    Release,
    Shipped,
    Lost,
}

/// Injecting one frame: take the instance (or big) lock, charge the
/// injection, ship the frame (twice when chaos duplicates it), release.
/// A frame chaos drops releases the lock and sleeps out the ack timeout
/// instead, and the phase ends `Done(false)`: the owner picks an instance
/// and starts it again.
#[derive(Default)]
struct Injection {
    step: ShipStep,
    lock: LockId,
    mailbox: usize,
    payload: u64,
    /// Retransmit attempts for the in-hand frame (chaos only).
    attempt: u32,
}

impl Injection {
    fn start(&mut self, lock: LockId, mailbox: usize, payload: u64) {
        self.step = ShipStep::Lock;
        self.lock = lock;
        self.mailbox = mailbox;
        self.payload = payload;
    }

    #[inline(always)]
    fn step(&mut self, world: &mut MrWorld, w: &Wiring) -> Flow<bool> {
        let action = match self.step {
            ShipStep::Lock => {
                self.step = ShipStep::Inject;
                Action::Lock(self.lock)
            }
            ShipStep::Inject => {
                self.step = ShipStep::Ship;
                Action::Compute(w.cost.injection_time_ns(0, 28))
            }
            ShipStep::Ship => {
                // A unique message counts as sent on its first injection,
                // whatever the wire then does to it; retransmits don't.
                if self.attempt == 0 {
                    world.spc.inc(Counter::MessagesSent);
                }
                match world.chaos_ship() {
                    Delivery::Drop => {
                        // The sender only learns of the loss when the ack
                        // timeout fires: release the instance and back off.
                        self.step = ShipStep::Backoff;
                        Action::Unlock(self.lock)
                    }
                    verdict => {
                        self.attempt = 0;
                        self.step = if verdict == Delivery::Duplicate {
                            ShipStep::ShipDup
                        } else {
                            ShipStep::Release
                        };
                        self.post(world, w)
                    }
                }
            }
            ShipStep::ShipDup => {
                self.step = ShipStep::Release;
                self.post(world, w)
            }
            ShipStep::Backoff => {
                let backoff = retransmit_backoff_ns(w.cost.retransmit_timeout_ns, self.attempt);
                self.attempt += 1;
                world.spc.inc(Counter::Retransmits);
                world.spc.add(Counter::RetryBackoffNanos, backoff);
                self.step = ShipStep::Lost;
                Action::Sleep(backoff)
            }
            ShipStep::Release => {
                self.step = ShipStep::Shipped;
                Action::Unlock(self.lock)
            }
            ShipStep::Shipped => return Flow::Done(true),
            ShipStep::Lost => return Flow::Done(false),
        };
        Flow::Yield(action)
    }

    fn post(&self, world: &mut MrWorld, w: &Wiring) -> Action {
        Action::Post {
            mailbox: self.mailbox,
            payload: self.payload,
            delay_ns: w.cost.wire_latency_ns + world.rng.jitter(w.cost.delivery_jitter_ns),
        }
    }
}

#[derive(Clone, Copy, Default)]
enum PostStep {
    #[default]
    Lock,
    Charge,
    Unlock,
    Posted,
}

/// Posting one receive for pair `id`: take its matching lock (the big
/// lock under `big_lock`), post through the real matcher, charge the work
/// plus the lock wait as match time (as OMPI's SPC does: the Table II
/// number), release.
#[derive(Default)]
struct Post {
    step: PostStep,
    id: usize,
    lock: LockId,
    wait_from: u64,
}

impl Post {
    fn start(&mut self, id: usize, w: &Wiring) {
        self.step = PostStep::Lock;
        self.id = id;
        self.lock = if w.design.big_lock {
            w.big
        } else {
            w.match_lock(w.comm_of(id))
        };
    }

    #[inline(always)]
    fn step(&mut self, now: u64, world: &mut MrWorld, w: &Wiring) -> Flow<()> {
        let action = match self.step {
            PostStep::Lock => {
                self.wait_from = now;
                self.step = PostStep::Charge;
                Action::Lock(self.lock)
            }
            PostStep::Charge => {
                let comm = w.comm_of(self.id);
                let recv = PostedRecv {
                    token: self.id as u64,
                    comm,
                    src: 0,
                    tag: if w.design.any_tag {
                        ANY_TAG
                    } else {
                        self.id as i32
                    },
                };
                let (outcome, work) = world.matchers[comm as usize].post_recv(recv);
                if let PostOutcome::Matched(_) = outcome {
                    world.note_received(self.id);
                }
                let cost = w.cost.match_time_ns(&work);
                world
                    .spc
                    .add(Counter::MatchTimeNanos, cost + (now - self.wait_from));
                self.step = PostStep::Unlock;
                Action::Compute(cost)
            }
            PostStep::Unlock => {
                self.step = PostStep::Posted;
                Action::Unlock(self.lock)
            }
            PostStep::Posted => return Flow::Done(()),
        };
        Flow::Yield(action)
    }
}

/// The receive side as one [`Pass`] drains it: the instance rings and the
/// real matchers behind them.
struct RecvSide<'a> {
    world: &'a mut MrWorld,
    w: &'a Wiring,
}

impl Drain for RecvSide<'_> {
    fn spc(&self) -> &SpcSet {
        &self.world.spc
    }

    fn instance_lock(&self, k: usize) -> LockId {
        self.w.recv_locks[k]
    }

    fn extract(&mut self, k: usize, batch: &mut Vec<u64>) -> (u64, usize) {
        let ring = &mut self.world.rings[k];
        batch.extend(ring.drain(..ring.len().min(DRAIN_BATCH)));
        if !batch.is_empty() {
            // Same definition as the native progress engine: the packets
            // one non-empty visit drained.
            self.world
                .spc
                .record_level(Watermark::InstanceRxDepth, batch.len() as u64);
        }
        (self.w.cost.extraction_ns * batch.len() as u64, 0)
    }

    fn match_lock(&self, item: u64) -> LockId {
        self.w.match_lock(payload_comm(item))
    }

    /// Deliver one drained packet through the real matcher.
    fn match_item(&mut self, item: u64) -> (u64, usize) {
        let (world, cost) = (&mut *self.world, &self.w.cost);
        let packet = unpack(item);
        let idx = packet.envelope.comm as usize;
        if let Some(chaos) = &mut world.chaos {
            // Reliable-transport dedup: a duplicated frame is recognized
            // and discarded before it reaches the matcher, for no more
            // than its extraction cost.
            if !chaos.seen[idx].accept(packet.envelope.seq + 1) {
                world.spc.inc(Counter::DuplicatesSuppressed);
                return (cost.extraction_ns, 0);
            }
        }
        let mut events = std::mem::take(&mut world.scratch);
        events.clear();
        let work = world.matchers[idx].deliver(packet, &mut events);
        let mut got = 0;
        for ev in events.drain(..) {
            world.note_received(ev.token as usize);
            got += 1;
        }
        world.scratch = events;
        let cost_ns = cost.match_time_ns(&work);
        world.spc.add(Counter::MatchTimeNanos, cost_ns);
        (cost_ns, got)
    }
}

// ---------------------------------------------------------------------
// Sender actor
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
enum SState {
    /// Pick the next message (draw seq) or finish.
    Next,
    /// Software overhead charged; grab the shared request pool.
    PoolAcquire,
    /// Pool held: charge the allocation.
    PoolCharge,
    /// Release the pool, then go for the instance.
    PoolRelease,
    /// Pick the instance and start injecting through it.
    Acquire,
    /// Injecting (see [`Injection`]).
    Ship,
    /// Offload mode: lock-free enqueue onto the command queue (retried
    /// with a short nap when the queue is full — backpressure).
    OffloadEnqueue,
}

struct Sender {
    pair: usize,
    comm: u32,
    remaining: u64,
    state: SState,
    w: Arc<Wiring>,
    payload: u64,
    ship: Injection,
}

impl Actor<MrWorld> for Sender {
    fn step(&mut self, _resume: Resume, _now: u64, world: &mut MrWorld) -> Action {
        let design = self.w.design;
        loop {
            match self.state {
                SState::Next => {
                    if self.remaining == 0 {
                        world.senders_done += 1;
                        return Action::Done;
                    }
                    self.remaining -= 1;
                    // Draw the sequence number *now*, before acquiring the
                    // instance — the variable delay between the draw and
                    // the injection is what lets threads overtake each
                    // other and produce out-of-sequence arrivals. (In
                    // offload mode the draw happens at enqueue time, in
                    // program order, exactly like the native runtime.)
                    let seq = world.sequencers[self.comm as usize].next(0);
                    self.payload = pack(self.comm, self.pair as u16, seq);
                    self.state = if design.big_lock {
                        // The big lock already serializes everything; the
                        // pool is not a separate bottleneck there.
                        SState::Acquire
                    } else if design.offload_workers > 0 {
                        // Offload: the descriptor *is* the command-ring
                        // slot, so submission never touches the
                        // process-shared request pool — the serialization
                        // that pins every other thread-mode design to the
                        // pool ceiling.
                        SState::OffloadEnqueue
                    } else {
                        SState::PoolAcquire
                    };
                    return Action::Compute(self.w.cost.send_software_ns);
                }
                SState::PoolAcquire => {
                    self.state = SState::PoolCharge;
                    return Action::Lock(self.w.send_pool(self.pair));
                }
                SState::PoolCharge => {
                    self.state = SState::PoolRelease;
                    return Action::Compute(self.w.cost.request_pool_ns);
                }
                SState::PoolRelease => {
                    self.state = SState::Acquire;
                    return Action::Unlock(self.w.send_pool(self.pair));
                }
                SState::OffloadEnqueue => {
                    if offload_enqueue(&mut world.cmd_send, &world.spc, self.payload) {
                        self.state = SState::Next;
                        return Action::Compute(self.w.cost.offload_enqueue_ns);
                    }
                    // Queue full: nap and retry (the Yield backpressure
                    // policy). The descriptor and its seq are kept.
                    return Action::Sleep(500);
                }
                SState::Acquire => {
                    let assignment = if design.process_mode {
                        SimAssignment::Dedicated
                    } else {
                        design.assignment
                    };
                    let instance = assignment.pick(self.pair, self.w.instances, &mut world.rr_send);
                    let lock = if design.big_lock {
                        self.w.big
                    } else {
                        self.w.send_locks[instance]
                    };
                    self.ship.start(lock, instance, self.payload);
                    self.state = SState::Ship;
                }
                SState::Ship => match self.ship.step(world, &self.w) {
                    Flow::Yield(action) => return action,
                    Flow::Done(shipped) => {
                        self.state = if shipped {
                            SState::Next
                        } else {
                            SState::Acquire
                        };
                    }
                },
            }
        }
    }
}

// ---------------------------------------------------------------------
// Receiver actor
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
enum RState {
    /// Top of the loop: post, progress, or finish.
    Idle,
    /// Grab the receive-side request pool before posting.
    PoolAcquire,
    /// Pool held: charge the allocation.
    PoolCharge,
    /// Release the pool.
    PoolRelease,
    /// Posting one receive (see [`Post`]).
    Post,
    /// Begin one progress pass.
    Progress,
    /// In a progress pass (see [`Pass`]).
    Pass,
    /// Nothing found: charge an empty poll.
    IdlePoll,
    /// Then yield the core.
    IdleYield,
    /// Offload mode: lock-free enqueue of a receive-post command.
    OffloadPost,
}

struct Receiver {
    id: usize,
    window: usize,
    iterations: usize,
    w: Arc<Wiring>,
    state: RState,
    posted: u64,
    wait_target: u64,
    post: Post,
    pass: Pass,
    idle: IdleBackoff,
}

impl Receiver {
    fn total(&self) -> u64 {
        (self.window * self.iterations) as u64
    }

    fn note_posted(&mut self) {
        self.posted += 1;
        if self.posted.is_multiple_of(self.window as u64) {
            self.wait_target = self.posted;
        }
    }
}

impl Actor<MrWorld> for Receiver {
    fn step(&mut self, resume: Resume, now: u64, world: &mut MrWorld) -> Action {
        let design = self.w.design;
        let instances = self.w.instances;
        loop {
            match self.state {
                RState::Idle => {
                    let done = world.recv_done[self.id];
                    if done >= self.total() {
                        return Action::Done;
                    }
                    if self.posted < self.total() && done >= self.wait_target {
                        self.state = if design.offload_workers > 0 {
                            // Offload: the recv descriptor rides in the
                            // ring slot; no shared-pool visit.
                            RState::OffloadPost
                        } else {
                            self.post.start(self.id, &self.w);
                            if design.big_lock {
                                RState::Post
                            } else {
                                RState::PoolAcquire
                            }
                        };
                        return Action::Compute(self.w.cost.recv_software_ns);
                    }
                    // Offload: the workers progress; the application thread
                    // only polls its completion queue (an empty-poll charge
                    // plus backoff — the CQ read is the cqe cost).
                    self.state = if design.offload_workers > 0 {
                        RState::IdlePoll
                    } else {
                        RState::Progress
                    };
                }
                RState::PoolAcquire => {
                    self.state = RState::PoolCharge;
                    return Action::Lock(self.w.recv_pool(self.id));
                }
                RState::PoolCharge => {
                    self.state = RState::PoolRelease;
                    return Action::Compute(self.w.cost.request_pool_ns);
                }
                RState::PoolRelease => {
                    self.state = RState::Post;
                    return Action::Unlock(self.w.recv_pool(self.id));
                }
                RState::OffloadPost => {
                    if !offload_enqueue(&mut world.cmd_recv, &world.spc, self.id) {
                        return Action::Sleep(500);
                    }
                    self.note_posted();
                    self.idle.reset();
                    self.state = RState::Idle;
                    return Action::Compute(self.w.cost.offload_enqueue_ns);
                }
                RState::Post => match self.post.step(now, world, &self.w) {
                    Flow::Yield(action) => return action,
                    Flow::Done(()) => {
                        self.note_posted();
                        self.state = RState::Idle;
                    }
                },
                RState::Progress => {
                    let (plan, hold) = if design.big_lock {
                        (Plan::All, Hold::Big(self.w.big))
                    } else if design.process_mode {
                        (Plan::Only(self.id % instances), Hold::Free)
                    } else if design.progress == SimProgress::Serial {
                        // The gate holder also try-locks each instance:
                        // one busy with a sender is skipped and revisited
                        // on the next pass rather than queued behind the
                        // convoy.
                        (Plan::All, Hold::Gate(self.w.gate))
                    } else {
                        // Algorithm 2: assigned instance first, then the
                        // others once each, cyclically from it.
                        let first = design
                            .assignment
                            .pick(self.id, instances, &mut world.rr_recv);
                        (Plan::From(first), Hold::Free)
                    };
                    self.pass.start(instances, plan, hold);
                    self.state = RState::Pass;
                }
                RState::Pass => {
                    let side = &mut RecvSide { world, w: &self.w };
                    match self.pass.step(resume, now, side) {
                        Flow::Yield(action) => return action,
                        Flow::Done(true) => {
                            self.idle.reset();
                            self.state = RState::Idle;
                        }
                        Flow::Done(false) => self.state = RState::IdlePoll,
                    }
                }
                RState::IdlePoll => {
                    self.state = RState::IdleYield;
                    return Action::Compute(self.w.cost.poll_empty_ns);
                }
                RState::IdleYield => {
                    self.state = RState::Idle;
                    return Action::Sleep(self.idle.next_ns());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Offload worker actors
// ---------------------------------------------------------------------

/// An offload worker's command intake: a local batch refilled from its
/// shared command queue, at most `DRAIN_BATCH` commands per visit.
#[derive(Default)]
struct Intake<T> {
    local: VecDeque<T>,
    /// The last visit found nothing to do: the next refill pays the
    /// wake-up.
    was_idle: bool,
    idle: IdleBackoff,
}

enum Take<T> {
    /// The next command to execute.
    Cmd(T),
    /// A refill: charge the drain (and the wake-up, if the worker idled).
    Refill(Action),
    /// Both the local batch and the shared queue are empty.
    Empty,
}

impl<T> Intake<T> {
    fn take(&mut self, queue: &mut VecDeque<T>, spc: &SpcSet, cost: &CostModel) -> Take<T> {
        if let Some(cmd) = self.local.pop_front() {
            return Take::Cmd(cmd);
        }
        let popped = queue.len().min(DRAIN_BATCH);
        if popped == 0 {
            return Take::Empty;
        }
        self.local.extend(queue.drain(..popped));
        spc.inc(Counter::OffloadBatches);
        let wake = if self.was_idle {
            cost.offload_wakeup_ns
        } else {
            0
        };
        self.was_idle = false;
        self.idle.reset();
        Take::Refill(Action::Compute(
            wake + cost.offload_drain_ns * popped as u64,
        ))
    }

    /// Nothing to do: charge an empty poll (a nap follows).
    fn idle_poll(&mut self, cost: &CostModel) -> Action {
        self.was_idle = true;
        Action::Compute(cost.poll_empty_ns)
    }
}

#[derive(Clone, Copy)]
enum WsState {
    /// Take the next command, refilling the local batch as needed.
    Drain,
    /// Nothing queued: nap before polling again.
    IdleSleep,
    /// Injecting the command's frame (see [`Injection`]).
    Ship,
}

/// A dedicated send-side communication thread: batch-drains the command
/// queue and injects through its own instance. Application threads never
/// touch instance locks in offload mode — this actor is the only sender
/// contending (with nobody) for `instance[w].send`.
struct SendWorker {
    instance: usize,
    pairs: usize,
    w: Arc<Wiring>,
    state: WsState,
    intake: Intake<u64>,
    ship: Injection,
}

impl Actor<MrWorld> for SendWorker {
    fn step(&mut self, _resume: Resume, _now: u64, world: &mut MrWorld) -> Action {
        let lock = self.w.send_locks[self.instance];
        loop {
            match self.state {
                WsState::Drain => {
                    match self
                        .intake
                        .take(&mut world.cmd_send, &world.spc, &self.w.cost)
                    {
                        Take::Cmd(payload) => {
                            self.ship.start(lock, self.instance, payload);
                            self.state = WsState::Ship;
                        }
                        Take::Refill(action) => return action,
                        Take::Empty => {
                            if world.senders_done == self.pairs {
                                return Action::Done;
                            }
                            self.state = WsState::IdleSleep;
                            return self.intake.idle_poll(&self.w.cost);
                        }
                    }
                }
                WsState::IdleSleep => {
                    self.state = WsState::Drain;
                    return Action::Sleep(self.intake.idle.next_ns());
                }
                WsState::Ship => match self.ship.step(world, &self.w) {
                    Flow::Yield(action) => return action,
                    Flow::Done(true) => self.state = WsState::Drain,
                    Flow::Done(false) => self.ship.start(lock, self.instance, self.ship.payload),
                },
            }
        }
    }
}

#[derive(Clone, Copy)]
enum WrState {
    /// Take the next receive-post command, or run a progress pass, or
    /// finish.
    Top,
    /// Posting a commanded receive (see [`Post`]).
    Post,
    /// In a progress pass (see [`Pass`]).
    Pass,
    /// Empty pass: nap before polling again.
    IdleSleep,
}

/// A dedicated receive-side communication thread: posts the receives the
/// application enqueued (no per-thread ordering protocol needed here —
/// a pair's postings are interchangeable in this workload) and runs the
/// progress engine over its dedicated instance, falling back to the rest
/// of the sweep exactly like Algorithm 2.
struct RecvWorker {
    instance: usize,
    total: u64,
    w: Arc<Wiring>,
    state: WrState,
    intake: Intake<usize>,
    post: Post,
    pass: Pass,
}

impl Actor<MrWorld> for RecvWorker {
    fn step(&mut self, resume: Resume, now: u64, world: &mut MrWorld) -> Action {
        loop {
            match self.state {
                WrState::Top => {
                    match self
                        .intake
                        .take(&mut world.cmd_recv, &world.spc, &self.w.cost)
                    {
                        Take::Cmd(id) => {
                            self.post.start(id, &self.w);
                            self.state = WrState::Post;
                        }
                        Take::Refill(action) => return action,
                        Take::Empty => {
                            if world.received >= self.total {
                                return Action::Done;
                            }
                            // Progress pass: dedicated instance first,
                            // then the others once each (Algorithm 2).
                            let plan = Plan::From(self.instance);
                            self.pass.start(self.w.instances, plan, Hold::Free);
                            self.state = WrState::Pass;
                        }
                    }
                }
                WrState::Post => match self.post.step(now, world, &self.w) {
                    Flow::Yield(action) => return action,
                    Flow::Done(()) => self.state = WrState::Top,
                },
                WrState::Pass => {
                    let side = &mut RecvSide { world, w: &self.w };
                    match self.pass.step(resume, now, side) {
                        Flow::Yield(action) => return action,
                        Flow::Done(true) => {
                            self.intake.idle.reset();
                            self.state = WrState::Top;
                        }
                        Flow::Done(false) => {
                            self.state = WrState::IdleSleep;
                            return self.intake.idle_poll(&self.w.cost);
                        }
                    }
                }
                WrState::IdleSleep => {
                    self.state = WrState::Top;
                    return Action::Sleep(self.intake.idle.next_ns());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

/// The periodic scrape callback of [`RunHooks`]: `f(boundary_ns, &spc)`.
pub type ScrapeFn = Box<dyn FnMut(u64, &SpcSet)>;

/// Observation plumbing for one run (all fields optional; the default
/// observes nothing).
///
/// The external-`spc` hook is what connects the MPI_T layer: a caller
/// builds a `fairmpi_mpit::PvarRegistry` over its own `Arc<SpcSet>`,
/// passes a clone here, and every pvar read during and after the run sees
/// the exact cells the simulation updates — no copying, no translation.
#[derive(Default)]
pub struct RunHooks {
    /// Accumulate into this counter set instead of a fresh internal one.
    /// Pass a freshly created set unless deliberately aggregating runs.
    pub spc: Option<Arc<SpcSet>>,
    /// `(interval_ns, f)`: call `f(boundary_ns, &spc)` as virtual time
    /// crosses each interval boundary — the MPI_T-session scrape hook.
    pub scrape: Option<(u64, ScrapeFn)>,
}

impl MultirateSim {
    /// Execute the experiment and report the virtual-time result. Lock and
    /// actor trace tracks carry workload names (`instance[0].send`,
    /// `sender[3]`, ...), so a run under an armed recorder is readable.
    pub fn run(&self) -> MultirateResult {
        self.run_hooked(RunHooks::default())
    }

    /// Full-control variant: external counter set and a periodic scrape
    /// callback (see [`RunHooks`]).
    pub fn run_hooked(&self, hooks: RunHooks) -> MultirateResult {
        assert!(self.pairs >= 1 && self.window >= 1 && self.iterations >= 1);
        let mut design = self.design;
        if design.process_mode {
            // Private resources per pair: one instance and one matching
            // domain each.
            design.instances = self.pairs;
            design.matching = SimMatchLayout::CommPerPair;
        }
        // Offload is a thread-mode design axis: single-threaded processes
        // and big-lock emulations have no command queue to model.
        if design.process_mode || design.big_lock {
            design.offload_workers = 0;
        }
        let instances = design.instances.max(1);
        let cost = self
            .cost
            .unwrap_or_else(|| CostModel::for_fabric(&self.machine.fabric));
        let spc = hooks.spc.unwrap_or_else(|| Arc::new(SpcSet::new()));

        let num_comms = match design.matching {
            SimMatchLayout::SingleComm => 1,
            SimMatchLayout::CommPerPair => self.pairs,
        };
        let matchers: Vec<Matcher> = (0..num_comms)
            .map(|_| Matcher::new(Arc::clone(&spc), design.allow_overtaking))
            .collect();
        let sequencers: Vec<SendSequencer> =
            (0..num_comms).map(|_| SendSequencer::new(1)).collect();

        let world = MrWorld {
            chaos: (design.chaos_drop_pm > 0 || design.chaos_dup_pm > 0).then(|| ChaosWire {
                engine: ChaosEngine::new(
                    FaultPlan::seeded(design.chaos_seed)
                        .drop(design.chaos_drop_pm)
                        .dup(design.chaos_dup_pm),
                ),
                seen: (0..num_comms).map(|_| DedupWindow::new()).collect(),
            }),
            rings: vec![VecDeque::new(); instances],
            matchers,
            sequencers,
            spc: Arc::clone(&spc),
            recv_done: vec![0; self.pairs],
            received: 0,
            cmd_send: VecDeque::new(),
            cmd_recv: VecDeque::new(),
            senders_done: 0,
            rr_send: 0,
            rr_recv: 0,
            rng: Xoshiro256::seed_from_u64(self.seed ^ 0x9E37_79B9),
            scratch: Vec::new(),
        };

        // Two nodes' worth of cores: senders live on node 0, receivers on
        // node 1.
        let mut params = self.machine.sched;
        params.cores = self.machine.sched.cores * 2;
        params.seed = self.seed;
        let mut sim = Sim::new(params, world);

        // Contention profiles. Instance and big locks are pthread-style
        // mutexes with the machine's hand-off penalty: heavily crowded
        // hand-offs go through futex wake-ups (the parked regime) — this is
        // what collapses 20 threads sharing one instance. Matching locks see
        // short bursts (posting windows), so they park later and cheaper.
        // Request pools are atomic LIFOs: hand-offs are cache-line transfers
        // only.
        let (bounce_ns, bounce_cap) = (params.lock_bounce_ns, params.lock_bounce_cap);
        let mutex = |sim: &mut Sim<MrWorld>| sim.add_lock_full(bounce_ns, bounce_cap, 3, 2_200);
        let match_mutex = |sim: &mut Sim<MrWorld>| sim.add_lock_full(60, 8, 6, 700);
        let cas = |sim: &mut Sim<MrWorld>| sim.add_lock_with(25, 8);
        let send_locks: Vec<LockId> = (0..instances).map(|_| mutex(&mut sim)).collect();
        let recv_locks: Vec<LockId> = (0..instances).map(|_| mutex(&mut sim)).collect();
        let match_locks: Vec<LockId> = (0..num_comms).map(|_| match_mutex(&mut sim)).collect();
        let gate = sim.add_lock();
        let big = mutex(&mut sim);
        let num_pools = if design.process_mode { self.pairs } else { 1 };
        let send_pools: Vec<LockId> = (0..num_pools).map(|_| cas(&mut sim)).collect();
        let recv_pools: Vec<LockId> = (0..num_pools).map(|_| cas(&mut sim)).collect();

        for (i, &l) in send_locks.iter().enumerate() {
            sim.name_lock(l, &format!("instance[{i}].send"));
        }
        for (i, &l) in recv_locks.iter().enumerate() {
            sim.name_lock(l, &format!("instance[{i}].recv"));
        }
        for (i, &l) in match_locks.iter().enumerate() {
            sim.name_lock(l, &format!("match[{i}]"));
        }
        sim.name_lock(gate, "progress.gate");
        sim.name_lock(big, "big_lock");
        for (i, &l) in send_pools.iter().enumerate() {
            sim.name_lock(l, &format!("pool.send[{i}]"));
        }
        for (i, &l) in recv_pools.iter().enumerate() {
            sim.name_lock(l, &format!("pool.recv[{i}]"));
        }

        if let Some((interval_ns, mut scrape)) = hooks.scrape {
            let spc = Arc::clone(&spc);
            sim.install_tick_hook(
                interval_ns,
                Box::new(move |boundary_ns, _world| scrape(boundary_ns, &spc)),
            );
        }

        let w = Arc::new(Wiring {
            design,
            cost,
            instances,
            send_locks,
            recv_locks,
            match_locks,
            gate,
            big,
            send_pools,
            recv_pools,
        });
        let per_pair = (self.window * self.iterations) as u64;
        let total = per_pair * self.pairs as u64;

        for pair in 0..self.pairs {
            sim.add_actor_named(
                &format!("sender[{pair}]"),
                Box::new(Sender {
                    pair,
                    comm: w.comm_of(pair),
                    remaining: per_pair,
                    state: SState::Next,
                    w: Arc::clone(&w),
                    payload: 0,
                    ship: Injection::default(),
                }),
            );
            sim.add_actor_named(
                &format!("recv[{pair}]"),
                Box::new(Receiver {
                    id: pair,
                    window: self.window,
                    iterations: self.iterations,
                    w: Arc::clone(&w),
                    state: RState::Idle,
                    posted: 0,
                    wait_target: 0,
                    post: Post::default(),
                    pass: Pass::default(),
                    idle: IdleBackoff::default(),
                }),
            );
        }

        for worker in 0..design.offload_workers {
            sim.add_actor_named(
                &format!("offload.send[{worker}]"),
                Box::new(SendWorker {
                    instance: worker % instances,
                    pairs: self.pairs,
                    w: Arc::clone(&w),
                    state: WsState::Drain,
                    intake: Intake::default(),
                    ship: Injection::default(),
                }),
            );
            sim.add_actor_named(
                &format!("offload.recv[{worker}]"),
                Box::new(RecvWorker {
                    instance: worker % instances,
                    total,
                    w: Arc::clone(&w),
                    state: WrState::Top,
                    intake: Intake::default(),
                    post: Post::default(),
                    pass: Pass::default(),
                }),
            );
        }

        let max_events = total.saturating_mul(400) + 20_000_000;
        let makespan = sim.run(max_events);
        MultirateResult {
            msg_rate_per_s: total as f64 / (makespan as f64 / 1e9),
            makespan_ns: makespan,
            total_messages: total,
            spc: spc.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachinePreset};

    fn sim(pairs: usize, design: SimDesign) -> MultirateSim {
        MultirateSim {
            machine: Machine::preset(MachinePreset::Alembert),
            pairs,
            window: 16,
            iterations: 4,
            design,
            seed: 7,
            cost: None,
        }
    }

    #[test]
    fn single_pair_baseline_completes_all_messages() {
        let r = sim(1, SimDesign::baseline()).run();
        assert_eq!(r.total_messages, 64);
        assert_eq!(r.spc[Counter::MessagesReceived], 64);
        assert!(r.msg_rate_per_s > 0.0);
    }

    #[test]
    fn results_are_deterministic() {
        let a = sim(4, SimDesign::baseline()).run();
        let b = sim(4, SimDesign::baseline()).run();
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(
            a.spc[Counter::OutOfSequenceMessages],
            b.spc[Counter::OutOfSequenceMessages]
        );
    }

    #[test]
    fn concurrent_senders_produce_out_of_sequence_messages() {
        let mut d = SimDesign::baseline();
        d.instances = 8;
        d.assignment = SimAssignment::Dedicated;
        let r = sim(8, d).run();
        assert_eq!(r.spc[Counter::MessagesReceived], r.total_messages);
        assert!(
            r.spc[Counter::OutOfSequenceMessages] > 0,
            "8 senders on one communicator must overtake each other"
        );
    }

    #[test]
    fn comm_per_pair_eliminates_out_of_sequence() {
        let mut d = SimDesign::baseline();
        d.instances = 8;
        d.assignment = SimAssignment::Dedicated;
        d.progress = SimProgress::Concurrent;
        d.matching = SimMatchLayout::CommPerPair;
        let r = sim(8, d).run();
        assert_eq!(r.spc[Counter::MessagesReceived], r.total_messages);
        // One sender per comm, dedicated instance: in-order per stream up
        // to wire jitter; OOS should be rare compared to the shared case.
        let shared = {
            let mut d2 = SimDesign::baseline();
            d2.instances = 8;
            d2.assignment = SimAssignment::Dedicated;
            sim(8, d2).run()
        };
        assert!(
            r.spc[Counter::OutOfSequenceMessages] < shared.spc[Counter::OutOfSequenceMessages] / 4,
            "per-pair comms: {} OOS, shared comm: {} OOS",
            r.spc[Counter::OutOfSequenceMessages],
            shared.spc[Counter::OutOfSequenceMessages]
        );
    }

    #[test]
    fn overtaking_design_never_counts_oos() {
        let mut d = SimDesign::baseline();
        d.instances = 8;
        d.allow_overtaking = true;
        d.any_tag = true;
        let r = sim(8, d).run();
        assert_eq!(r.spc[Counter::OutOfSequenceMessages], 0);
        assert_eq!(r.spc[Counter::MessagesReceived], r.total_messages);
        assert!(r.spc[Counter::OvertakenMessages] > 0);
    }

    #[test]
    fn process_mode_completes_and_scales() {
        let r1 = sim(1, SimDesign::process_mode()).run();
        let r8 = sim(8, SimDesign::process_mode()).run();
        assert_eq!(r8.spc[Counter::MessagesReceived], r8.total_messages);
        // Independent pairs: aggregate rate should grow clearly.
        assert!(
            r8.msg_rate_per_s > 4.0 * r1.msg_rate_per_s,
            "process mode should scale: 1 pair {:.0}/s, 8 pairs {:.0}/s",
            r1.msg_rate_per_s,
            r8.msg_rate_per_s
        );
    }

    #[test]
    fn run_hooked_feeds_external_set_and_scrapes_periodically() {
        use std::sync::Mutex;
        let spc = Arc::new(SpcSet::new());
        let scrapes: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&scrapes);
        let r = sim(2, SimDesign::baseline()).run_hooked(RunHooks {
            spc: Some(Arc::clone(&spc)),
            scrape: Some((
                20_000,
                Box::new(move |t, set| {
                    sink.lock()
                        .unwrap()
                        .push((t, set.get(Counter::MessagesSent)));
                }),
            )),
        });
        // The external set IS the run's set: totals agree exactly.
        assert_eq!(spc.get(Counter::MessagesReceived), r.total_messages);
        assert_eq!(spc.snapshot(), r.spc);
        let scrapes = scrapes.lock().unwrap();
        assert!(!scrapes.is_empty(), "scrape hook must fire");
        assert!(
            scrapes
                .windows(2)
                .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1),
            "boundaries and counter values must be monotonic"
        );
        assert_eq!(scrapes.last().unwrap().1, r.total_messages);
    }

    #[test]
    fn offload_design_completes_and_counts_queue_activity() {
        let spc = Arc::new(SpcSet::new());
        let r = sim(8, SimDesign::offload(2)).run_hooked(RunHooks {
            spc: Some(Arc::clone(&spc)),
            ..RunHooks::default()
        });
        assert_eq!(r.spc[Counter::MessagesReceived], r.total_messages);
        // One send command and one receive-post command per message.
        assert_eq!(r.spc[Counter::OffloadCommands], 2 * r.total_messages);
        assert!(r.spc[Counter::OffloadBatches] >= 2, "workers must batch");
        assert!(
            r.spc[Counter::OffloadBatches] <= r.spc[Counter::OffloadCommands],
            "a batch carries at least one command"
        );
        assert!(spc.watermark(Watermark::OffloadQueueDepth).high() >= 1);
        // Receive-worker passes that went past their own instance, counted
        // where the native engine counts them.
        assert_eq!(r.spc[Counter::ProgressFallbackSweeps], 17);
    }

    #[test]
    fn offload_runs_are_deterministic() {
        let a = sim(6, SimDesign::offload(2)).run();
        let b = sim(6, SimDesign::offload(2)).run();
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.spc, b.spc);
    }

    #[test]
    fn offload_outpaces_the_big_lock_at_high_thread_counts() {
        let pairs = 20;
        let offload = sim(pairs, SimDesign::offload(2)).run();
        let mut big = SimDesign::baseline();
        big.big_lock = true;
        let big = sim(pairs, big).run();
        assert_eq!(
            offload.spc[Counter::MessagesReceived],
            offload.total_messages
        );
        assert!(
            offload.msg_rate_per_s > big.msg_rate_per_s,
            "offload {:.0}/s must beat the big lock {:.0}/s at {pairs} pairs",
            offload.msg_rate_per_s,
            big.msg_rate_per_s
        );
    }

    #[test]
    fn big_lock_design_completes() {
        let mut d = SimDesign::baseline();
        d.big_lock = true;
        let r = sim(4, d).run();
        assert_eq!(r.spc[Counter::MessagesReceived], r.total_messages);
    }

    #[test]
    fn chaos_drops_are_repaired_and_runs_stay_deterministic() {
        let mut d = SimDesign::baseline().chaos(100, 50, 5);
        d.instances = 2;
        d.assignment = SimAssignment::Dedicated;
        d.progress = SimProgress::Concurrent;
        let a = sim(4, d).run();
        assert_eq!(
            a.spc[Counter::MessagesReceived],
            a.total_messages,
            "every message must survive the lossy wire exactly once"
        );
        assert!(a.spc[Counter::ChaosDrops] > 0, "the plan must drop");
        assert!(a.spc[Counter::Retransmits] > 0);
        assert!(a.spc[Counter::RetryBackoffNanos] > 0);
        assert!(a.spc[Counter::ChaosDups] > 0, "the plan must duplicate");
        assert!(a.spc[Counter::DuplicatesSuppressed] > 0);
        let b = sim(4, d).run();
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.spc, b.spc);
    }

    #[test]
    fn chaos_degrades_rate_gracefully_not_to_zero() {
        let clean = sim(4, SimDesign::baseline()).run();
        let lossy = sim(4, SimDesign::baseline().chaos(400, 0, 9)).run();
        assert_eq!(lossy.spc[Counter::MessagesReceived], lossy.total_messages);
        assert!(
            lossy.makespan_ns > clean.makespan_ns,
            "retransmission must cost virtual time"
        );
        assert!(
            lossy.msg_rate_per_s > clean.msg_rate_per_s / 10.0,
            "40% drop must degrade, not collapse: clean {:.0}/s lossy {:.0}/s",
            clean.msg_rate_per_s,
            lossy.msg_rate_per_s
        );
    }

    #[test]
    fn chaos_reaches_the_offload_workers_too() {
        let r = sim(4, SimDesign::offload(2).chaos(100, 50, 13)).run();
        assert_eq!(r.spc[Counter::MessagesReceived], r.total_messages);
        assert!(r.spc[Counter::Retransmits] > 0);
        assert!(r.spc[Counter::DuplicatesSuppressed] > 0);
    }

    #[test]
    fn instance_locks_follow_the_machine_bounce_penalty() {
        let rate = |bounce_ns| {
            let mut s = sim(16, SimDesign::baseline());
            s.window = 32;
            s.machine.sched.lock_bounce_ns = bounce_ns;
            s.run().msg_rate_per_s
        };
        assert!(
            rate(300) < rate(0),
            "16 pairs on one instance must slow down as lock hand-offs cost more"
        );
    }

    #[test]
    fn every_design_combination_terminates() {
        for instances in [1usize, 3] {
            for assignment in [SimAssignment::RoundRobin, SimAssignment::Dedicated] {
                for progress in [SimProgress::Serial, SimProgress::Concurrent] {
                    for matching in [SimMatchLayout::SingleComm, SimMatchLayout::CommPerPair] {
                        for allow in [false, true] {
                            let d = SimDesign {
                                instances,
                                assignment,
                                progress,
                                matching,
                                allow_overtaking: allow,
                                any_tag: allow,
                                big_lock: false,
                                process_mode: false,
                                offload_workers: 0,
                                chaos_drop_pm: 0,
                                chaos_dup_pm: 0,
                                chaos_seed: 0,
                            };
                            let r = MultirateSim {
                                machine: Machine::preset(MachinePreset::Alembert),
                                pairs: 3,
                                window: 8,
                                iterations: 2,
                                design: d,
                                seed: 3,
                                cost: None,
                            }
                            .run();
                            assert_eq!(r.spc[Counter::MessagesReceived], r.total_messages, "{d:?}");
                        }
                    }
                }
            }
        }
    }
}
