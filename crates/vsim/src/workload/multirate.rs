//! Multirate–pairwise under virtual time.
//!
//! N sender threads on rank 0 stream 0-byte messages to N receiver threads
//! on rank 1 (paper Fig. 2, thread↔thread mode; process mode replaces the
//! threads with independent single-threaded processes). The actors run the
//! **real** matching engine and the **real** send-side sequence counters;
//! only time, locks and cores are virtual. Out-of-sequence percentages and
//! match times (Table II) therefore come out of the actual data structures.

use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use fairmpi_chaos::XorShift64;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use fairmpi_fabric::{Envelope, Packet, ANY_TAG};
use fairmpi_matching::{MatchEvent, Matcher, PostOutcome, PostedRecv, SendSequencer};
use fairmpi_spc::{Counter, Histogram, SpcSeries, SpcSet, SpcSnapshot, Watermark};

use crate::cost::CostModel;
use crate::engine::{Action, Actor, LockId, Resume, Sim, WorldAccess};
use crate::machine::Machine;
use crate::workload::{SimAssignment, SimProgress};

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

const DRAIN_BATCH: usize = 32;

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

/// The simulated lossy wire: the fault schedule's own deterministic RNG
/// stream (never the scheduler's — arming chaos must not perturb the
/// jitter draws of an otherwise identical run) plus the receiver-side
/// duplicate-suppression set.
struct ChaosWire {
    rng: XorShift64,
    drop_pm: u16,
    dup_pm: u16,
    /// Payload words already matched once (dedup key: the packed
    /// (comm, tag, seq) word, unique per logical message).
    seen: HashSet<u64>,
}

/// What the chaos wire did to one shipped frame.
#[derive(Clone, Copy, PartialEq, Eq)]
enum WireVerdict {
    Deliver,
    Drop,
    Duplicate,
}

/// Shared state: receiver rings, the real matchers and sequencers.
pub(crate) struct MrWorld {
    design: SimDesign,
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
    rng: SmallRng,
    scratch: Vec<MatchEvent>,
}

impl WorldAccess for MrWorld {
    fn deliver(&mut self, mailbox: usize, payload: u64) {
        self.rings[mailbox].push_back(payload);
        self.spc
            .record_level(Watermark::InstanceRxDepth, self.rings[mailbox].len() as u64);
    }
}

impl MrWorld {
    fn matcher_index(&self, comm: u32) -> usize {
        match self.design.matching {
            SimMatchLayout::SingleComm => 0,
            SimMatchLayout::CommPerPair => comm as usize,
        }
    }

    fn jitter(&mut self, max: u64) -> u64 {
        if max == 0 {
            0
        } else {
            self.rng.gen_range(0..=max)
        }
    }

    fn note_received(&mut self, token: usize) {
        self.recv_done[token] += 1;
        self.received += 1;
    }

    /// Lock-free command enqueue (the whole point: no lock action here).
    /// Returns false — after counting a backpressure stall — when full.
    fn offload_enqueue(&mut self, cmd: OffloadCmd) -> bool {
        let queue_len = match cmd {
            OffloadCmd::Send(payload) => {
                if self.cmd_send.len() >= OFFLOAD_QUEUE_CAP {
                    self.spc.inc(Counter::OffloadBackpressureStalls);
                    return false;
                }
                self.cmd_send.push_back(payload);
                self.cmd_send.len()
            }
            OffloadCmd::Recv(id) => {
                if self.cmd_recv.len() >= OFFLOAD_QUEUE_CAP {
                    self.spc.inc(Counter::OffloadBackpressureStalls);
                    return false;
                }
                self.cmd_recv.push_back(id);
                self.cmd_recv.len()
            }
        };
        self.spc.inc(Counter::OffloadCommands);
        self.spc
            .record_level(Watermark::OffloadQueueDepth, queue_len as u64);
        true
    }

    /// Pop up to `DRAIN_BATCH` packets from one instance ring into `batch`;
    /// returns the extraction cost.
    fn extract_into(&mut self, instance: usize, batch: &mut Vec<u64>, cost: &CostModel) -> u64 {
        batch.clear();
        let ring = &mut self.rings[instance];
        while batch.len() < DRAIN_BATCH {
            match ring.pop_front() {
                Some(p) => batch.push(p),
                None => break,
            }
        }
        self.spc
            .add(Counter::CompletionsDrained, batch.len() as u64);
        self.spc
            .record_hist(Histogram::DrainBatchSize, batch.len() as u64);
        cost.extraction_ns * batch.len() as u64
    }

    /// Wire verdict for one shipped frame: a single per-mille draw with
    /// cumulative bands, mutually exclusive, exactly like the native
    /// fabric's chaos hook.
    fn chaos_ship(&mut self) -> WireVerdict {
        let Some(chaos) = &mut self.chaos else {
            return WireVerdict::Deliver;
        };
        let r = chaos.rng.draw_pm();
        if r < chaos.drop_pm {
            self.spc.inc(Counter::ChaosDrops);
            WireVerdict::Drop
        } else if r < chaos.drop_pm + chaos.dup_pm {
            self.spc.inc(Counter::ChaosDups);
            WireVerdict::Duplicate
        } else {
            WireVerdict::Deliver
        }
    }

    /// Deliver one drained packet through the real matcher; returns the
    /// virtual cost of the work performed and the completions it produced.
    fn match_deliver(&mut self, payload: u64, cost: &CostModel) -> (u64, usize) {
        if let Some(chaos) = &mut self.chaos {
            // Reliable-transport dedup: a duplicated frame is recognized
            // and discarded before it reaches the matcher, for no more
            // than its extraction cost.
            if !chaos.seen.insert(payload) {
                self.spc.inc(Counter::DuplicatesSuppressed);
                return (cost.extraction_ns, 0);
            }
        }
        let packet = unpack(payload);
        let idx = self.matcher_index(packet.envelope.comm);
        let mut events = std::mem::take(&mut self.scratch);
        events.clear();
        let work = self.matchers[idx].deliver(packet, &mut events);
        let mut got = 0;
        for ev in events.drain(..) {
            self.note_received(ev.token as usize);
            got += 1;
        }
        self.scratch = events;
        let cost_ns = cost.match_time_ns(&work);
        self.spc.add(Counter::MatchTimeNanos, cost_ns);
        (cost_ns, got)
    }
}

/// A simulated offload command descriptor.
enum OffloadCmd {
    /// A packed send payload, ready to inject.
    Send(u64),
    /// "Post one receive for receiver `id`".
    Recv(usize),
}

#[derive(Clone)]
struct Wiring {
    instances: usize,
    wire_latency: u64,
    jitter: u64,
    big: LockId,
    /// Send-side request-pool locks (one per process: a single entry in
    /// thread mode, one per pair in process mode).
    send_pools: Arc<[LockId]>,
    /// Receive-side request-pool locks.
    recv_pools: Arc<[LockId]>,
}

impl Wiring {
    fn send_pool(&self, pair: usize) -> LockId {
        self.send_pools[pair % self.send_pools.len()]
    }
    fn recv_pool(&self, pair: usize) -> LockId {
        self.recv_pools[pair % self.recv_pools.len()]
    }
}

// ---------------------------------------------------------------------
// Sender actor
// ---------------------------------------------------------------------

enum SState {
    /// Pick the next message (draw seq) or finish.
    Next,
    /// Software overhead charged; grab the shared request pool.
    PoolAcquire,
    /// Pool held: charge the allocation.
    PoolCharge,
    /// Release the pool, then go for the instance.
    PoolRelease,
    /// Acquire the instance (or big) lock.
    Acquire,
    /// Lock granted; charge injection.
    Inject,
    /// Injection done; ship on the wire.
    Ship,
    /// Chaos duplicated the frame: post the second copy.
    ShipDup,
    /// Chaos dropped the frame: the (virtual) ack timeout elapsed with
    /// nothing to show; back off, then re-acquire and re-inject.
    RetryBackoff,
    /// Shipped; release the lock.
    Release,
    /// Offload mode: lock-free enqueue onto the command queue (retried
    /// with a short nap when the queue is full — backpressure).
    OffloadEnqueue,
}

struct Sender {
    pair: usize,
    comm: u32,
    remaining: u64,
    state: SState,
    cost: CostModel,
    design: SimDesign,
    wiring: Wiring,
    send_locks: Arc<[LockId]>,
    cur_instance: usize,
    cur_payload: u64,
    /// Retransmit attempts for the in-hand frame (chaos only).
    attempt: u32,
}

impl Sender {
    fn lock_id(&self) -> LockId {
        if self.design.big_lock {
            self.wiring.big
        } else {
            self.send_locks[self.cur_instance]
        }
    }
}

impl Actor<MrWorld> for Sender {
    fn step(&mut self, _resume: Resume, _now: u64, world: &mut MrWorld) -> Action {
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
                // other and produce out-of-sequence arrivals. (In offload
                // mode the draw happens at enqueue time, in program order,
                // exactly like the native runtime.)
                let seq = world.sequencers[world.matcher_index(self.comm)].next(0);
                self.cur_payload = pack(self.comm, self.pair as u16, seq);
                self.state = if self.design.big_lock {
                    // The big lock already serializes everything; the
                    // pool is not a separate bottleneck there.
                    SState::Acquire
                } else if self.design.offload_workers > 0 {
                    // Offload: the descriptor *is* the command-ring slot,
                    // so submission never touches the process-shared
                    // request pool — the serialization that pins every
                    // other thread-mode design to the pool ceiling.
                    SState::OffloadEnqueue
                } else {
                    SState::PoolAcquire
                };
                Action::Compute(self.cost.send_software_ns)
            }
            SState::PoolAcquire => {
                self.state = SState::PoolCharge;
                Action::Lock(self.wiring.send_pool(self.pair))
            }
            SState::PoolCharge => {
                self.state = SState::PoolRelease;
                Action::Compute(self.cost.request_pool_ns)
            }
            SState::PoolRelease => {
                self.state = if self.design.offload_workers > 0 {
                    SState::OffloadEnqueue
                } else {
                    SState::Acquire
                };
                Action::Unlock(self.wiring.send_pool(self.pair))
            }
            SState::OffloadEnqueue => {
                if world.offload_enqueue(OffloadCmd::Send(self.cur_payload)) {
                    self.state = SState::Next;
                    Action::Compute(self.cost.offload_enqueue_ns)
                } else {
                    // Queue full: nap and retry (the Yield backpressure
                    // policy). The descriptor and its seq are kept.
                    Action::Sleep(500)
                }
            }
            SState::Acquire => {
                self.cur_instance = if self.design.process_mode {
                    self.pair % self.wiring.instances
                } else {
                    match self.design.assignment {
                        SimAssignment::Dedicated => self.pair % self.wiring.instances,
                        SimAssignment::RoundRobin => {
                            world.rr_send += 1;
                            (world.rr_send - 1) as usize % self.wiring.instances
                        }
                    }
                };
                self.state = SState::Inject;
                Action::Lock(self.lock_id())
            }
            SState::Inject => {
                self.state = SState::Ship;
                Action::Compute(self.cost.injection_time_ns(0, 28))
            }
            SState::Ship => {
                // A unique message counts as sent on its first injection,
                // whatever the wire then does to it; retransmits don't.
                if self.attempt == 0 {
                    world.spc.inc(Counter::MessagesSent);
                }
                match world.chaos_ship() {
                    WireVerdict::Drop => {
                        // The sender only learns of the loss when the ack
                        // timeout fires: release the instance and back off.
                        self.state = SState::RetryBackoff;
                        Action::Unlock(self.lock_id())
                    }
                    verdict => {
                        let delay = self.wiring.wire_latency + world.jitter(self.wiring.jitter);
                        self.attempt = 0;
                        self.state = if verdict == WireVerdict::Duplicate {
                            SState::ShipDup
                        } else {
                            SState::Release
                        };
                        Action::Post {
                            mailbox: self.cur_instance,
                            payload: self.cur_payload,
                            delay_ns: delay,
                        }
                    }
                }
            }
            SState::ShipDup => {
                let delay = self.wiring.wire_latency + world.jitter(self.wiring.jitter);
                self.state = SState::Release;
                Action::Post {
                    mailbox: self.cur_instance,
                    payload: self.cur_payload,
                    delay_ns: delay,
                }
            }
            SState::RetryBackoff => {
                let backoff = self.cost.retransmit_timeout_ns << self.attempt.min(6);
                self.attempt += 1;
                world.spc.inc(Counter::Retransmits);
                world.spc.add(Counter::RetryBackoffNanos, backoff);
                self.state = SState::Acquire;
                Action::Sleep(backoff)
            }
            SState::Release => {
                self.state = SState::Next;
                Action::Unlock(self.lock_id())
            }
        }
    }
}

// ---------------------------------------------------------------------
// Receiver actor
// ---------------------------------------------------------------------

enum RState {
    /// Top of the loop: post, progress, or finish.
    Idle,
    /// Grab the receive-side request pool before posting.
    PoolAcquire,
    /// Pool held: charge the allocation.
    PoolCharge,
    /// Release the pool.
    PoolRelease,
    /// Acquire the match lock to post one receive.
    PostLock,
    /// Holding the match lock: post through the real matcher, charge.
    PostCharge,
    /// Release the match lock after posting.
    PostUnlock,
    /// Begin one progress pass.
    Progress,
    /// Serial mode: result of the global gate try-lock.
    GateTried,
    /// Result of an instance try-lock (both progress designs; the gate
    /// holder also try-locks, skipping instances busy with senders).
    ConcTried,
    /// Holding an instance lock: extract a batch, charge extraction.
    Extract,
    /// Release the instance lock, then match the batch.
    InstanceUnlock,
    /// Acquire the match lock for the next drained packet.
    MatchLock,
    /// Holding the match lock: deliver through the real matcher, charge.
    MatchCharge,
    /// Release the match lock, continue the batch.
    MatchUnlock,
    /// Batch finished: advance the sweep or end the pass.
    NextInstance,
    /// Serial mode: release the gate at the end of the pass.
    ReleaseGate,
    /// Big-lock mode: acquire the global critical section for the pass.
    BigAcquire,
    /// Big-lock mode: extract from the next instance (no inner locks).
    BigExtract,
    /// Big-lock mode: match the batch (no inner locks).
    BigMatch,
    /// Big-lock mode: release the critical section.
    BigRelease,
    /// Nothing found: charge an empty poll.
    IdlePoll,
    /// Then yield the core.
    IdleYield,
    /// Offload mode: lock-free enqueue of a receive-post command.
    OffloadPost,
}

struct Receiver {
    id: usize,
    comm: u32,
    tag: i32,
    window: usize,
    iterations: usize,
    cost: CostModel,
    design: SimDesign,
    wiring: Wiring,
    recv_locks: Arc<[LockId]>,
    match_locks: Arc<[LockId]>,
    gate: LockId,
    state: RState,
    posted: u64,
    wait_target: u64,
    sweep: Vec<usize>,
    sweep_pos: usize,
    cur_instance: usize,
    batch: Vec<u64>,
    batch_pos: usize,
    got_this_pass: usize,
    holding_gate: bool,
    /// When the current match-lock acquisition started, for charging lock
    /// wait into the match-time counter (as OMPI's SPC does).
    match_wait_from: u64,
    /// Consecutive empty progress passes, for poll backoff.
    idle_streak: u32,
}

impl Receiver {
    fn total(&self) -> u64 {
        (self.window * self.iterations) as u64
    }

    fn match_lock_for(&self, comm: u32) -> LockId {
        match self.design.matching {
            SimMatchLayout::SingleComm => self.match_locks[0],
            SimMatchLayout::CommPerPair => self.match_locks[comm as usize],
        }
    }

    fn plan_sweep(&mut self, world: &mut MrWorld, all: bool) {
        self.sweep.clear();
        self.sweep_pos = 0;
        self.got_this_pass = 0;
        if self.design.process_mode {
            self.sweep.push(self.id % self.wiring.instances);
            return;
        }
        if all {
            self.sweep.extend(0..self.wiring.instances);
            return;
        }
        // Algorithm 2: assigned instance first, then round-robin fallback.
        let first = match self.design.assignment {
            SimAssignment::Dedicated => self.id % self.wiring.instances,
            SimAssignment::RoundRobin => {
                world.rr_recv += 1;
                (world.rr_recv - 1) as usize % self.wiring.instances
            }
        };
        for off in 0..self.wiring.instances {
            self.sweep.push((first + off) % self.wiring.instances);
        }
    }

    fn extract_batch(&mut self, world: &mut MrWorld) -> u64 {
        self.batch_pos = 0;
        world.extract_into(self.cur_instance, &mut self.batch, &self.cost)
    }

    /// Deliver one drained packet through the real matcher; returns the
    /// virtual cost of the work actually performed.
    fn match_one(&mut self, world: &mut MrWorld) -> u64 {
        let payload = self.batch[self.batch_pos];
        self.batch_pos += 1;
        let (cost, got) = world.match_deliver(payload, &self.cost);
        self.got_this_pass += got;
        cost
    }

    /// After a batch: where to next? Also books the pass as useful or
    /// wasted (the polling-overhead share the paper's designs trade off).
    fn end_of_pass_state(&mut self, world: &mut MrWorld) -> RState {
        if self.got_this_pass == 0 {
            world.spc.inc(Counter::ProgressWastedPasses);
            RState::IdlePoll
        } else {
            world.spc.inc(Counter::ProgressUsefulPasses);
            self.idle_streak = 0;
            RState::Idle
        }
    }

    /// Exponential poll backoff, capped: idle receivers must not dominate
    /// the event budget, and real progress polls also cool down under
    /// `sched_yield`.
    fn backoff_ns(&mut self) -> u64 {
        let ns = 150u64.saturating_mul(1 << self.idle_streak.min(7));
        self.idle_streak += 1;
        ns.min(20_000)
    }
}

impl Actor<MrWorld> for Receiver {
    fn step(&mut self, resume: Resume, _now: u64, world: &mut MrWorld) -> Action {
        loop {
            match self.state {
                RState::Idle => {
                    let done = world.recv_done[self.id];
                    if done >= self.total() {
                        return Action::Done;
                    }
                    if self.posted < self.total() && done >= self.wait_target {
                        self.state = if self.design.big_lock {
                            RState::PostLock
                        } else if self.design.offload_workers > 0 {
                            // Offload: the recv descriptor rides in the
                            // ring slot; no shared-pool visit.
                            RState::OffloadPost
                        } else {
                            RState::PoolAcquire
                        };
                        return Action::Compute(self.cost.recv_software_ns);
                    }
                    // Offload: the workers progress; the application thread
                    // only polls its completion queue (an empty-poll charge
                    // plus backoff — the CQ read is the cqe cost).
                    self.state = if self.design.offload_workers > 0 {
                        RState::IdlePoll
                    } else {
                        RState::Progress
                    };
                }
                RState::PoolAcquire => {
                    self.state = RState::PoolCharge;
                    return Action::Lock(self.wiring.recv_pool(self.id));
                }
                RState::PoolCharge => {
                    self.state = RState::PoolRelease;
                    return Action::Compute(self.cost.request_pool_ns);
                }
                RState::PoolRelease => {
                    self.state = if self.design.offload_workers > 0 {
                        RState::OffloadPost
                    } else {
                        RState::PostLock
                    };
                    return Action::Unlock(self.wiring.recv_pool(self.id));
                }
                RState::OffloadPost => {
                    if world.offload_enqueue(OffloadCmd::Recv(self.id)) {
                        self.posted += 1;
                        if self.posted.is_multiple_of(self.window as u64) {
                            self.wait_target = self.posted;
                        }
                        self.idle_streak = 0;
                        self.state = RState::Idle;
                        return Action::Compute(self.cost.offload_enqueue_ns);
                    }
                    return Action::Sleep(500);
                }
                RState::PostLock => {
                    self.state = RState::PostCharge;
                    self.match_wait_from = _now;
                    if self.design.big_lock {
                        return Action::Lock(self.wiring.big);
                    }
                    return Action::Lock(self.match_lock_for(self.comm));
                }
                RState::PostCharge => {
                    let recv = PostedRecv {
                        token: self.id as u64,
                        comm: self.comm,
                        src: 0,
                        tag: if self.design.any_tag {
                            ANY_TAG
                        } else {
                            self.tag
                        },
                    };
                    let idx = world.matcher_index(self.comm);
                    let (outcome, work) = world.matchers[idx].post_recv(recv);
                    if let PostOutcome::Matched(_) = outcome {
                        world.note_received(self.id);
                    }
                    self.posted += 1;
                    if self.posted.is_multiple_of(self.window as u64) {
                        self.wait_target = self.posted;
                    }
                    let cost = self.cost.match_time_ns(&work);
                    // Match time includes the wait for the matching lock,
                    // as in OMPI's SPC (the Table II number).
                    world.spc.add(
                        Counter::MatchTimeNanos,
                        cost + (_now - self.match_wait_from),
                    );
                    self.state = RState::PostUnlock;
                    return Action::Compute(cost);
                }
                RState::PostUnlock => {
                    self.state = RState::Idle;
                    if self.design.big_lock {
                        return Action::Unlock(self.wiring.big);
                    }
                    return Action::Unlock(self.match_lock_for(self.comm));
                }
                RState::Progress => {
                    world.spc.inc(Counter::ProgressCalls);
                    if self.design.big_lock {
                        self.state = RState::BigAcquire;
                        continue;
                    }
                    if self.design.process_mode {
                        self.plan_sweep(world, false);
                        self.cur_instance = self.sweep[0];
                        self.state = RState::ConcTried;
                        return Action::TryLock(self.recv_locks[self.cur_instance]);
                    }
                    match self.design.progress {
                        SimProgress::Serial => {
                            self.state = RState::GateTried;
                            return Action::TryLock(self.gate);
                        }
                        SimProgress::Concurrent => {
                            self.plan_sweep(world, false);
                            self.cur_instance = self.sweep[0];
                            self.state = RState::ConcTried;
                            return Action::TryLock(self.recv_locks[self.cur_instance]);
                        }
                    }
                }
                RState::GateTried => {
                    let Resume::TryLockResult(got) = resume else {
                        unreachable!("gate resume must carry a try-lock result");
                    };
                    if !got {
                        // Someone else is progressing; bail out like
                        // opal_progress.
                        self.state = RState::IdlePoll;
                        continue;
                    }
                    self.holding_gate = true;
                    self.plan_sweep(world, true);
                    self.cur_instance = self.sweep[0];
                    self.state = RState::ConcTried;
                    // The gate holder try-locks each instance: an instance
                    // busy with a sender is skipped and revisited on the
                    // next pass rather than queued behind the convoy.
                    return Action::TryLock(self.recv_locks[self.cur_instance]);
                }
                RState::ConcTried => {
                    let Resume::TryLockResult(got) = resume else {
                        unreachable!("instance resume must carry a try-lock result");
                    };
                    if !got {
                        world.spc.inc(Counter::InstanceTryLockFailures);
                        self.state = RState::NextInstance;
                        continue;
                    }
                    self.state = RState::Extract;
                }
                RState::Extract => {
                    let cost = self.extract_batch(world);
                    self.state = RState::InstanceUnlock;
                    return Action::Compute(cost);
                }
                RState::InstanceUnlock => {
                    self.state = RState::MatchLock;
                    return Action::Unlock(self.recv_locks[self.cur_instance]);
                }
                RState::MatchLock => {
                    if self.batch_pos >= self.batch.len() {
                        self.state = RState::NextInstance;
                        continue;
                    }
                    let comm = payload_comm(self.batch[self.batch_pos]);
                    self.state = RState::MatchCharge;
                    self.match_wait_from = _now;
                    return Action::Lock(self.match_lock_for(comm));
                }
                RState::MatchCharge => {
                    let cost = self.match_one(world);
                    world
                        .spc
                        .add(Counter::MatchTimeNanos, _now - self.match_wait_from);
                    self.state = RState::MatchUnlock;
                    return Action::Compute(cost);
                }
                RState::MatchUnlock => {
                    let comm = payload_comm(self.batch[self.batch_pos - 1]);
                    self.state = RState::MatchLock;
                    return Action::Unlock(self.match_lock_for(comm));
                }
                RState::NextInstance => {
                    self.sweep_pos += 1;
                    // Algorithm 2 ends the fallback sweep at the first
                    // instance that yielded completions; the serial gate
                    // holder sweeps everything.
                    let early_stop = !self.holding_gate && self.got_this_pass > 0;
                    if self.sweep_pos >= self.sweep.len() || early_stop {
                        if self.holding_gate {
                            self.state = RState::ReleaseGate;
                        } else {
                            self.state = self.end_of_pass_state(world);
                        }
                        continue;
                    }
                    self.cur_instance = self.sweep[self.sweep_pos];
                    self.state = RState::ConcTried;
                    return Action::TryLock(self.recv_locks[self.cur_instance]);
                }
                RState::ReleaseGate => {
                    self.holding_gate = false;
                    self.state = self.end_of_pass_state(world);
                    return Action::Unlock(self.gate);
                }
                RState::BigAcquire => {
                    self.plan_sweep(world, true);
                    self.state = RState::BigExtract;
                    return Action::Lock(self.wiring.big);
                }
                RState::BigExtract => {
                    if self.sweep_pos >= self.sweep.len() {
                        self.state = RState::BigRelease;
                        continue;
                    }
                    self.cur_instance = self.sweep[self.sweep_pos];
                    let cost = self.extract_batch(world);
                    self.state = RState::BigMatch;
                    return Action::Compute(cost);
                }
                RState::BigMatch => {
                    if self.batch_pos >= self.batch.len() {
                        self.sweep_pos += 1;
                        self.state = RState::BigExtract;
                        continue;
                    }
                    let cost = self.match_one(world);
                    return Action::Compute(cost);
                }
                RState::BigRelease => {
                    self.state = self.end_of_pass_state(world);
                    return Action::Unlock(self.wiring.big);
                }
                RState::IdlePoll => {
                    self.state = RState::IdleYield;
                    return Action::Compute(self.cost.poll_empty_ns);
                }
                RState::IdleYield => {
                    self.state = RState::Idle;
                    return Action::Sleep(self.backoff_ns());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Offload worker actors
// ---------------------------------------------------------------------

fn worker_backoff_ns(idle_streak: &mut u32) -> u64 {
    let ns = 150u64.saturating_mul(1 << (*idle_streak).min(7));
    *idle_streak += 1;
    ns.min(20_000)
}

enum WsState {
    /// Refill the local batch from the command queue (or execute it).
    Drain,
    /// Nothing queued: nap before polling again.
    IdleSleep,
    /// Take the dedicated instance lock (uncontended: one worker owns it).
    Acquire,
    /// Lock held: charge injection.
    Inject,
    /// Ship on the wire.
    Ship,
    /// Chaos duplicated the frame: post the second copy.
    ShipDup,
    /// Chaos dropped the frame: back off, then re-acquire and re-inject.
    RetryBackoff,
    /// Release the instance.
    Release,
}

/// A dedicated send-side communication thread: batch-drains the command
/// queue and injects through its own instance. Application threads never
/// touch instance locks in offload mode — this actor is the only sender
/// contending (with nobody) for `instance[w].send`.
struct SendWorker {
    instance: usize,
    pairs: usize,
    cost: CostModel,
    wiring: Wiring,
    send_locks: Arc<[LockId]>,
    state: WsState,
    batch: VecDeque<u64>,
    cur_payload: u64,
    idle_streak: u32,
    was_idle: bool,
    /// Retransmit attempts for the in-hand frame (chaos only).
    attempt: u32,
}

impl Actor<MrWorld> for SendWorker {
    fn step(&mut self, _resume: Resume, _now: u64, world: &mut MrWorld) -> Action {
        loop {
            match self.state {
                WsState::Drain => {
                    if let Some(p) = self.batch.pop_front() {
                        self.cur_payload = p;
                        self.state = WsState::Acquire;
                        continue;
                    }
                    let mut popped = 0u64;
                    while (popped as usize) < DRAIN_BATCH {
                        match world.cmd_send.pop_front() {
                            Some(p) => {
                                self.batch.push_back(p);
                                popped += 1;
                            }
                            None => break,
                        }
                    }
                    if popped > 0 {
                        world.spc.inc(Counter::OffloadBatches);
                        let wake = if self.was_idle {
                            self.cost.offload_wakeup_ns
                        } else {
                            0
                        };
                        self.was_idle = false;
                        self.idle_streak = 0;
                        return Action::Compute(wake + self.cost.offload_drain_ns * popped);
                    }
                    if world.senders_done == self.pairs {
                        return Action::Done;
                    }
                    self.was_idle = true;
                    self.state = WsState::IdleSleep;
                    return Action::Compute(self.cost.poll_empty_ns);
                }
                WsState::IdleSleep => {
                    self.state = WsState::Drain;
                    return Action::Sleep(worker_backoff_ns(&mut self.idle_streak));
                }
                WsState::Acquire => {
                    self.state = WsState::Inject;
                    return Action::Lock(self.send_locks[self.instance]);
                }
                WsState::Inject => {
                    self.state = WsState::Ship;
                    return Action::Compute(self.cost.injection_time_ns(0, 28));
                }
                WsState::Ship => {
                    // First injection of a unique message counts as sent;
                    // retransmits don't.
                    if self.attempt == 0 {
                        world.spc.inc(Counter::MessagesSent);
                    }
                    match world.chaos_ship() {
                        WireVerdict::Drop => {
                            self.state = WsState::RetryBackoff;
                            return Action::Unlock(self.send_locks[self.instance]);
                        }
                        verdict => {
                            let delay = self.wiring.wire_latency + world.jitter(self.wiring.jitter);
                            self.attempt = 0;
                            self.state = if verdict == WireVerdict::Duplicate {
                                WsState::ShipDup
                            } else {
                                WsState::Release
                            };
                            return Action::Post {
                                mailbox: self.instance,
                                payload: self.cur_payload,
                                delay_ns: delay,
                            };
                        }
                    }
                }
                WsState::ShipDup => {
                    let delay = self.wiring.wire_latency + world.jitter(self.wiring.jitter);
                    self.state = WsState::Release;
                    return Action::Post {
                        mailbox: self.instance,
                        payload: self.cur_payload,
                        delay_ns: delay,
                    };
                }
                WsState::RetryBackoff => {
                    let backoff = self.cost.retransmit_timeout_ns << self.attempt.min(6);
                    self.attempt += 1;
                    world.spc.inc(Counter::Retransmits);
                    world.spc.add(Counter::RetryBackoffNanos, backoff);
                    self.state = WsState::Acquire;
                    return Action::Sleep(backoff);
                }
                WsState::Release => {
                    self.state = WsState::Drain;
                    return Action::Unlock(self.send_locks[self.instance]);
                }
            }
        }
    }
}

enum WrState {
    /// Drain receive-post commands, or run a progress pass, or finish.
    Top,
    /// Acquire the match lock to post one commanded receive.
    PostLock,
    /// Holding the match lock: post through the real matcher.
    PostCharge,
    /// Release the match lock.
    PostUnlock,
    /// Result of an instance try-lock during the progress sweep.
    ConcTried,
    /// Holding an instance lock: extract a batch.
    Extract,
    /// Release the instance, then match the batch.
    InstanceUnlock,
    /// Acquire the match lock for the next drained packet.
    MatchLock,
    /// Holding the match lock: deliver through the real matcher.
    MatchCharge,
    /// Release the match lock, continue the batch.
    MatchUnlock,
    /// Batch finished: advance the sweep or end the pass.
    NextInstance,
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
    cost: CostModel,
    design: SimDesign,
    wiring: Wiring,
    recv_locks: Arc<[LockId]>,
    match_locks: Arc<[LockId]>,
    state: WrState,
    cmds: VecDeque<usize>,
    cur_post: usize,
    sweep: Vec<usize>,
    sweep_pos: usize,
    cur_instance: usize,
    batch: Vec<u64>,
    batch_pos: usize,
    got_this_pass: usize,
    match_wait_from: u64,
    idle_streak: u32,
    was_idle: bool,
}

impl RecvWorker {
    fn comm_for(&self, id: usize) -> u32 {
        match self.design.matching {
            SimMatchLayout::SingleComm => 0,
            SimMatchLayout::CommPerPair => id as u32,
        }
    }

    fn match_lock_for(&self, comm: u32) -> LockId {
        match self.design.matching {
            SimMatchLayout::SingleComm => self.match_locks[0],
            SimMatchLayout::CommPerPair => self.match_locks[comm as usize],
        }
    }
}

impl Actor<MrWorld> for RecvWorker {
    fn step(&mut self, resume: Resume, _now: u64, world: &mut MrWorld) -> Action {
        loop {
            match self.state {
                WrState::Top => {
                    if let Some(id) = self.cmds.pop_front() {
                        self.cur_post = id;
                        self.state = WrState::PostLock;
                        continue;
                    }
                    let mut popped = 0u64;
                    while (popped as usize) < DRAIN_BATCH {
                        match world.cmd_recv.pop_front() {
                            Some(id) => {
                                self.cmds.push_back(id);
                                popped += 1;
                            }
                            None => break,
                        }
                    }
                    if popped > 0 {
                        world.spc.inc(Counter::OffloadBatches);
                        let wake = if self.was_idle {
                            self.cost.offload_wakeup_ns
                        } else {
                            0
                        };
                        self.was_idle = false;
                        self.idle_streak = 0;
                        return Action::Compute(wake + self.cost.offload_drain_ns * popped);
                    }
                    if world.received >= self.total {
                        return Action::Done;
                    }
                    // Progress pass: dedicated instance first, round-robin
                    // fallback over the others (Algorithm 2).
                    world.spc.inc(Counter::ProgressCalls);
                    self.sweep.clear();
                    self.sweep_pos = 0;
                    self.got_this_pass = 0;
                    for off in 0..self.wiring.instances {
                        self.sweep
                            .push((self.instance + off) % self.wiring.instances);
                    }
                    self.cur_instance = self.sweep[0];
                    self.state = WrState::ConcTried;
                    return Action::TryLock(self.recv_locks[self.cur_instance]);
                }
                WrState::PostLock => {
                    self.state = WrState::PostCharge;
                    self.match_wait_from = _now;
                    return Action::Lock(self.match_lock_for(self.comm_for(self.cur_post)));
                }
                WrState::PostCharge => {
                    let comm = self.comm_for(self.cur_post);
                    let recv = PostedRecv {
                        token: self.cur_post as u64,
                        comm,
                        src: 0,
                        tag: if self.design.any_tag {
                            ANY_TAG
                        } else {
                            self.cur_post as i32
                        },
                    };
                    let idx = world.matcher_index(comm);
                    let (outcome, work) = world.matchers[idx].post_recv(recv);
                    if let PostOutcome::Matched(_) = outcome {
                        world.note_received(self.cur_post);
                    }
                    let cost = self.cost.match_time_ns(&work);
                    world.spc.add(
                        Counter::MatchTimeNanos,
                        cost + (_now - self.match_wait_from),
                    );
                    self.state = WrState::PostUnlock;
                    return Action::Compute(cost);
                }
                WrState::PostUnlock => {
                    self.state = WrState::Top;
                    return Action::Unlock(self.match_lock_for(self.comm_for(self.cur_post)));
                }
                WrState::ConcTried => {
                    let Resume::TryLockResult(got) = resume else {
                        unreachable!("instance resume must carry a try-lock result");
                    };
                    if !got {
                        world.spc.inc(Counter::InstanceTryLockFailures);
                        self.state = WrState::NextInstance;
                        continue;
                    }
                    self.state = WrState::Extract;
                }
                WrState::Extract => {
                    self.batch_pos = 0;
                    let cost = world.extract_into(self.cur_instance, &mut self.batch, &self.cost);
                    self.state = WrState::InstanceUnlock;
                    return Action::Compute(cost);
                }
                WrState::InstanceUnlock => {
                    self.state = WrState::MatchLock;
                    return Action::Unlock(self.recv_locks[self.cur_instance]);
                }
                WrState::MatchLock => {
                    if self.batch_pos >= self.batch.len() {
                        self.state = WrState::NextInstance;
                        continue;
                    }
                    let comm = payload_comm(self.batch[self.batch_pos]);
                    self.state = WrState::MatchCharge;
                    self.match_wait_from = _now;
                    return Action::Lock(self.match_lock_for(comm));
                }
                WrState::MatchCharge => {
                    let payload = self.batch[self.batch_pos];
                    self.batch_pos += 1;
                    let (cost, got) = world.match_deliver(payload, &self.cost);
                    self.got_this_pass += got;
                    world
                        .spc
                        .add(Counter::MatchTimeNanos, _now - self.match_wait_from);
                    self.state = WrState::MatchUnlock;
                    return Action::Compute(cost);
                }
                WrState::MatchUnlock => {
                    let comm = payload_comm(self.batch[self.batch_pos - 1]);
                    self.state = WrState::MatchLock;
                    return Action::Unlock(self.match_lock_for(comm));
                }
                WrState::NextInstance => {
                    self.sweep_pos += 1;
                    let early_stop = self.got_this_pass > 0;
                    if self.sweep_pos >= self.sweep.len() || early_stop {
                        if self.got_this_pass == 0 {
                            world.spc.inc(Counter::ProgressWastedPasses);
                            self.was_idle = true;
                            self.state = WrState::IdleSleep;
                            return Action::Compute(self.cost.poll_empty_ns);
                        }
                        world.spc.inc(Counter::ProgressUsefulPasses);
                        self.idle_streak = 0;
                        self.state = WrState::Top;
                        continue;
                    }
                    self.cur_instance = self.sweep[self.sweep_pos];
                    self.state = WrState::ConcTried;
                    return Action::TryLock(self.recv_locks[self.cur_instance]);
                }
                WrState::IdleSleep => {
                    self.state = WrState::Top;
                    return Action::Sleep(worker_backoff_ns(&mut self.idle_streak));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

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
    /// Sample the counter set every this many virtual ns into an
    /// [`SpcSeries`].
    pub series_interval_ns: Option<u64>,
    /// `(interval_ns, f)`: call `f(boundary_ns, &spc)` as virtual time
    /// crosses each interval boundary — the MPI_T-session scrape hook.
    #[allow(clippy::type_complexity)]
    pub scrape: Option<(u64, Box<dyn FnMut(u64, &SpcSet)>)>,
}

impl MultirateSim {
    /// Execute the experiment and report the virtual-time result.
    pub fn run(&self) -> MultirateResult {
        self.run_observed(None).0
    }

    /// Like [`run`](Self::run), but optionally sample the SPC set every
    /// `series_interval_ns` of virtual time for a rate time-series. Lock
    /// and actor trace tracks carry workload names (`instance[0].send`,
    /// `sender[3]`, ...) either way; the series costs nothing when tracing
    /// or sampling is off.
    pub fn run_observed(
        &self,
        series_interval_ns: Option<u64>,
    ) -> (MultirateResult, Option<SpcSeries>) {
        self.run_hooked(RunHooks {
            series_interval_ns,
            ..RunHooks::default()
        })
    }

    /// Full-control variant: external counter set, SPC series and a
    /// periodic scrape callback (see [`RunHooks`]).
    pub fn run_hooked(&self, hooks: RunHooks) -> (MultirateResult, Option<SpcSeries>) {
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
        let series_interval_ns = hooks.series_interval_ns;

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
            design,
            chaos: (design.chaos_drop_pm > 0 || design.chaos_dup_pm > 0).then(|| ChaosWire {
                rng: XorShift64::new(design.chaos_seed),
                drop_pm: design.chaos_drop_pm,
                dup_pm: design.chaos_dup_pm,
                seen: HashSet::new(),
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
            rng: SmallRng::seed_from_u64(self.seed ^ 0x9E37_79B9),
            scratch: Vec::new(),
        };

        // Two nodes' worth of cores: senders live on node 0, receivers on
        // node 1.
        let mut params = self.machine.sched;
        params.cores = self.machine.sched.cores * 2;
        params.seed = self.seed;
        let mut sim = Sim::new(params, world);

        // Contention profiles. Instance and big locks are pthread-style
        // mutexes: heavily crowded hand-offs go through futex wake-ups
        // (the parked regime) — this is what collapses 20 threads sharing
        // one instance. Matching locks see short bursts (posting windows),
        // so they park later and cheaper. Request pools are atomic LIFOs:
        // hand-offs are cache-line transfers only.
        let mutex = |sim: &mut Sim<MrWorld>| sim.add_lock_full(70, 16, 3, 2_200);
        let match_mutex = |sim: &mut Sim<MrWorld>| sim.add_lock_full(60, 8, 6, 700);
        let cas = |sim: &mut Sim<MrWorld>| sim.add_lock_with(25, 8);
        let send_locks: Arc<[LockId]> = (0..instances).map(|_| mutex(&mut sim)).collect();
        let recv_locks: Arc<[LockId]> = (0..instances).map(|_| mutex(&mut sim)).collect();
        let match_locks: Arc<[LockId]> = (0..num_comms).map(|_| match_mutex(&mut sim)).collect();
        let gate = sim.add_lock();
        let big = mutex(&mut sim);
        let num_pools = if design.process_mode { self.pairs } else { 1 };
        let send_pools: Arc<[LockId]> = (0..num_pools).map(|_| cas(&mut sim)).collect();
        let recv_pools: Arc<[LockId]> = (0..num_pools).map(|_| cas(&mut sim)).collect();

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

        let series = series_interval_ns.map(|ns| Rc::new(RefCell::new(SpcSeries::new(ns))));
        if let Some(series) = &series {
            let series = Rc::clone(series);
            let spc = Arc::clone(&spc);
            sim.add_tick_hook(
                series_interval_ns.unwrap(),
                Box::new(move |boundary_ns, _world| {
                    series.borrow_mut().sample(boundary_ns, &spc);
                }),
            );
        }
        if let Some((interval_ns, mut scrape)) = hooks.scrape {
            let spc = Arc::clone(&spc);
            sim.add_tick_hook(
                interval_ns,
                Box::new(move |boundary_ns, _world| scrape(boundary_ns, &spc)),
            );
        }

        let wiring = Wiring {
            instances,
            wire_latency: cost.wire_latency_ns,
            jitter: cost.delivery_jitter_ns,
            big,
            send_pools,
            recv_pools,
        };
        let per_pair = (self.window * self.iterations) as u64;

        for pair in 0..self.pairs {
            let comm = match design.matching {
                SimMatchLayout::SingleComm => 0u32,
                SimMatchLayout::CommPerPair => pair as u32,
            };
            sim.add_actor_named(
                &format!("sender[{pair}]"),
                Box::new(Sender {
                    pair,
                    comm,
                    remaining: per_pair,
                    state: SState::Next,
                    cost,
                    design,
                    wiring: wiring.clone(),
                    send_locks: Arc::clone(&send_locks),
                    cur_instance: 0,
                    cur_payload: 0,
                    attempt: 0,
                }),
            );
            sim.add_actor_named(
                &format!("recv[{pair}]"),
                Box::new(Receiver {
                    id: pair,
                    comm,
                    tag: pair as i32,
                    window: self.window,
                    iterations: self.iterations,
                    cost,
                    design,
                    wiring: wiring.clone(),
                    recv_locks: Arc::clone(&recv_locks),
                    match_locks: Arc::clone(&match_locks),
                    gate,
                    state: RState::Idle,
                    posted: 0,
                    wait_target: 0,
                    sweep: Vec::new(),
                    sweep_pos: 0,
                    cur_instance: 0,
                    batch: Vec::with_capacity(DRAIN_BATCH),
                    batch_pos: 0,
                    got_this_pass: 0,
                    holding_gate: false,
                    match_wait_from: 0,
                    idle_streak: 0,
                }),
            );
        }

        for w in 0..design.offload_workers {
            sim.add_actor_named(
                &format!("offload.send[{w}]"),
                Box::new(SendWorker {
                    instance: w % instances,
                    pairs: self.pairs,
                    cost,
                    wiring: wiring.clone(),
                    send_locks: Arc::clone(&send_locks),
                    state: WsState::Drain,
                    batch: VecDeque::with_capacity(DRAIN_BATCH),
                    cur_payload: 0,
                    idle_streak: 0,
                    was_idle: false,
                    attempt: 0,
                }),
            );
            sim.add_actor_named(
                &format!("offload.recv[{w}]"),
                Box::new(RecvWorker {
                    instance: w % instances,
                    total: per_pair * self.pairs as u64,
                    cost,
                    design,
                    wiring: wiring.clone(),
                    recv_locks: Arc::clone(&recv_locks),
                    match_locks: Arc::clone(&match_locks),
                    state: WrState::Top,
                    cmds: VecDeque::with_capacity(DRAIN_BATCH),
                    cur_post: 0,
                    sweep: Vec::new(),
                    sweep_pos: 0,
                    cur_instance: 0,
                    batch: Vec::with_capacity(DRAIN_BATCH),
                    batch_pos: 0,
                    got_this_pass: 0,
                    match_wait_from: 0,
                    idle_streak: 0,
                    was_idle: false,
                }),
            );
        }

        let total = per_pair * self.pairs as u64;
        let max_events = total.saturating_mul(400) + 20_000_000;
        let makespan = sim.run(max_events);
        drop(sim); // release the tick hook's Rc clone
        let result = MultirateResult {
            msg_rate_per_s: total as f64 / (makespan as f64 / 1e9),
            makespan_ns: makespan,
            total_messages: total,
            spc: spc.snapshot(),
        };
        let series = series.map(|s| {
            Rc::try_unwrap(s)
                .expect("tick hook dropped with the sim")
                .into_inner()
        });
        (result, series)
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
        let (r, series) = sim(2, SimDesign::baseline()).run_hooked(RunHooks {
            spc: Some(Arc::clone(&spc)),
            series_interval_ns: None,
            scrape: Some((
                20_000,
                Box::new(move |t, set| {
                    sink.lock()
                        .unwrap()
                        .push((t, set.get(Counter::MessagesSent)));
                }),
            )),
        });
        assert!(series.is_none());
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
        let (r, _) = sim(8, SimDesign::offload(2)).run_hooked(RunHooks {
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
