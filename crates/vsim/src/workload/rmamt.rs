//! RMA-MT under virtual time.
//!
//! Paper §IV-F: N benchmark threads, each bound to a core, perform 1000
//! `MPI_Put` operations per message size and then synchronize with
//! `MPI_Win_flush`. One-sided traffic needs no matching; the only points of
//! contention are the instances themselves, which is why dedicated
//! assignment scales almost perfectly while a single shared instance
//! collapses (Figs. 6 and 7).
//!
//! The flush runs the simulator's one progress pass (`workload::Pass`)
//! over the origin's completion queues: a CQE completes at extraction and
//! leaves nothing to match. Under dedicated assignment a pass visits the
//! thread's own instance only. Under round-robin it sweeps them all: from
//! a freshly assigned instance under concurrent progress, or, under
//! serial progress, behind the global gate, whose holder try-locks each
//! instance as the native engine's does. Each flush pass counts one
//! progress call and books one useful or wasted pass.

use std::collections::VecDeque;
use std::sync::Arc;

use fairmpi_progress::Plan;
use fairmpi_spc::{Counter, SpcSet, SpcSnapshot};

use crate::cost::CostModel;
use crate::engine::{Action, Actor, LockId, Resume, Sim, WorldAccess};
use crate::machine::Machine;
use crate::workload::{
    Drain, Flow, Hold, IdleBackoff, Pass, SimAssignment, SimProgress, DRAIN_BATCH,
};

/// An RMA-MT experiment (one message size).
#[derive(Debug, Clone)]
pub struct RmamtSim {
    /// Simulated testbed.
    pub machine: Machine,
    /// Origin-side threads issuing puts.
    pub threads: usize,
    /// Payload bytes per put.
    pub msg_size: usize,
    /// Puts per thread before the flush (paper: 1000).
    pub ops_per_thread: usize,
    /// Instances on the origin rank (1 = the "single" series; the paper's
    /// ugni BTL defaults to one per core).
    pub instances: usize,
    /// Instance assignment strategy.
    pub assignment: SimAssignment,
    /// Progress-engine design used while flushing.
    pub progress: SimProgress,
    /// RNG seed.
    pub seed: u64,
}

/// Result of one RMA-MT run.
#[derive(Debug, Clone)]
pub struct RmamtResult {
    /// Aggregate put rate over the virtual makespan, after the shared-link
    /// capacity cap.
    pub msg_rate_per_s: f64,
    /// The same rate before applying the link cap (diagnostic).
    pub uncapped_rate_per_s: f64,
    /// Link-level theoretical peak for this message size (the black line).
    pub theoretical_peak_per_s: f64,
    /// Virtual makespan in nanoseconds.
    pub makespan_ns: u64,
    /// Total puts.
    pub total_ops: u64,
    /// Origin-side counters.
    pub spc: SpcSnapshot,
}

/// Shared state: per-instance origin completion queues.
struct RmaWorld {
    cqs: Vec<VecDeque<u64>>,
    /// Outstanding ops per thread.
    pending: Vec<u64>,
    rr: u64,
    spc: Arc<SpcSet>,
}

impl WorldAccess for RmaWorld {
    fn deliver(&mut self, mailbox: usize, payload: u64) {
        self.cqs[mailbox].push_back(payload);
    }
}

/// The origin's completion queues as one flush [`Pass`] drains them: a
/// CQE completes at extraction and leaves nothing to match.
struct OriginCqs<'a> {
    world: &'a mut RmaWorld,
    locks: &'a [LockId],
    cqe_drain_ns: u64,
}

impl Drain for OriginCqs<'_> {
    fn spc(&self) -> &SpcSet {
        &self.world.spc
    }

    fn instance_lock(&self, k: usize) -> LockId {
        self.locks[k]
    }

    fn extract(&mut self, k: usize, _batch: &mut Vec<u64>) -> (u64, usize) {
        let world = &mut *self.world;
        let n = world.cqs[k].len().min(DRAIN_BATCH);
        for owner in world.cqs[k].drain(..n) {
            world.pending[owner as usize] -= 1;
        }
        ((self.cqe_drain_ns * n as u64).max(1), n)
    }

    fn match_lock(&self, _item: u64) -> LockId {
        unreachable!("a CQE leaves nothing to match")
    }

    fn match_item(&mut self, _item: u64) -> (u64, usize) {
        unreachable!("a CQE leaves nothing to match")
    }
}

enum PState {
    /// Issue the next put, or move to the flush.
    Next,
    /// Acquire the chosen instance.
    Inject,
    /// Charge injection (DMA) time under the lock.
    PostCompletion,
    /// Release the instance.
    Release,
    /// Flush: check pending, run progress passes until drained.
    Flush,
    /// In a flush pass (see [`Pass`]).
    Pass,
    /// Nothing drained anywhere: charge an idle poll, then yield.
    IdlePoll,
    IdleYield,
}

struct Putter {
    id: usize,
    remaining: u64,
    msg_size: usize,
    state: PState,
    cost: CostModel,
    assignment: SimAssignment,
    progress: SimProgress,
    instances: usize,
    inst_locks: Arc<[LockId]>,
    gate: LockId,
    wire_latency: u64,
    cur_instance: usize,
    pass: Pass,
    idle: IdleBackoff,
}

impl Putter {
    fn pick_instance(&self, world: &mut RmaWorld) -> usize {
        self.assignment.pick(self.id, self.instances, &mut world.rr)
    }
}

impl Actor<RmaWorld> for Putter {
    fn step(&mut self, resume: Resume, now: u64, world: &mut RmaWorld) -> Action {
        loop {
            match self.state {
                PState::Next => {
                    if self.remaining == 0 {
                        self.state = PState::Flush;
                        continue;
                    }
                    self.remaining -= 1;
                    self.cur_instance = self.pick_instance(world);
                    self.state = PState::Inject;
                    return Action::Lock(self.inst_locks[self.cur_instance]);
                }
                PState::Inject => {
                    self.state = PState::PostCompletion;
                    return Action::Compute(self.cost.injection_time_ns(self.msg_size, 0));
                }
                PState::PostCompletion => {
                    world.pending[self.id] += 1;
                    world.spc.inc(Counter::RmaPuts);
                    self.state = PState::Release;
                    // The origin-side completion surfaces on this
                    // instance's CQ after the wire round-trips the ack.
                    return Action::Post {
                        mailbox: self.cur_instance,
                        payload: self.id as u64,
                        delay_ns: self.wire_latency * 2,
                    };
                }
                PState::Release => {
                    self.state = PState::Next;
                    return Action::Unlock(self.inst_locks[self.cur_instance]);
                }
                PState::Flush => {
                    if world.pending[self.id] == 0 {
                        world.spc.inc(Counter::RmaFlushes);
                        return Action::Done;
                    }
                    let (plan, hold) = match (self.assignment, self.progress) {
                        // Dedicated assignment: all our completions are on
                        // our own instance, so flush drains it directly
                        // (the BTL's local RDMA completion path — this is
                        // why the paper sees little difference between
                        // serial and concurrent progress for one-sided
                        // traffic).
                        (SimAssignment::Dedicated, _) => {
                            (Plan::Only(self.id % self.instances), Hold::Free)
                        }
                        // Round-robin scattered the completions
                        // everywhere; a full sweep is needed — serialized
                        // behind the global gate under serial progress.
                        (SimAssignment::RoundRobin, SimProgress::Serial) => {
                            (Plan::All, Hold::Gate(self.gate))
                        }
                        (SimAssignment::RoundRobin, SimProgress::Concurrent) => {
                            (Plan::From(self.pick_instance(world)), Hold::Free)
                        }
                    };
                    self.pass.start(self.instances, plan, hold);
                    self.state = PState::Pass;
                }
                PState::Pass => {
                    let cqs = &mut OriginCqs {
                        world,
                        locks: &self.inst_locks,
                        cqe_drain_ns: self.cost.cqe_drain_ns,
                    };
                    match self.pass.step(resume, now, cqs) {
                        Flow::Yield(action) => return action,
                        Flow::Done(true) => {
                            self.idle.reset();
                            self.state = PState::Flush;
                        }
                        Flow::Done(false) => self.state = PState::IdlePoll,
                    }
                }
                PState::IdlePoll => {
                    self.state = PState::IdleYield;
                    return Action::Compute(self.cost.poll_empty_ns);
                }
                PState::IdleYield => {
                    self.state = PState::Flush;
                    return Action::Sleep(self.idle.next_ns());
                }
            }
        }
    }
}

impl RmamtSim {
    /// Link-level theoretical peak for this size (the black line in the
    /// paper's figures).
    pub fn theoretical_peak(&self) -> f64 {
        CostModel::for_fabric(&self.machine.fabric).link_peak_msg_rate(self.msg_size, 0)
    }

    /// Execute the experiment.
    pub fn run(&self) -> RmamtResult {
        assert!(self.threads >= 1 && self.ops_per_thread >= 1 && self.instances >= 1);
        let cost = CostModel::for_fabric(&self.machine.fabric);
        let spc = Arc::new(SpcSet::new());
        let instances = self.machine.fabric.clamp_contexts(self.instances);

        let world = RmaWorld {
            cqs: vec![VecDeque::new(); instances],
            pending: vec![0; self.threads],
            rr: 0,
            spc: Arc::clone(&spc),
        };

        let mut params = self.machine.sched;
        params.seed = self.seed;
        let mut sim = Sim::new(params, world);
        let inst_locks: Arc<[LockId]> = (0..instances).map(|_| sim.add_lock()).collect();
        let gate = sim.add_lock();

        for id in 0..self.threads {
            sim.add_actor(Box::new(Putter {
                id,
                remaining: self.ops_per_thread as u64,
                msg_size: self.msg_size,
                state: PState::Next,
                cost,
                assignment: self.assignment,
                progress: self.progress,
                instances,
                inst_locks: Arc::clone(&inst_locks),
                gate,
                wire_latency: cost.wire_latency_ns,
                cur_instance: 0,
                pass: Pass::default(),
                idle: IdleBackoff::default(),
            }));
        }

        let total = (self.threads * self.ops_per_thread) as u64;
        let makespan = sim.run(total.saturating_mul(400) + 20_000_000);
        let uncapped = total as f64 / (makespan as f64 / 1e9);
        let peak = self.theoretical_peak();
        RmamtResult {
            msg_rate_per_s: uncapped.min(peak),
            uncapped_rate_per_s: uncapped,
            theoretical_peak_per_s: peak,
            makespan_ns: makespan,
            total_ops: total,
            spc: spc.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachinePreset};

    fn sim(threads: usize, instances: usize, assignment: SimAssignment) -> RmamtSim {
        RmamtSim {
            machine: Machine::preset(MachinePreset::TrinititeHaswell),
            threads,
            msg_size: 1,
            ops_per_thread: 100,
            instances,
            assignment,
            progress: SimProgress::Serial,
            seed: 11,
        }
    }

    #[test]
    fn all_puts_complete() {
        let r = sim(4, 4, SimAssignment::Dedicated).run();
        assert_eq!(r.total_ops, 400);
        assert_eq!(r.spc[Counter::RmaPuts], 400);
        assert_eq!(r.spc[Counter::RmaFlushes], 4);
    }

    #[test]
    fn dedicated_scales_with_threads() {
        let r1 = sim(1, 32, SimAssignment::Dedicated).run();
        let r16 = sim(16, 32, SimAssignment::Dedicated).run();
        assert!(
            r16.msg_rate_per_s > 8.0 * r1.msg_rate_per_s,
            "dedicated should scale: 1 thr {:.0}/s vs 16 thr {:.0}/s",
            r1.msg_rate_per_s,
            r16.msg_rate_per_s
        );
    }

    #[test]
    fn single_instance_degrades_under_threads() {
        let r1 = sim(1, 1, SimAssignment::Dedicated).run();
        let r16 = sim(16, 1, SimAssignment::Dedicated).run();
        assert!(
            r16.msg_rate_per_s < 1.5 * r1.msg_rate_per_s,
            "one shared instance cannot scale: {:.0}/s vs {:.0}/s",
            r1.msg_rate_per_s,
            r16.msg_rate_per_s
        );
    }

    #[test]
    fn dedicated_beats_round_robin() {
        let d = sim(16, 32, SimAssignment::Dedicated).run();
        let rr = sim(16, 32, SimAssignment::RoundRobin).run();
        assert!(
            d.msg_rate_per_s > rr.msg_rate_per_s,
            "dedicated {:.0}/s must beat round-robin {:.0}/s",
            d.msg_rate_per_s,
            rr.msg_rate_per_s
        );
    }

    #[test]
    fn large_messages_hit_the_bandwidth_peak() {
        let mut s = sim(16, 32, SimAssignment::Dedicated);
        s.msg_size = 16 * 1024;
        let r = s.run();
        assert!(
            r.msg_rate_per_s <= r.theoretical_peak_per_s + 1.0,
            "rate can never exceed the link peak"
        );
        assert!(
            r.msg_rate_per_s > 0.5 * r.theoretical_peak_per_s,
            "16 KiB puts from 16 threads should saturate the link: \
             {:.0}/s of peak {:.0}/s",
            r.msg_rate_per_s,
            r.theoretical_peak_per_s
        );
    }

    #[test]
    fn deterministic() {
        let a = sim(8, 8, SimAssignment::RoundRobin).run();
        let b = sim(8, 8, SimAssignment::RoundRobin).run();
        assert_eq!(a.makespan_ns, b.makespan_ns);
    }

    #[test]
    fn aries_context_cap_applies() {
        // Requesting more instances than the Aries hardware limit clamps.
        let mut s = sim(4, 4096, SimAssignment::Dedicated);
        s.ops_per_thread = 10;
        let r = s.run();
        assert_eq!(r.spc[Counter::RmaPuts], 40, "still completes");
    }
}
