//! Deterministic fault injection for the fairmpi fabric, and the
//! workspace's seeded generators.
//!
//! A [`FaultPlan`] is a small, copyable description of what should go wrong:
//! per-mille probabilities for packet drop / duplication / reordering /
//! delay, a probability of transient injection refusal (the software analog
//! of CQ-full / `ENOBUFS`), and an optional permanent context death. Plans
//! are seeded and their draws come from [`rng::XorShift64`], so a given
//! plan replays the same fault schedule every run — chaos tests are
//! ordinary deterministic tests.
//!
//! The plan itself is policy; the [`ChaosEngine`] is the mechanism. The
//! fabric owns one engine per world and consults it at the two boundaries
//! faults occur in real interconnects: when a sender *injects* (refusal) and
//! when the wire *delivers* (drop / dup / reorder / delay, plus the kill
//! trigger). Everything above the fabric — retransmission, failover,
//! watchdogs — reacts to the injected faults exactly as it would to real
//! ones.
//!
//! The [`recovery`] module repairs what the engine breaks: the retransmit
//! backoff and the receiver's [`DedupWindow`].
//!
//! The [`rng`] module owns every random stream in the workspace: the
//! xoshiro256\*\* generator behind the simulator and the property tests,
//! and the xorshift64 behind the fault schedules. Both stay because
//! committed results replay their exact draws (see the module doc). This
//! crate holds them because it is the lowest one every consumer reaches.

pub mod recovery;
pub mod rng;

pub use recovery::{retransmit_backoff_ns, DedupWindow};

use fairmpi_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use rng::XorShift64;

/// Per-mille denominator used by every probability knob.
pub const PM_SCALE: u16 = 1000;

/// Permanent death of one network context: after the fabric has observed
/// `after` sends, context `context` of rank `rank` stops accepting traffic
/// forever. Models a NIC port / endpoint failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KillSpec {
    /// Victim rank.
    pub rank: u32,
    /// Victim context index within that rank.
    pub context: usize,
    /// Number of fabric sends observed before the kill fires.
    pub after: u64,
}

/// A seeded description of everything that should go wrong on the fabric.
///
/// All probabilities are per-mille (`0..=1000`). The default plan injects
/// nothing; builders switch individual fault classes on. The retry knobs
/// (`timeout_ns`, `max_retries`) ride along so a single plan fully
/// determines both the faults and the recovery policy reacting to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed for the fault schedule.
    pub seed: u64,
    /// Per-mille probability a delivered packet is silently dropped.
    pub drop_pm: u16,
    /// Per-mille probability a delivered packet arrives twice.
    pub dup_pm: u16,
    /// Per-mille probability a packet is held back and released after a
    /// later packet (reordering).
    pub reorder_pm: u16,
    /// Per-mille probability an injection attempt is transiently refused
    /// (CQ-full / `ENOBUFS`); the sender must back off and retry.
    pub refuse_pm: u16,
    /// Per-mille probability a packet is delayed by `delay_ns`.
    pub delay_pm: u16,
    /// Extra latency applied to delayed packets.
    pub delay_ns: u64,
    /// Optional permanent context death.
    pub kill: Option<KillSpec>,
    /// Base retransmit timeout (real nanoseconds on the native path).
    pub timeout_ns: u64,
    /// Retransmit attempts before a send fails with `RetryExhausted`.
    pub max_retries: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 1,
            drop_pm: 0,
            dup_pm: 0,
            reorder_pm: 0,
            refuse_pm: 0,
            delay_pm: 0,
            delay_ns: 0,
            kill: None,
            timeout_ns: 200_000,
            max_retries: 20,
        }
    }
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled yet.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Set the drop probability (per-mille).
    pub fn drop(mut self, pm: u16) -> Self {
        self.drop_pm = pm.min(PM_SCALE);
        self
    }

    /// Set the duplication probability (per-mille).
    pub fn dup(mut self, pm: u16) -> Self {
        self.dup_pm = pm.min(PM_SCALE);
        self
    }

    /// Set the reorder probability (per-mille).
    pub fn reorder(mut self, pm: u16) -> Self {
        self.reorder_pm = pm.min(PM_SCALE);
        self
    }

    /// Set the transient injection-refusal probability (per-mille).
    pub fn refuse(mut self, pm: u16) -> Self {
        self.refuse_pm = pm.min(PM_SCALE);
        self
    }

    /// Set the delay probability (per-mille) and magnitude.
    pub fn delay(mut self, pm: u16, ns: u64) -> Self {
        self.delay_pm = pm.min(PM_SCALE);
        self.delay_ns = ns;
        self
    }

    /// Kill `context` of `rank` after `after` observed sends.
    pub fn kill(mut self, rank: u32, context: usize, after: u64) -> Self {
        self.kill = Some(KillSpec {
            rank,
            context,
            after,
        });
        self
    }

    /// Override the base retransmit timeout.
    pub fn timeout_ns(mut self, ns: u64) -> Self {
        self.timeout_ns = ns.max(1);
        self
    }

    /// Override the retry budget.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// True if the plan can actually perturb anything. Inert plans are
    /// treated as "chaos off" so the happy path stays bit-identical.
    pub fn is_active(&self) -> bool {
        self.drop_pm > 0
            || self.dup_pm > 0
            || self.reorder_pm > 0
            || self.refuse_pm > 0
            || self.delay_pm > 0
            || self.kill.is_some()
    }
}

/// What the wire decided to do with one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver normally.
    Deliver,
    /// Drop silently; only retransmission recovers it.
    Drop,
    /// Deliver twice; the receiver must suppress the duplicate.
    Duplicate,
    /// Hold back and release after a later packet.
    Reorder,
    /// Deliver after an extra delay of the given nanoseconds.
    Delay(u64),
}

/// The thread-safe runtime of a [`FaultPlan`].
///
/// One xorshift state advanced with an atomic `fetch_update` serves all
/// threads: on the single-threaded vsim path the schedule is exactly
/// reproducible; on the native path the *set* of faults drawn is seeded but
/// their assignment to packets depends on thread interleaving, which is the
/// point — the recovery machinery must cope with any assignment. The
/// atomics are `fairmpi_sync`'s, so under the model checker every draw and
/// every observed send is a scheduling decision point.
#[derive(Debug)]
pub struct ChaosEngine {
    plan: FaultPlan,
    state: AtomicU64,
    observed: AtomicU64,
    kill_fired: AtomicBool,
}

impl ChaosEngine {
    /// Build the engine for a plan.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            state: AtomicU64::new(XorShift64::new(plan.seed).state),
            observed: AtomicU64::new(0),
            kill_fired: AtomicBool::new(false),
        }
    }

    /// One atomic per-mille draw shared by all threads.
    fn draw_pm(&self) -> u16 {
        let next = self
            .state
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| Some(rng::step(s)))
            .map(rng::step)
            .expect("fetch_update with Some never fails");
        rng::per_mille(next)
    }

    /// Should this injection attempt be transiently refused (CQ-full)?
    pub fn decide_refusal(&self) -> bool {
        self.plan.refuse_pm > 0 && self.draw_pm() < self.plan.refuse_pm
    }

    /// What happens to one packet on the wire. Fault classes are bands of a
    /// single draw, so their probabilities are exact and mutually exclusive.
    pub fn decide_delivery(&self) -> Delivery {
        let p = &self.plan;
        let bands = p.drop_pm + p.dup_pm + p.reorder_pm + p.delay_pm;
        if bands == 0 {
            return Delivery::Deliver;
        }
        let r = self.draw_pm();
        if r < p.drop_pm {
            Delivery::Drop
        } else if r < p.drop_pm + p.dup_pm {
            Delivery::Duplicate
        } else if r < p.drop_pm + p.dup_pm + p.reorder_pm {
            Delivery::Reorder
        } else if r < bands {
            Delivery::Delay(p.delay_ns)
        } else {
            Delivery::Deliver
        }
    }

    /// Record one observed fabric send and return the kill spec exactly
    /// once, when the observation count crosses its trigger.
    pub fn observe_send(&self) -> Option<KillSpec> {
        let n = self.observed.fetch_add(1, Ordering::Relaxed) + 1;
        let kill = self.plan.kill?;
        if n > kill.after && !self.kill_fired.swap(true, Ordering::Relaxed) {
            return Some(kill);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::seeded(3);
        assert!(!plan.is_active());
        let engine = ChaosEngine::new(plan);
        for _ in 0..100 {
            assert_eq!(engine.decide_delivery(), Delivery::Deliver);
            assert!(!engine.decide_refusal());
        }
    }

    #[test]
    fn certain_drop_always_drops() {
        let engine = ChaosEngine::new(FaultPlan::seeded(5).drop(1000));
        for _ in 0..100 {
            assert_eq!(engine.decide_delivery(), Delivery::Drop);
        }
    }

    #[test]
    fn bands_are_mutually_exclusive_and_roughly_proportional() {
        let engine = ChaosEngine::new(FaultPlan::seeded(9).drop(100).dup(100).delay(100, 5_000));
        let mut drops = 0;
        let mut dups = 0;
        let mut delays = 0;
        let mut clean = 0;
        for _ in 0..10_000 {
            match engine.decide_delivery() {
                Delivery::Drop => drops += 1,
                Delivery::Duplicate => dups += 1,
                Delivery::Delay(ns) => {
                    assert_eq!(ns, 5_000);
                    delays += 1;
                }
                Delivery::Reorder => panic!("reorder band is zero"),
                Delivery::Deliver => clean += 1,
            }
        }
        for count in [drops, dups, delays] {
            assert!(
                (500..2_000).contains(&count),
                "a 10% band over 10k draws should land near 1000, got {count}"
            );
        }
        assert!(clean > 6_000);
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::seeded(0xFA17).drop(250).dup(250);
        let a = ChaosEngine::new(plan);
        let b = ChaosEngine::new(plan);
        for _ in 0..1000 {
            assert_eq!(a.decide_delivery(), b.decide_delivery());
        }
    }

    #[test]
    fn kill_fires_exactly_once_after_threshold() {
        let engine = ChaosEngine::new(FaultPlan::seeded(1).kill(1, 0, 3));
        let mut fired = Vec::new();
        for i in 0..10 {
            if let Some(k) = engine.observe_send() {
                fired.push((i, k));
            }
        }
        assert_eq!(fired.len(), 1, "kill must fire exactly once");
        let (at, kill) = fired[0];
        assert_eq!(at, 3, "kill fires on the first send past `after`");
        assert_eq!((kill.rank, kill.context, kill.after), (1, 0, 3));
        assert_eq!(ChaosEngine::new(FaultPlan::seeded(1)).observe_send(), None);
    }

    // Environment-driven plan construction lives in `fairmpi::env`
    // (`fault_plan_from_env`), tested there.
}
