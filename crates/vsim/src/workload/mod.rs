//! Workload actors for the paper's two benchmarks.

use fairmpi_progress::{Plan, Sweep};
use fairmpi_spc::{Counter, Histogram, SpcSet};

use crate::engine::{Action, LockId, Resume};

pub mod multirate;
pub mod rmamt;

/// Most items one progress-pass visit extracts from an instance, and most
/// commands an offload worker takes off its queue at once.
pub(crate) const DRAIN_BATCH: usize = 32;

/// CRI assignment strategy (paper Algorithm 1), mirrored for the simulated
/// designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimAssignment {
    /// A fresh instance per operation from a shared circular counter.
    RoundRobin,
    /// Thread-local sticky assignment (thread *i* → instance `i % n`).
    Dedicated,
}

impl SimAssignment {
    /// The instance thread `id` uses for its next operation: its own one
    /// under dedicated assignment, the next one off the shared circular
    /// counter `rr` under round-robin.
    pub(crate) fn pick(self, id: usize, instances: usize, rr: &mut u64) -> usize {
        match self {
            SimAssignment::Dedicated => id % instances,
            SimAssignment::RoundRobin => {
                *rr += 1;
                (*rr - 1) as usize % instances
            }
        }
    }
}

/// Progress-engine design (paper Algorithm 2 vs the original serial one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimProgress {
    /// One global progress gate; a single thread extracts at a time.
    Serial,
    /// Every thread extracts; per-instance try-locks, dedicated-first.
    Concurrent,
}

/// Exponential idle-poll backoff: 150 ns, doubling with each consecutive
/// idle poll up to 2⁷ × 150 ns = 19.2 µs. Idle pollers must not dominate
/// the event budget, and real progress polls also cool down under
/// `sched_yield`.
#[derive(Debug, Default)]
pub(crate) struct IdleBackoff {
    streak: u32,
}

impl IdleBackoff {
    /// The next nap; lengthens the streak.
    pub(crate) fn next_ns(&mut self) -> u64 {
        let ns = 150 << self.streak.min(7);
        self.streak += 1;
        ns
    }

    /// Work was found: the next idle streak starts from the shortest nap.
    pub(crate) fn reset(&mut self) {
        self.streak = 0;
    }
}

/// A phase's answer to one step: an action to yield, or the phase's end
/// (reported on the step after its last action completed). Each phase's
/// `step` is inlined into its callers: as an outlined call the extra
/// dispatch cost ≈ 7 % of simulator CPU time (`diag 20 20 concurrent
/// perpair`).
pub(crate) enum Flow<T> {
    Yield(Action),
    Done(T),
}

/// The world a [`Pass`] drains: its instances and the matching behind
/// them.
pub(crate) trait Drain {
    /// The counters the pass books into.
    fn spc(&self) -> &SpcSet;
    /// The lock guarding instance `k`.
    fn instance_lock(&self, k: usize) -> LockId;
    /// Take up to [`DRAIN_BATCH`] items off instance `k`, appending the
    /// ones still to match to the empty `batch`. Returns the virtual cost
    /// of the extraction and the items that completed at it instead.
    fn extract(&mut self, k: usize, batch: &mut Vec<u64>) -> (u64, usize);
    /// The lock matching `item` runs under.
    fn match_lock(&self, item: u64) -> LockId;
    /// Match one drained item; returns the virtual cost of the work
    /// performed and the completions it produced.
    fn match_item(&mut self, item: u64) -> (u64, usize);
}

/// The lock a whole [`Pass`] runs under: the design's lock model.
#[derive(Clone, Copy, Default)]
pub(crate) enum Hold {
    /// None (Algorithm 2's concurrent progress, or a private instance).
    #[default]
    Free,
    /// The serial progress gate, try-locked. A call that loses it leaves
    /// at once, as `opal_progress` does when the progress lock is taken.
    Gate(LockId),
    /// The big lock, waited for. It covers every instance and matcher, so
    /// the pass takes no inner lock.
    Big(LockId),
}

#[derive(Clone, Copy, Default)]
enum PassStep {
    #[default]
    Enter,
    GateTried,
    TryLock,
    Tried,
    Extract,
    InstanceUnlock,
    MatchLock,
    MatchCharge,
    MatchUnlock,
    Next,
    Left,
}

/// The simulator's one progress pass (paper Algorithm 2), run by the
/// Multirate receiver, the offload `RecvWorker` and the RMA-MT flush:
/// take the pass's [`Hold`]; try-lock each planned instance, skipping one
/// that is busy; extract a batch under its lock; release it; match each
/// drained item under its matching lock; end after the first instance
/// that completed something unless the plan is a whole sweep; release the
/// hold. Like the native `ProgressEngine::progress`, every pass counts
/// one progress call and books it as one useful or wasted pass, a call
/// that loses the serial gate included. Ends `Done(useful)`.
#[derive(Default)]
pub(crate) struct Pass {
    step: PassStep,
    hold: Hold,
    sweep: Sweep,
    batch: Vec<u64>,
    batch_pos: usize,
    /// Completions found during this pass.
    got: usize,
    /// When the current match-lock acquisition started, for charging lock
    /// wait into the match-time counter (as OMPI's SPC does).
    wait_from: u64,
}

impl Pass {
    pub(crate) fn start(&mut self, instances: usize, plan: Plan, hold: Hold) {
        self.step = PassStep::Enter;
        self.hold = hold;
        self.sweep = Sweep::new(instances, plan);
        self.got = 0;
    }

    /// Whether the hold covers every inner lock.
    fn covered(&self) -> bool {
        matches!(self.hold, Hold::Big(_))
    }

    #[inline(always)]
    pub(crate) fn step<D: Drain>(&mut self, resume: Resume, now: u64, world: &mut D) -> Flow<bool> {
        loop {
            let action = match self.step {
                PassStep::Enter => {
                    world.spc().inc(Counter::ProgressCalls);
                    match self.hold {
                        Hold::Free => {
                            self.step = PassStep::TryLock;
                            continue;
                        }
                        Hold::Gate(gate) => {
                            self.step = PassStep::GateTried;
                            Action::TryLock(gate)
                        }
                        Hold::Big(big) => {
                            self.step = PassStep::TryLock;
                            Action::Lock(big)
                        }
                    }
                }
                PassStep::GateTried => {
                    let Resume::TryLockResult(got) = resume else {
                        unreachable!("gate resume must carry a try-lock result");
                    };
                    if !got {
                        return Flow::Done(self.book(world.spc()));
                    }
                    self.step = PassStep::TryLock;
                    continue;
                }
                PassStep::TryLock => {
                    if self.covered() {
                        self.step = PassStep::Extract;
                        continue;
                    }
                    self.step = PassStep::Tried;
                    Action::TryLock(world.instance_lock(self.sweep.current()))
                }
                PassStep::Tried => {
                    let Resume::TryLockResult(got) = resume else {
                        unreachable!("instance resume must carry a try-lock result");
                    };
                    if got {
                        self.step = PassStep::Extract;
                    } else {
                        world.spc().inc(Counter::InstanceTryLockFailures);
                        self.step = PassStep::Next;
                    }
                    continue;
                }
                PassStep::Extract => {
                    self.batch.clear();
                    self.batch_pos = 0;
                    let (cost, completed) = world.extract(self.sweep.current(), &mut self.batch);
                    // Per visit, as the native engine's `drain_one` counts.
                    let items = (self.batch.len() + completed) as u64;
                    world.spc().add(Counter::CompletionsDrained, items);
                    world.spc().record_hist(Histogram::DrainBatchSize, items);
                    self.got += completed;
                    self.step = PassStep::InstanceUnlock;
                    Action::Compute(cost)
                }
                PassStep::InstanceUnlock => {
                    self.step = PassStep::MatchLock;
                    if self.covered() {
                        continue;
                    }
                    Action::Unlock(world.instance_lock(self.sweep.current()))
                }
                PassStep::MatchLock => {
                    let Some(&item) = self.batch.get(self.batch_pos) else {
                        self.step = PassStep::Next;
                        continue;
                    };
                    self.wait_from = now;
                    self.step = PassStep::MatchCharge;
                    if self.covered() {
                        continue;
                    }
                    Action::Lock(world.match_lock(item))
                }
                PassStep::MatchCharge => {
                    let item = self.batch[self.batch_pos];
                    self.batch_pos += 1;
                    let (cost, got) = world.match_item(item);
                    self.got += got;
                    world
                        .spc()
                        .add(Counter::MatchTimeNanos, now - self.wait_from);
                    self.step = PassStep::MatchUnlock;
                    Action::Compute(cost)
                }
                PassStep::MatchUnlock => {
                    self.step = PassStep::MatchLock;
                    if self.covered() {
                        continue;
                    }
                    Action::Unlock(world.match_lock(self.batch[self.batch_pos - 1]))
                }
                PassStep::Next => {
                    if self.sweep.next(self.got > 0).is_some() {
                        if self.sweep.falls_back() {
                            world.spc().inc(Counter::ProgressFallbackSweeps);
                        }
                        self.step = PassStep::TryLock;
                        continue;
                    }
                    let useful = self.book(world.spc());
                    match self.hold {
                        Hold::Free => return Flow::Done(useful),
                        Hold::Gate(lock) | Hold::Big(lock) => {
                            self.step = PassStep::Left;
                            Action::Unlock(lock)
                        }
                    }
                }
                PassStep::Left => return Flow::Done(self.got > 0),
            };
            return Flow::Yield(action);
        }
    }

    /// Book the pass as useful or wasted (the polling-overhead share the
    /// paper's designs trade off); true if it completed something.
    fn book(&self, spc: &SpcSet) -> bool {
        if self.got == 0 {
            spc.inc(Counter::ProgressWastedPasses);
            false
        } else {
            spc.inc(Counter::ProgressUsefulPasses);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two instances, locked as 10 and 11; instance 1 holds item 3, which
    /// matches under lock 103 and completes one receive.
    struct Toy {
        spc: SpcSet,
        rings: [Vec<u64>; 2],
    }

    impl Drain for Toy {
        fn spc(&self) -> &SpcSet {
            &self.spc
        }
        fn instance_lock(&self, k: usize) -> LockId {
            10 + k
        }
        fn extract(&mut self, k: usize, batch: &mut Vec<u64>) -> (u64, usize) {
            batch.append(&mut self.rings[k]);
            (5, 0)
        }
        fn match_lock(&self, item: u64) -> LockId {
            100 + item as usize
        }
        fn match_item(&mut self, _item: u64) -> (u64, usize) {
            (7, 1)
        }
    }

    /// One whole pass over `Toy` under `hold`, every try-lock answered
    /// `granted`: the actions it yields and whether it was useful.
    fn drive(hold: Hold, granted: bool) -> (Vec<Action>, bool, Toy) {
        let mut toy = Toy {
            spc: SpcSet::new(),
            rings: [vec![], vec![3]],
        };
        let mut pass = Pass::default();
        pass.start(2, Plan::All, hold);
        let (mut actions, mut resume) = (Vec::new(), Resume::Ready);
        loop {
            match pass.step(resume, 0, &mut toy) {
                Flow::Yield(action) => {
                    resume = match action {
                        Action::TryLock(_) => Resume::TryLockResult(granted),
                        Action::Lock(_) => Resume::LockGranted,
                        _ => Resume::Ready,
                    };
                    actions.push(action);
                }
                Flow::Done(useful) => return (actions, useful, toy),
            }
        }
    }

    #[test]
    fn pass_takes_the_locks_its_hold_asks_for_and_books_every_call() {
        use Action::*;
        let (actions, useful, toy) = drive(Hold::Gate(1), true);
        assert_eq!(
            actions,
            [
                TryLock(1),
                TryLock(10),
                Compute(5),
                Unlock(10),
                TryLock(11),
                Compute(5),
                Unlock(11),
                Lock(103),
                Compute(7),
                Unlock(103),
                Unlock(1),
            ]
        );
        assert!(useful);
        assert_eq!(toy.spc.get(Counter::ProgressUsefulPasses), 1);

        // The big lock covers every instance and matcher.
        let (actions, useful, _) = drive(Hold::Big(2), true);
        assert_eq!(
            actions,
            [Lock(2), Compute(5), Compute(5), Compute(7), Unlock(2)]
        );
        assert!(useful);

        // A call that loses the gate leaves with a wasted pass booked.
        let (actions, useful, toy) = drive(Hold::Gate(1), false);
        assert_eq!(actions, [TryLock(1)]);
        assert!(!useful);
        for (counter, value) in [
            (Counter::ProgressCalls, 1),
            (Counter::ProgressWastedPasses, 1),
            (Counter::ProgressUsefulPasses, 0),
        ] {
            assert_eq!(toy.spc.get(counter), value, "{counter:?}");
        }
    }

    #[test]
    fn idle_backoff_doubles_to_its_cap_and_resets() {
        let mut idle = IdleBackoff::default();
        let naps: Vec<u64> = (0..10).map(|_| idle.next_ns()).collect();
        assert_eq!(
            naps,
            [150, 300, 600, 1_200, 2_400, 4_800, 9_600, 19_200, 19_200, 19_200]
        );
        idle.reset();
        assert_eq!(idle.next_ns(), 150);
    }
}
