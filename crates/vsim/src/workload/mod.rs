//! Workload actors for the paper's two benchmarks.

pub mod multirate;
pub mod rmamt;

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

/// Which instances one progress pass visits, in which order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Plan {
    /// This instance alone (a private or purely local completion path).
    Only(usize),
    /// Every instance in index order, with no early stop (the serial
    /// gate holder's sweep).
    All,
    /// This instance first, then the others round-robin, ending after the
    /// first one that completed something (Algorithm 2's fallback).
    From(usize),
}

/// One progress pass's visit order over the instances, and its cursor.
#[derive(Debug, Default)]
pub(crate) struct Sweep {
    order: Vec<usize>,
    pos: usize,
    stop_early: bool,
}

impl Sweep {
    /// Start a pass over `instances` instances.
    pub(crate) fn plan(&mut self, instances: usize, plan: Plan) {
        self.order.clear();
        self.pos = 0;
        self.stop_early = !matches!(plan, Plan::All);
        match plan {
            Plan::Only(instance) => self.order.push(instance),
            Plan::All => self.order.extend(0..instances),
            Plan::From(first) => self
                .order
                .extend((0..instances).map(|off| (first + off) % instances)),
        }
    }

    /// The instance under the cursor.
    pub(crate) fn current(&self) -> usize {
        self.order[self.pos]
    }

    /// Move past the current instance, on which the pass `found` work.
    /// Returns the next instance to visit, or `None` when the pass ends.
    pub(crate) fn next(&mut self, found: bool) -> Option<usize> {
        self.pos += 1;
        if self.pos >= self.order.len() || (self.stop_early && found) {
            return None;
        }
        Some(self.current())
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn visits(sweep: &mut Sweep, found_at: usize) -> Vec<usize> {
        let mut order = vec![sweep.current()];
        while let Some(next) = sweep.next(order.last() == Some(&found_at)) {
            order.push(next);
        }
        order
    }

    #[test]
    fn sweep_plans_visit_orders_and_stop_early_only_on_fallback() {
        let mut sweep = Sweep::default();
        sweep.plan(4, Plan::From(2));
        assert_eq!(visits(&mut sweep, usize::MAX), [2, 3, 0, 1]);
        sweep.plan(4, Plan::From(2));
        assert_eq!(visits(&mut sweep, 0), [2, 3, 0], "stops after a find");
        sweep.plan(4, Plan::All);
        assert_eq!(
            visits(&mut sweep, 0),
            [0, 1, 2, 3],
            "a whole sweep never stops early"
        );
        sweep.plan(4, Plan::Only(3));
        assert_eq!(visits(&mut sweep, usize::MAX), [3]);
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
