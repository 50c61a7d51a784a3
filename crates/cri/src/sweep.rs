//! Algorithm 2's visit order, walked alike by the native engine, the
//! simulator's progress actors, the model checker's miniature and the
//! pool's failover scan.

/// Which instances one progress pass visits, in which order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// This instance alone (a private or purely local completion path).
    Only(usize),
    /// Every instance in index order, with no early stop (the serial
    /// gate holder's sweep).
    All,
    /// The assigned instance first, then each other instance once,
    /// cyclically, ending after the first visit that completed something.
    From(usize),
}

/// One pass's cursor over a [`Plan`]: plain indices, with no allocation
/// and no shared counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sweep {
    current: usize,
    /// Visits made before the current one, and visits the plan allows
    /// (every instance, unless the plan is [`Plan::Only`]).
    pos: usize,
    len: usize,
    stop_early: bool,
}

impl Sweep {
    /// Start a pass over `instances` instances.
    pub fn new(instances: usize, plan: Plan) -> Self {
        let (current, len) = match plan {
            Plan::Only(k) => (k, 1),
            Plan::All => (0, instances),
            Plan::From(k) => (k, instances),
        };
        let stop_early = plan != Plan::All;
        Self {
            current,
            pos: 0,
            len,
            stop_early,
        }
    }

    /// The instance under the cursor.
    #[inline]
    pub fn current(&self) -> usize {
        self.current
    }

    /// Move past the current instance, on which the pass `found` work.
    /// Returns the next instance to visit, or `None` when the pass ends.
    #[inline]
    pub fn next(&mut self, found: bool) -> Option<usize> {
        self.pos += 1;
        if self.pos >= self.len || (self.stop_early && found) {
            return None;
        }
        self.current += 1;
        if self.current == self.len {
            self.current = 0;
        }
        Some(self.current)
    }

    /// Whether the cursor just went past a [`Plan::From`] pass's assigned
    /// instance, which completed nothing: its fallback sweep starts here.
    #[inline]
    pub fn falls_back(&self) -> bool {
        self.stop_early && self.pos == 1 && self.len > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The visits of one pass that finds work on `found_at` only, and
    /// the visits at which it reported falling back.
    fn visits(instances: usize, plan: Plan, found_at: usize) -> (Vec<usize>, Vec<usize>) {
        let mut sweep = Sweep::new(instances, plan);
        let mut order = vec![sweep.current()];
        let mut fallbacks = Vec::new();
        while let Some(next) = sweep.next(order.last() == Some(&found_at)) {
            if sweep.falls_back() {
                fallbacks.push(next);
            }
            order.push(next);
        }
        (order, fallbacks)
    }

    #[test]
    fn plans_visit_orders_and_stop_early_only_on_fallback() {
        assert_eq!(
            visits(4, Plan::From(2), usize::MAX),
            (vec![2, 3, 0, 1], vec![3])
        );
        assert_eq!(
            visits(4, Plan::From(2), 0),
            (vec![2, 3, 0], vec![3]),
            "stops after a find"
        );
        assert_eq!(
            visits(4, Plan::From(2), 2),
            (vec![2], vec![]),
            "a find on the assigned instance ends the pass there"
        );
        assert_eq!(
            visits(4, Plan::All, 0),
            (vec![0, 1, 2, 3], vec![]),
            "a whole sweep never stops early and never falls back"
        );
        assert_eq!(visits(4, Plan::Only(3), usize::MAX), (vec![3], vec![]));
        assert_eq!(
            visits(1, Plan::From(0), usize::MAX),
            (vec![0], vec![]),
            "one instance has nothing to fall back to"
        );
    }

    #[test]
    fn from_visits_every_instance_exactly_once() {
        for instances in 1..=6 {
            for first in 0..instances {
                let (mut order, _) = visits(instances, Plan::From(first), usize::MAX);
                assert_eq!(order[0], first);
                order.sort_unstable();
                assert_eq!(order, (0..instances).collect::<Vec<_>>());
            }
        }
    }
}
