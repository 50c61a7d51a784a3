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
