//! Recovery from a lossy wire, shared by the runtime's reliability layer
//! and the simulator's lossy wire.

use std::collections::BTreeSet;

/// How long a sender waits before retransmitting a frame on its
/// `attempt`-th retry: `timeout_ns × 2^min(attempt, 6)`, saturating.
pub fn retransmit_backoff_ns(timeout_ns: u64, attempt: u32) -> u64 {
    timeout_ns.saturating_mul(1 << attempt.min(6))
}

/// Receive side of one channel: which sequence numbers (from 1) arrived.
/// The runtime keeps one per peer behind a lock (model-checked by
/// `fairmpi-check`), the simulator one per communicator.
#[derive(Debug, Default)]
pub struct DedupWindow {
    /// Every sequence number in `1..=floor` has been accepted.
    floor: u64,
    /// Accepted sequence numbers above the floor (out-of-order arrivals).
    above: BTreeSet<u64>,
}

impl DedupWindow {
    /// Empty window: nothing accepted yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an arrival; `false` means `seq` was already accepted (a
    /// wire duplicate or a retransmission racing its own ack).
    pub fn accept(&mut self, seq: u64) -> bool {
        if seq <= self.floor || !self.above.insert(seq) {
            return false;
        }
        while self.above.remove(&(self.floor + 1)) {
            self.floor += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_per_attempt_up_to_its_cap() {
        let naps: Vec<u64> = (0..9).map(|a| retransmit_backoff_ns(100, a)).collect();
        assert_eq!(
            naps,
            [100, 200, 400, 800, 1_600, 3_200, 6_400, 6_400, 6_400]
        );
        assert_eq!(retransmit_backoff_ns(u64::MAX / 2, 3), u64::MAX);
    }
}
