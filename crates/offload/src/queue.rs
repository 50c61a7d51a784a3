//! The command queue's backpressure policy over the workspace's lock-free
//! [`TicketRing`].

use fairmpi_sync::{QueueFull, TicketRing};

/// What a producer does when the command queue is full (the ring cannot
/// grow: boundedness is what gives the offload design its backpressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Spin on the tail until a slot frees (lowest latency, burns a core).
    Spin,
    /// Spin, yielding the OS thread between attempts (the default: polite
    /// under oversubscription, still prompt).
    Yield,
    /// Fail fast: hand the rejected value back to the caller
    /// (`MPI_ERR_..._TryAgain`-style; the caller decides how to retry).
    TryAgain,
}

impl Backpressure {
    /// Push `value` onto `ring` honoring this policy. `Ok(stalled)` tells
    /// the caller whether the queue was ever observed full (for the
    /// `offload_backpressure_stalls` probe); `Err` only under
    /// [`Backpressure::TryAgain`].
    pub fn push<T>(self, ring: &TicketRing<T>, value: T) -> Result<bool, QueueFull<T>> {
        let mut value = match ring.try_push(value) {
            Ok(()) => return Ok(false),
            Err(QueueFull(v)) => v,
        };
        if self == Backpressure::TryAgain {
            return Err(QueueFull(value));
        }
        loop {
            match self {
                Backpressure::Spin => std::hint::spin_loop(),
                Backpressure::Yield => std::thread::yield_now(),
                Backpressure::TryAgain => unreachable!("returned above"),
            }
            match ring.try_push(value) {
                Ok(()) => return Ok(true),
                Err(QueueFull(v)) => value = v,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn try_again_hands_the_value_back_when_full() {
        let q = TicketRing::with_capacity(2);
        assert_eq!(Backpressure::TryAgain.push(&q, 0u64), Ok(false));
        q.try_push(1).unwrap();
        assert_eq!(Backpressure::TryAgain.push(&q, 99), Err(QueueFull(99)));
    }

    #[test]
    fn spin_push_reports_the_stall() {
        let q = Arc::new(TicketRing::with_capacity(2));
        for i in 0..2u64 {
            q.try_push(i).unwrap();
        }
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || Backpressure::Yield.push(&q, 7).unwrap())
        };
        // Free one slot; the stalled producer must complete and report it.
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(q.try_pop(), Some(0));
        assert!(producer.join().unwrap(), "push observed the full queue");
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(7));
    }
}
