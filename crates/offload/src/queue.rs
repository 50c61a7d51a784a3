//! The command queue: the workspace's lock-free [`TicketRing`] plus the
//! admission rule that lets shutdown hand every accepted command to a
//! worker.

use fairmpi_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use fairmpi_sync::{QueueFull, TicketRing};

/// A bounded MPSC queue that can be closed without stranding a push.
///
/// A producer enters an admission count *before* it checks whether the
/// queue is closed and leaves it only *after* its push has landed. A
/// consumer may stop once [`CommandQueue::drained`] holds: the queue is
/// closed, no producer is between its check and its push, and the ring is
/// empty. A producer that passed the check before the close is still
/// counted, so the consumer keeps going until its value is in the ring; a
/// producer that enters after the close sees it and is refused. The rule
/// needs the close, the count and the ring read in one total order, so
/// the flag and the count are `SeqCst`.
pub struct CommandQueue<T> {
    ring: TicketRing<T>,
    closed: AtomicBool,
    admitted: AtomicUsize,
}

impl<T> CommandQueue<T> {
    /// An open queue of at least `capacity` slots (a power of two).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            ring: TicketRing::with_capacity(capacity),
            closed: AtomicBool::new(false),
            admitted: AtomicUsize::new(0),
        }
    }

    /// Push `value` unless the queue is closed; `Err` hands it back. A full
    /// ring yields the thread and retries (the ring cannot grow: its bound
    /// is the offload design's backpressure). `Ok(true)` says the ring was
    /// found full at least once.
    pub fn push(&self, value: T) -> Result<bool, T> {
        self.admitted.fetch_add(1, Ordering::SeqCst);
        let pushed = if self.closed.load(Ordering::SeqCst) {
            Err(value)
        } else {
            let mut value = value;
            let mut stalled = false;
            while let Err(QueueFull(back)) = self.ring.try_push(value) {
                value = back;
                stalled = true;
                std::thread::yield_now();
            }
            Ok(stalled)
        };
        self.admitted.fetch_sub(1, Ordering::SeqCst);
        pushed
    }

    /// Move up to `max` values onto `out`; returns how many moved.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        self.ring.pop_batch(out, max)
    }

    /// Values currently queued.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no value is queued.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Refuse every push from now on.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// Whether [`CommandQueue::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Whether a consumer may stop: closed, no producer admitted, and
    /// nothing queued. Once true it stays true.
    pub fn drained(&self) -> bool {
        self.is_closed() && self.admitted.load(Ordering::SeqCst) == 0 && self.ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_closed_queue_hands_the_value_back() {
        let q = CommandQueue::with_capacity(2);
        assert_eq!(q.push(1u64), Ok(false));
        q.close();
        assert_eq!(q.push(2), Err(2));
        assert!(!q.drained(), "the accepted value is still queued");
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out, 8), 1);
        assert!(q.drained());
    }
}
