//! The bounded lock-free ticket ring: the offload command queue and the
//! receive ring of every network context.
//!
//! This is a Vyukov-style bounded MPMC ring: every slot carries a seqlock
//! sequence word gating access, producers and consumers claim tickets with
//! a single CAS on the tail/head counter, and all coordination goes through
//! this crate's atomics — no mutexes, no external queue crates. Slots and
//! the two counters are cache-line padded so producers hammering the tail
//! never invalidate the consumer's head line (the same discipline as the
//! SPC slots).

use std::cell::UnsafeCell;

use crate::atomic::{AtomicU64, Ordering};
use crate::CachePadded;

/// A rejected push, carrying the value back to the producer.
#[derive(Debug, PartialEq, Eq)]
pub struct QueueFull<T>(pub T);

/// One ring slot: the sequence word is `ticket` while writable by the
/// producer holding that ticket, `ticket + 1` while readable by the
/// consumer holding it, then `ticket + capacity` for the next lap.
#[derive(Debug)]
struct Slot<T> {
    seq: AtomicU64,
    value: UnsafeCell<Option<T>>,
}

/// A bounded lock-free MPMC FIFO ring (used MPSC for offload commands and
/// for a network context's incoming packets).
#[derive(Debug)]
pub struct TicketRing<T> {
    slots: Box<[CachePadded<Slot<T>>]>,
    mask: u64,
    /// Next producer ticket.
    tail: CachePadded<AtomicU64>,
    /// Next consumer ticket.
    head: CachePadded<AtomicU64>,
}

// SAFETY: the ticket protocol hands each slot to exactly one thread at a
// time (see `try_push`/`try_pop`), so the ring is a channel: it only needs
// `T: Send`, never `T: Sync`.
unsafe impl<T: Send> Send for TicketRing<T> {}
unsafe impl<T: Send> Sync for TicketRing<T> {}

impl<T> TicketRing<T> {
    /// A ring holding at least `capacity` items (rounded up to a power of
    /// two, minimum 2, so slot selection is a mask).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let slots = (0..cap as u64)
            .map(|i| {
                CachePadded::new(Slot {
                    seq: AtomicU64::new(i),
                    value: UnsafeCell::new(None),
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            slots,
            mask: cap as u64 - 1,
            tail: CachePadded::new(AtomicU64::new(0)),
            head: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Approximate occupancy (exact when quiescent; racing operations can
    /// skew it by the number of in-flight claims).
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Relaxed);
        tail.saturating_sub(head) as usize
    }

    /// Whether the ring currently holds nothing: `tail == head`, so every
    /// claimed ticket has been consumed. A producer's claimed but not yet
    /// published ticket counts as occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lock-free push attempt; `Err` hands the value back when full.
    pub fn try_push(&self, value: T) -> Result<(), QueueFull<T>> {
        let mut tail = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(tail & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == tail {
                match self.tail.compare_exchange_weak(
                    tail,
                    tail + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS claimed ticket `tail`, making this
                        // thread the slot's unique owner until the sequence
                        // store below publishes it to the consumer side.
                        unsafe { *slot.value.get() = Some(value) };
                        slot.seq.store(tail + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => tail = current,
                }
            } else if seq < tail {
                // The slot still holds an unconsumed value from one lap
                // ago. Re-read the tail: if it moved we lost a race, not
                // capacity.
                let current = self.tail.load(Ordering::Relaxed);
                if current == tail {
                    return Err(QueueFull(value));
                }
                tail = current;
            } else {
                // Another producer claimed this ticket; chase the tail.
                tail = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Lock-free pop attempt.
    pub fn try_pop(&self) -> Option<T> {
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(head & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == head + 1 {
                match self.head.compare_exchange_weak(
                    head,
                    head + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS claimed ticket `head`; the
                        // producer published this slot with `seq == head+1`
                        // and will not touch it again until the store below
                        // recycles it for the next lap.
                        let value = unsafe { (*slot.value.get()).take() };
                        slot.seq
                            .store(head + self.capacity() as u64, Ordering::Release);
                        debug_assert!(value.is_some(), "published slot holds a value");
                        return value;
                    }
                    Err(current) => head = current,
                }
            } else if seq < head + 1 {
                // Slot not yet published: empty unless the head moved.
                let current = self.head.load(Ordering::Relaxed);
                if current == head {
                    return None;
                }
                head = current;
            } else {
                // Another consumer claimed this ticket; chase the head.
                head = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop up to `max` items into `out`; returns how many were taken.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.try_pop() {
                Some(v) => {
                    out.push(v);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

impl<T> Drop for TicketRing<T> {
    fn drop(&mut self) {
        // Drain so queued values run their destructors.
        while self.try_pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_thread() {
        let q = TicketRing::with_capacity(8);
        for i in 0..5u64 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        for i in 0..5u64 {
            assert_eq!(q.try_pop(), Some(i));
        }
        assert_eq!(q.try_pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn full_ring_rejects_and_returns_value() {
        let q = TicketRing::with_capacity(4);
        for i in 0..4u64 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.try_push(99), Err(QueueFull(99)));
        assert_eq!(q.try_pop(), Some(0));
        // A freed slot is immediately reusable (wrap-around lap).
        q.try_push(4).unwrap();
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(TicketRing::<u8>::with_capacity(1).capacity(), 2);
        assert_eq!(TicketRing::<u8>::with_capacity(5).capacity(), 8);
        assert_eq!(TicketRing::<u8>::with_capacity(64).capacity(), 64);
    }

    #[test]
    fn mpsc_stress_delivers_every_value_once() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 5_000;
        let q = Arc::new(TicketRing::with_capacity(64));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut value = p * PER_PRODUCER + i;
                        while let Err(QueueFull(v)) = q.try_push(value) {
                            value = v;
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = vec![false; (PRODUCERS * PER_PRODUCER) as usize];
                let mut last_per_producer = vec![None::<u64>; PRODUCERS as usize];
                let mut got = 0;
                while got < PRODUCERS * PER_PRODUCER {
                    if let Some(v) = q.try_pop() {
                        assert!(!seen[v as usize], "duplicate {v}");
                        seen[v as usize] = true;
                        // Per-producer order is preserved (the MPSC
                        // guarantee the MPI non-overtaking rule rides on).
                        let p = (v / PER_PRODUCER) as usize;
                        let i = v % PER_PRODUCER;
                        assert!(last_per_producer[p].map(|prev| prev < i).unwrap_or(true));
                        last_per_producer[p] = Some(i);
                        got += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        consumer.join().unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn drop_runs_queued_destructors() {
        let token = Arc::new(());
        {
            let q = TicketRing::with_capacity(8);
            for _ in 0..5 {
                q.try_push(Arc::clone(&token)).unwrap();
            }
            assert_eq!(Arc::strong_count(&token), 6);
        }
        assert_eq!(Arc::strong_count(&token), 1, "ring drop released values");
    }
}
