//! Network contexts: the resource the paper replicates into CRIs.

use fairmpi_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use fairmpi_sync::{Mutex, MutexGuard, TicketRing};
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::OnceLock;

use crate::{Packet, Rank};

/// Slots in a context's receive ring: the default rx-queue depth of common
/// NIC drivers. Deliveries beyond it spill to the context's overflow list.
const RX_SLOTS: usize = 1024;

/// A local completion event, reported through a context's completion queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Caller-assigned token identifying the operation (request id).
    pub token: u64,
    /// What completed.
    pub kind: CompletionKind,
}

/// The kind of completed operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompletionKind {
    /// An outgoing two-sided packet left the context.
    SendDone,
    /// A one-sided operation completed at the origin.
    RmaDone,
    /// A one-sided get completed; carries the fetched bytes.
    RmaGetDone(Vec<u8>),
    /// A fetch-style atomic completed; carries the previous value.
    RmaFetchDone(u64),
}

/// One network context: an rx ring for incoming packets plus a completion
/// queue for local events, and the one lock that owns the context.
///
/// Mirroring NIC hardware, *posting* into the rx ring is safe from any
/// thread (the wire does it), but injecting completions and draining are
/// the owner's: they happen through the [`DrainGuard`] that
/// [`NetworkContext::lock`] hands out. That lock is the CRI's instance lock
/// (paper Algorithm 1's `LOCK(instance[k] → lock)`): it guards the
/// completion queue, and the in-flight count is the queue's length, which
/// only the lock holder writes and anyone may read without the lock.
///
/// The rx ring is a lock-free [`TicketRing`]: a delivery claims one ticket
/// and never touches a lock the drainer holds. A delivery that finds the
/// ring full — or finds earlier packets already spilled — appends to a
/// locked overflow list instead, and the drain hands that list over only
/// once the ring is empty by `tail == head`, which keeps every producer's
/// packets in order.
///
/// The layout is fixed (`repr(C)`, 128 bytes): the words the owner writes
/// on every post and pop (the lock, its queue and the count) come first,
/// and the words the wire reads on every [`post_rx`](Self::post_rx) (`rx`,
/// `spilled`, `alive`) come last, so the two never share a cache line at
/// any 16-byte-aligned placement.
#[derive(Debug)]
#[repr(C)]
pub struct NetworkContext {
    /// The instance lock and the completion queue it guards.
    cq: Mutex<CompletionQueue>,
    /// Operations injected but not yet completed: the completion queue's
    /// length, stored by the lock holder after each post and pop, so it is
    /// read without the lock.
    cq_len: AtomicU64,
    /// Owning rank.
    rank: Rank,
    /// Slots the rx ring is built with ([`RX_SLOTS`] outside tests).
    rx_slots: u32,
    /// Index of this context within the rank's context table.
    index: usize,
    /// Deliveries that found the rx ring full, or found packets already
    /// here, oldest first.
    overflow: Mutex<VecDeque<Packet>>,
    /// Incoming packets deposited by the wire, allocated on first delivery.
    /// Boxed so the context does not inherit the ring's cache-line
    /// alignment.
    rx: OnceLock<Box<TicketRing<Packet>>>,
    /// Set while `overflow` may hold packets: later deliveries queue behind
    /// them instead of overtaking them through the ring. Written only under
    /// the overflow lock, which also orders the list itself; read without
    /// it to decide whether to take that lock.
    spilled: AtomicBool,
    /// False once the fault plan has permanently killed this context.
    alive: AtomicBool,
}

/// Local completion events, oldest first. Only the holder of the context's
/// lock reaches the queue, so a `Cell` lets a shared [`DrainGuard`] post
/// into it.
#[derive(Default)]
struct CompletionQueue(Cell<VecDeque<Completion>>);

impl fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let queue = self.0.take();
        let result = f.debug_list().entries(&queue).finish();
        self.0.set(queue);
        result
    }
}

impl NetworkContext {
    pub(crate) fn new(rank: Rank, index: usize) -> Self {
        Self::with_rx_slots(rank, index, RX_SLOTS)
    }

    /// A standalone context whose rx ring has `rx_slots` slots (rounded up
    /// to a power of two, minimum 2). Tests use tiny rings to drive the
    /// overflow path; the fabric always builds [`RX_SLOTS`].
    #[doc(hidden)]
    pub fn with_rx_slots(rank: Rank, index: usize, rx_slots: usize) -> Self {
        Self {
            cq: Mutex::named(CompletionQueue::default(), move || {
                format!("cri.instance[{index}]")
            }),
            cq_len: AtomicU64::new(0),
            rank,
            rx_slots: u32::try_from(rx_slots).expect("rx ring slots fit in u32"),
            index,
            overflow: Mutex::named(VecDeque::new(), move || {
                format!("fabric.rx_overflow[{rank}.{index}]")
            }),
            rx: OnceLock::new(),
            spilled: AtomicBool::new(false),
            alive: AtomicBool::new(true),
        }
    }

    /// Owning rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Index within the rank's context table.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Deposit an incoming packet (called by the wire / remote endpoints;
    /// safe from any thread). A dead context silently discards traffic,
    /// exactly like a failed NIC port — recovery is the sender's problem.
    pub fn post_rx(&self, packet: Packet) {
        if !self.is_alive() {
            return;
        }
        // The init closure must stay free of facade operations: under the
        // model checker a second thread would block on the `OnceLock`
        // where the scheduler cannot see it.
        let ring = self
            .rx
            .get_or_init(|| Box::new(TicketRing::with_capacity(self.rx_slots as usize)));
        let packet = if self.spilled.load(Ordering::Acquire) {
            packet
        } else {
            match ring.try_push(packet) {
                Ok(()) => return,
                Err(full) => full.0,
            }
        };
        let mut overflow = self.overflow.lock();
        self.spilled.store(true, Ordering::Release);
        overflow.push_back(packet);
    }

    /// Permanently kill this context (fault injection). Irreversible: all
    /// later deliveries are discarded and the progress engine skips it.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Release);
    }

    /// Whether the context still accepts and reports traffic.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Operations injected on this context that have not completed yet.
    pub fn pending_ops(&self) -> u64 {
        self.cq_len.load(Ordering::Relaxed)
    }

    /// Whether any packet or completion is waiting (cheap peek for progress
    /// heuristics; may race, callers must tolerate both outcomes).
    pub fn has_work(&self) -> bool {
        self.rx.get().is_some_and(|ring| !ring.is_empty())
            || self.spilled.load(Ordering::Acquire)
            || self.pending_ops() > 0
    }

    /// Take the context's lock, blocking on contention. Only one thread
    /// holds a context at a time; injecting completions and draining are
    /// on the returned guard.
    pub fn lock(&self) -> DrainGuard<'_> {
        DrainGuard {
            ctx: self,
            cq: self.cq.lock(),
        }
    }

    /// Take the context's lock if no other thread holds it.
    pub fn try_lock(&self) -> Option<DrainGuard<'_>> {
        Some(DrainGuard {
            ctx: self,
            cq: self.cq.try_lock()?,
        })
    }

    /// [`lock`](Self::lock), named for a caller that only drains (the
    /// benchmark's layer budget pops through it).
    pub fn begin_drain(&self) -> DrainGuard<'_> {
        self.lock()
    }
}

/// A held context: its completion queue and the pop side of its rx ring,
/// handed out by [`NetworkContext::lock`]. Dropping it releases the lock.
#[derive(Debug)]
pub struct DrainGuard<'a> {
    ctx: &'a NetworkContext,
    cq: MutexGuard<'a, CompletionQueue>,
}

impl DrainGuard<'_> {
    /// Deposit a local completion event; returns the new in-flight count.
    pub fn post_completion(&self, completion: Completion) -> u64 {
        fairmpi_trace::instant("fabric.cq_completion");
        let mut queue = self.cq.0.take();
        queue.push_back(completion);
        let len = queue.len() as u64;
        self.cq.0.set(queue);
        self.ctx.cq_len.store(len, Ordering::Relaxed);
        len
    }

    /// Pop one incoming packet, if any.
    pub fn pop_rx(&mut self) -> Option<Packet> {
        let ring = self.ctx.rx.get()?;
        ring.try_pop()
            .or_else(|| self.take_overflow(ring, VecDeque::pop_front))
    }

    /// Pop one completion event, if any.
    pub fn pop_completion(&mut self) -> Option<Completion> {
        let queue = self.cq.0.get_mut();
        let completion = queue.pop_front()?;
        self.ctx.cq_len.store(queue.len() as u64, Ordering::Relaxed);
        Some(completion)
    }

    /// Move up to `max` completion events, oldest first, onto `out`.
    /// Returns how many moved.
    pub fn pop_completions(&mut self, max: usize, out: &mut Vec<Completion>) -> usize {
        let queue = self.cq.0.get_mut();
        let n = max.min(queue.len());
        if n > 0 {
            out.extend(queue.drain(..n));
            self.ctx.cq_len.store(queue.len() as u64, Ordering::Relaxed);
        }
        n
    }

    /// Move up to `max` incoming packets, oldest first, onto `out`: ring
    /// packets by ticket, then (once the ring is empty) spilled packets
    /// under one acquisition of the overflow lock. Returns how many moved.
    pub fn pop_packets(&mut self, max: usize, out: &mut Vec<Packet>) -> usize {
        let Some(ring) = self.ctx.rx.get() else {
            return 0;
        };
        let n = ring.pop_batch(out, max);
        if n == max {
            return n;
        }
        n + self
            .take_overflow(ring, |overflow| {
                let take = (max - n).min(overflow.len());
                out.extend(overflow.drain(..take));
                Some(take)
            })
            .unwrap_or(0)
    }

    /// Run `take` on the overflow list if packets were spilled and no ring
    /// ticket is outstanding, clearing the spill flag once the list is
    /// empty.
    ///
    /// A spilled packet may only be handed out once the ring is empty by
    /// `tail == head`: an empty pop can also mean another producer claimed
    /// a ticket and has not published it yet, and a packet queued behind
    /// that ticket may be older than a spilled packet from the same
    /// producer.
    fn take_overflow<R>(
        &self,
        ring: &TicketRing<Packet>,
        take: impl FnOnce(&mut VecDeque<Packet>) -> Option<R>,
    ) -> Option<R> {
        if !self.ctx.spilled.load(Ordering::Acquire) {
            return None;
        }
        let mut overflow = self.ctx.overflow.lock();
        if !ring.is_empty() {
            return None;
        }
        let taken = take(&mut overflow);
        if overflow.is_empty() {
            self.ctx.spilled.store(false, Ordering::Release);
        }
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Envelope;

    fn packet(seq: u64) -> Packet {
        Packet::eager(
            Envelope {
                src: 0,
                dst: 1,
                comm: 0,
                tag: 0,
                seq,
            },
            vec![],
        )
    }

    #[test]
    fn rx_ring_is_fifo_per_producer() {
        let ctx = NetworkContext::new(1, 0);
        for seq in 0..10 {
            ctx.post_rx(packet(seq));
        }
        let mut drain = ctx.lock();
        for seq in 0..10 {
            assert_eq!(drain.pop_rx().unwrap().envelope.seq, seq);
        }
        assert!(drain.pop_rx().is_none());
    }

    fn send_done(token: u64) -> Completion {
        Completion {
            token,
            kind: CompletionKind::SendDone,
        }
    }

    #[test]
    fn batch_pops_respect_the_limit_and_order() {
        let ctx = NetworkContext::new(1, 0);
        let mut drain = ctx.lock();
        for seq in 0..5 {
            ctx.post_rx(packet(seq));
            drain.post_completion(send_done(seq));
        }
        let mut packets = Vec::new();
        assert_eq!(drain.pop_packets(3, &mut packets), 3);
        assert_eq!(drain.pop_packets(9, &mut packets), 2);
        assert_eq!(drain.pop_packets(9, &mut packets), 0);
        let seqs: Vec<_> = packets.iter().map(|p| p.envelope.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        let mut completions = Vec::new();
        assert_eq!(drain.pop_completions(9, &mut completions), 5);
        assert_eq!(completions[4].token, 4);
    }

    #[test]
    fn completion_queue_delivers_events() {
        let ctx = NetworkContext::new(0, 3);
        let mut drain = ctx.lock();
        drain.post_completion(send_done(9));
        let c = drain.pop_completion().unwrap();
        assert_eq!(c.token, 9);
        assert_eq!(c.kind, CompletionKind::SendDone);
    }

    #[test]
    fn pending_ops_count_posts_until_popped() {
        let ctx = NetworkContext::new(0, 0);
        let mut drain = ctx.lock();
        let in_flight: Vec<_> = (0..3)
            .map(|t| drain.post_completion(send_done(t)))
            .collect();
        assert_eq!(in_flight, vec![1, 2, 3], "each post returns the new count");
        assert_eq!(ctx.pending_ops(), 3, "readable without the lock");
        assert_eq!(drain.pop_completion().unwrap().token, 0);
        assert_eq!(ctx.pending_ops(), 2, "a pop retires its op");
        assert_eq!(drain.post_completion(send_done(3)), 3);
        let mut out = Vec::new();
        assert_eq!(drain.pop_completions(2, &mut out), 2);
        assert_eq!(ctx.pending_ops(), 1, "a batch pop retires its batch");
        assert_eq!(drain.pop_completions(9, &mut out), 1);
        assert_eq!(ctx.pending_ops(), 0);
        assert!(drain.pop_completion().is_none());
        assert_eq!(ctx.pending_ops(), 0, "an empty pop retires nothing");
    }

    #[test]
    fn has_work_reflects_queues() {
        let ctx = NetworkContext::with_rx_slots(0, 0, 2);
        for seq in 0..3 {
            ctx.post_rx(packet(seq));
        }
        let mut drain = ctx.lock();
        assert!(ctx.has_work(), "ring");
        assert_eq!(drain.pop_packets(2, &mut Vec::new()), 2);
        assert!(ctx.has_work(), "spilled packet behind an empty ring");
        assert_eq!(drain.pop_rx().unwrap().envelope.seq, 2);
        assert!(!ctx.has_work());
        drain.post_completion(send_done(0));
        assert!(ctx.has_work(), "completion queue");
        drain.pop_completion().unwrap();
        assert!(!ctx.has_work());
    }

    #[test]
    fn try_lock_fails_while_a_drain_holds_the_context() {
        let ctx = NetworkContext::new(0, 0);
        let drain = ctx.lock();
        assert!(ctx.try_lock().is_none());
        drop(drain);
        assert!(ctx.try_lock().is_some());
    }

    /// The owner's words (lock, queue, count) and the wire's (`rx`,
    /// `spilled`, `alive`) lie on different 64-byte lines for every
    /// 16-byte-aligned placement. Measured on a 2-vCPU host: with rustc's
    /// default field order eager `latency_us` rose 8–14 %; with a
    /// cache-padded lock (a 256-byte context) `cris` `setup_s` rose 20 %,
    /// and with a 144-byte context 9 %. Only the native backend is pinned:
    /// the traced backend stores a name in every lock.
    #[test]
    #[cfg(not(feature = "trace"))]
    fn owner_and_wire_words_never_share_a_cache_line() {
        use std::mem::{offset_of, size_of};
        assert!(size_of::<NetworkContext>() <= 128);
        let owner = [
            (
                offset_of!(NetworkContext, cq),
                size_of::<Mutex<CompletionQueue>>(),
            ),
            (offset_of!(NetworkContext, cq_len), size_of::<AtomicU64>()),
        ];
        let wire = [
            (
                offset_of!(NetworkContext, rx),
                size_of::<OnceLock<Box<TicketRing<Packet>>>>(),
            ),
            (offset_of!(NetworkContext, spilled), size_of::<AtomicBool>()),
            (offset_of!(NetworkContext, alive), size_of::<AtomicBool>()),
        ];
        for base in [0, 16, 32, 48] {
            let lines = |(offset, len): (usize, usize)| {
                (base + offset) / 64..=(base + offset + len - 1) / 64
            };
            for o in owner {
                for w in wire {
                    assert!(
                        lines(o).end() < lines(w).start(),
                        "owner word at {o:?} shares a line with wire word at {w:?} \
                         when the context starts {base} bytes into a line"
                    );
                }
            }
        }
    }

    fn seqs(packets: &[Packet]) -> Vec<u64> {
        packets.iter().map(|p| p.envelope.seq).collect()
    }

    fn overflow_len(ctx: &NetworkContext) -> usize {
        ctx.overflow.lock().len()
    }

    #[test]
    fn full_ring_spills_in_order_and_recovers() {
        let ctx = NetworkContext::with_rx_slots(1, 0, 2);
        for seq in 0..5 {
            ctx.post_rx(packet(seq));
        }
        assert_eq!(overflow_len(&ctx), 3, "two in the ring, three spilled");
        let mut drain = ctx.lock();
        let mut got = Vec::new();
        assert_eq!(drain.pop_packets(2, &mut got), 2);
        assert_eq!(seqs(&got), vec![0, 1], "ring first");
        assert_eq!(drain.pop_packets(2, &mut got), 2);
        assert_eq!(seqs(&got), vec![0, 1, 2, 3], "then the list");
        assert!(
            ctx.spilled.load(Ordering::Relaxed),
            "one packet still spilled"
        );
        assert_eq!(drain.pop_packets(1, &mut got), 1);
        assert_eq!(seqs(&got), vec![0, 1, 2, 3, 4]);
        assert!(
            !ctx.spilled.load(Ordering::Relaxed),
            "emptied list clears the flag"
        );
        ctx.post_rx(packet(5));
        assert_eq!(
            overflow_len(&ctx),
            0,
            "the next delivery uses the ring again"
        );
        assert_eq!(drain.pop_rx().unwrap().envelope.seq, 5);
        assert!(drain.pop_rx().is_none());
    }

    #[test]
    fn later_deliveries_queue_behind_spilled_ones() {
        let ctx = NetworkContext::with_rx_slots(1, 0, 2);
        for seq in 0..3 {
            ctx.post_rx(packet(seq));
        }
        let mut drain = ctx.lock();
        assert_eq!(drain.pop_rx().unwrap().envelope.seq, 0);
        // The ring has a free slot, but packet 2 is spilled: 3 must not
        // overtake it.
        ctx.post_rx(packet(3));
        assert_eq!(overflow_len(&ctx), 2);
        let mut got = Vec::new();
        assert_eq!(drain.pop_packets(9, &mut got), 3);
        assert_eq!(seqs(&got), vec![1, 2, 3]);
    }

    #[test]
    fn dead_context_discards_deliveries() {
        let ctx = NetworkContext::with_rx_slots(0, 0, 2);
        for seq in 0..3 {
            ctx.post_rx(packet(seq));
        }
        ctx.kill();
        ctx.post_rx(packet(3)); // would have spilled
        let mut drain = ctx.lock();
        let mut got = Vec::new();
        drain.pop_packets(9, &mut got);
        assert_eq!(seqs(&got), vec![0, 1, 2], "pre-death traffic only");
        ctx.post_rx(packet(4)); // would have used the ring
        assert!(drain.pop_rx().is_none());
        assert!(!ctx.has_work());
    }

    #[test]
    fn queued_packets_are_dropped_with_the_context() {
        // Nothing delivered: the ring was never allocated.
        drop(NetworkContext::new(0, 0));
        // Packets in the ring and in the overflow list; the ring's drop
        // drains every published slot (and asserts each holds a value).
        let ctx = NetworkContext::with_rx_slots(0, 0, 2);
        for seq in 0..4 {
            ctx.post_rx(Packet::eager(packet(seq).envelope, vec![0; 1 << 16]));
        }
        assert!(ctx.rx.get().is_some_and(|ring| ring.len() == 2));
        assert_eq!(overflow_len(&ctx), 2);
        drop(ctx);
    }

    /// Three producers race a draining owner on tiny rings, so deliveries
    /// keep spilling and the hand-off between ring and list happens while
    /// tickets are claimed but unpublished. Every producer's packets must
    /// arrive exactly once and in order.
    #[test]
    fn spill_hand_off_keeps_each_producer_fifo() {
        use std::sync::Arc;
        const PRODUCERS: u32 = 3;
        const PER_PRODUCER: u64 = 100_000;
        for slots in [2, 4, 8] {
            let ctx = Arc::new(NetworkContext::with_rx_slots(1, 0, slots));
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|src| {
                    let ctx = Arc::clone(&ctx);
                    std::thread::spawn(move || {
                        for seq in 0..PER_PRODUCER {
                            let mut p = packet(seq);
                            p.envelope.src = src;
                            ctx.post_rx(p);
                            // Pace the producers so the drain keeps up:
                            // the ring, not the list, carries most
                            // traffic, and hand-offs stay frequent.
                            std::thread::yield_now();
                        }
                    })
                })
                .collect();
            let mut next = [0u64; PRODUCERS as usize];
            let mut got = Vec::new();
            let mut received = 0;
            for budget in (1..=5).cycle() {
                if received == u64::from(PRODUCERS) * PER_PRODUCER {
                    break;
                }
                ctx.lock().pop_packets(budget, &mut got);
                if got.is_empty() {
                    std::thread::yield_now();
                }
                for p in got.drain(..) {
                    let expected = &mut next[p.envelope.src as usize];
                    assert_eq!(
                        p.envelope.seq, *expected,
                        "producer {} out of order on a {slots}-slot ring",
                        p.envelope.src
                    );
                    *expected += 1;
                    received += 1;
                }
            }
            for p in producers {
                p.join().unwrap();
            }
            assert!(!ctx.has_work(), "nothing left behind");
        }
    }
}
