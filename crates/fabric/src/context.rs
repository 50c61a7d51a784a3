//! Network contexts: the resource the paper replicates into CRIs.

use fairmpi_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use fairmpi_sync::{Mutex, TicketRing};
use std::collections::VecDeque;
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
/// queue for local events.
///
/// Mirroring NIC hardware, *posting* into the ring is safe from any thread
/// (the wire does it), but *draining* must be serialized by the owner — in
/// this design, by the CRI lock above. Debug builds verify the discipline
/// with [`NetworkContext::begin_drain`].
///
/// The rx ring is a lock-free [`TicketRing`]: a delivery claims one ticket
/// and never touches a lock the drainer holds. A delivery that finds the
/// ring full — or finds earlier packets already spilled — appends to a
/// locked overflow list instead, and the drain hands that list over only
/// once the ring is empty by `tail == head`, which keeps every producer's
/// packets in order. The completion queue sits behind a facade lock taken
/// once per drained batch.
#[derive(Debug)]
pub struct NetworkContext {
    /// Owning rank.
    rank: Rank,
    /// Index of this context within the rank's context table.
    index: usize,
    /// Incoming packets deposited by the wire, allocated on first delivery.
    /// Boxed so the context does not inherit the ring's cache-line
    /// alignment.
    rx: OnceLock<Box<TicketRing<Packet>>>,
    /// Slots the rx ring is built with ([`RX_SLOTS`] outside tests).
    rx_slots: usize,
    /// Deliveries that found the rx ring full, or found packets already
    /// here, oldest first.
    overflow: Mutex<VecDeque<Packet>>,
    /// Set while `overflow` may hold packets: later deliveries queue behind
    /// them instead of overtaking them through the ring. Written only under
    /// the overflow lock, which also orders the list itself; read without
    /// it to decide whether to take that lock.
    spilled: AtomicBool,
    /// Local completion events.
    cq: Mutex<VecDeque<Completion>>,
    /// Number of operations injected but not yet completed.
    pending_ops: AtomicU64,
    /// Flags a drain in progress (debug builds only).
    #[cfg(debug_assertions)]
    draining: AtomicBool,
    /// False once the fault plan has permanently killed this context.
    alive: AtomicBool,
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
            rank,
            index,
            rx: OnceLock::new(),
            rx_slots,
            overflow: Mutex::named(VecDeque::new(), move || {
                format!("fabric.rx_overflow[{rank}.{index}]")
            }),
            spilled: AtomicBool::new(false),
            cq: Mutex::named(VecDeque::new(), move || {
                format!("fabric.cq[{rank}.{index}]")
            }),
            pending_ops: AtomicU64::new(0),
            #[cfg(debug_assertions)]
            draining: AtomicBool::new(false),
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
            .get_or_init(|| Box::new(TicketRing::with_capacity(self.rx_slots)));
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

    /// Deposit a local completion event.
    pub fn post_completion(&self, completion: Completion) {
        fairmpi_trace::instant("fabric.cq_completion");
        self.cq.lock().push_back(completion);
    }

    /// Record that an operation was injected and will complete later;
    /// returns the new in-flight count.
    pub fn op_started(&self) -> u64 {
        self.pending_ops.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Record that `n` injected operations completed.
    pub fn ops_finished(&self, n: u64) {
        let prev = self.pending_ops.fetch_sub(n, Ordering::Relaxed);
        debug_assert!(prev >= n, "ops_finished without matching op_started");
    }

    /// Operations injected on this context that have not completed yet.
    pub fn pending_ops(&self) -> u64 {
        self.pending_ops.load(Ordering::Relaxed)
    }

    /// Whether any packet or completion is waiting (cheap peek for progress
    /// heuristics; may race, callers must tolerate both outcomes).
    pub fn has_work(&self) -> bool {
        self.rx.get().is_some_and(|ring| !ring.is_empty())
            || self.spilled.load(Ordering::Acquire)
            || !self.cq.lock().is_empty()
    }

    /// Begin draining this context. Enforces (in debug builds) that only one
    /// thread drains at a time — the invariant the CRI lock exists to
    /// provide. Returns a guard; draining methods are on the guard.
    pub fn begin_drain(&self) -> DrainGuard<'_> {
        #[cfg(debug_assertions)]
        {
            let was = self.draining.swap(true, Ordering::Acquire);
            assert!(
                !was,
                "concurrent drain of context {}/{}: the caller failed to hold \
                 the instance lock",
                self.rank, self.index
            );
        }
        DrainGuard { ctx: self }
    }
}

/// Exclusive access to a context's pop side, handed out by
/// [`NetworkContext::begin_drain`].
#[derive(Debug)]
pub struct DrainGuard<'a> {
    ctx: &'a NetworkContext,
}

impl DrainGuard<'_> {
    /// Pop one incoming packet, if any.
    pub fn pop_rx(&mut self) -> Option<Packet> {
        let ring = self.ctx.rx.get()?;
        ring.try_pop()
            .or_else(|| self.take_overflow(ring, VecDeque::pop_front))
    }

    /// Pop one completion event, if any.
    pub fn pop_completion(&mut self) -> Option<Completion> {
        self.ctx.cq.lock().pop_front()
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

    /// Move up to `max` completion events, oldest first, onto `out` under
    /// one acquisition of the queue's lock. Returns how many moved.
    pub fn pop_completions(&mut self, max: usize, out: &mut Vec<Completion>) -> usize {
        let mut cq = self.ctx.cq.lock();
        let n = max.min(cq.len());
        if n > 0 {
            out.extend(cq.drain(..n));
        }
        n
    }

    /// The context being drained.
    pub fn context(&self) -> &NetworkContext {
        self.ctx
    }
}

#[cfg(debug_assertions)]
impl Drop for DrainGuard<'_> {
    fn drop(&mut self) {
        self.ctx.draining.store(false, Ordering::Release);
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
        let mut drain = ctx.begin_drain();
        for seq in 0..10 {
            assert_eq!(drain.pop_rx().unwrap().envelope.seq, seq);
        }
        assert!(drain.pop_rx().is_none());
    }

    #[test]
    fn batch_pops_respect_the_limit_and_order() {
        let ctx = NetworkContext::new(1, 0);
        for seq in 0..5 {
            ctx.post_rx(packet(seq));
            ctx.post_completion(Completion {
                token: seq,
                kind: CompletionKind::SendDone,
            });
        }
        let mut drain = ctx.begin_drain();
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
        ctx.post_completion(Completion {
            token: 9,
            kind: CompletionKind::SendDone,
        });
        let mut drain = ctx.begin_drain();
        let c = drain.pop_completion().unwrap();
        assert_eq!(c.token, 9);
        assert_eq!(c.kind, CompletionKind::SendDone);
    }

    #[test]
    fn pending_op_accounting() {
        let ctx = NetworkContext::new(0, 0);
        let in_flight: Vec<_> = (0..3).map(|_| ctx.op_started()).collect();
        assert_eq!(in_flight, vec![1, 2, 3], "each start returns the new count");
        assert_eq!(ctx.pending_ops(), 3);
        ctx.ops_finished(1);
        assert_eq!(ctx.pending_ops(), 2);
        assert_eq!(ctx.op_started(), 3);
        ctx.ops_finished(3);
        assert_eq!(ctx.pending_ops(), 0);
    }

    #[test]
    #[should_panic(expected = "ops_finished without matching op_started")]
    #[cfg(debug_assertions)]
    fn retiring_more_than_started_is_detected() {
        let ctx = NetworkContext::new(0, 0);
        ctx.op_started();
        ctx.ops_finished(2);
    }

    #[test]
    fn has_work_reflects_queues() {
        let ctx = NetworkContext::with_rx_slots(0, 0, 2);
        for seq in 0..3 {
            ctx.post_rx(packet(seq));
        }
        let mut drain = ctx.begin_drain();
        assert!(ctx.has_work(), "ring");
        assert_eq!(drain.pop_packets(2, &mut Vec::new()), 2);
        assert!(ctx.has_work(), "spilled packet behind an empty ring");
        assert_eq!(drain.pop_rx().unwrap().envelope.seq, 2);
        assert!(!ctx.has_work());
        ctx.post_completion(Completion {
            token: 0,
            kind: CompletionKind::SendDone,
        });
        assert!(ctx.has_work(), "completion queue");
        drain.pop_completion().unwrap();
        assert!(!ctx.has_work());
    }

    #[test]
    #[should_panic(expected = "concurrent drain")]
    #[cfg(debug_assertions)]
    fn concurrent_drain_is_detected() {
        let ctx = NetworkContext::new(0, 0);
        let _a = ctx.begin_drain();
        let _b = ctx.begin_drain();
    }

    #[test]
    fn drain_guard_releases_on_drop() {
        let ctx = NetworkContext::new(0, 0);
        drop(ctx.begin_drain());
        // Second drain succeeds after the first guard is dropped.
        let _again = ctx.begin_drain();
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
        let mut drain = ctx.begin_drain();
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
        let mut drain = ctx.begin_drain();
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
        let mut drain = ctx.begin_drain();
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
                ctx.begin_drain().pop_packets(budget, &mut got);
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
