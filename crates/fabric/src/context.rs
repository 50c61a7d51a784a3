//! Network contexts: the resource the paper replicates into CRIs.

use fairmpi_spc::WatermarkCell;
use fairmpi_sync::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::{Packet, Rank};

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
/// Both queues sit behind facade locks, so they show in the traced
/// backend's contention report and the model checker can interleave them.
/// A drain takes each lock once per batch, not once per item.
#[derive(Debug)]
pub struct NetworkContext {
    /// Owning rank.
    rank: Rank,
    /// Index of this context within the rank's context table.
    index: usize,
    /// Incoming packets deposited by the wire.
    rx: Mutex<VecDeque<Packet>>,
    /// Local completion events.
    cq: Mutex<VecDeque<Completion>>,
    /// Number of operations injected but not yet completed.
    pending_ops: AtomicU64,
    /// Extremes of `pending_ops`, sampled at each injection — how deep this
    /// instance's in-flight window gets (the `fairmpi-mpit` per-instance
    /// injection/completion watermark).
    pending_watermark: WatermarkCell,
    /// Extremes of the rx-ring depth, sampled at each wire delivery — how
    /// far the progress engine lags injection on this instance.
    rx_watermark: WatermarkCell,
    /// Debug-only guard flagging a drain in progress.
    draining: AtomicBool,
    /// False once the fault plan has permanently killed this context.
    alive: AtomicBool,
}

impl NetworkContext {
    pub(crate) fn new(rank: Rank, index: usize) -> Self {
        Self {
            rank,
            index,
            rx: Mutex::named(VecDeque::new(), move || {
                format!("fabric.rx[{rank}.{index}]")
            }),
            cq: Mutex::named(VecDeque::new(), move || {
                format!("fabric.cq[{rank}.{index}]")
            }),
            pending_ops: AtomicU64::new(0),
            pending_watermark: WatermarkCell::new(),
            rx_watermark: WatermarkCell::new(),
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
        let depth = {
            let mut rx = self.rx.lock();
            rx.push_back(packet);
            rx.len()
        };
        self.rx_watermark.record(depth as u64);
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

    /// Record that an operation was injected and will complete later.
    pub fn op_started(&self) {
        let now = self.pending_ops.fetch_add(1, Ordering::Relaxed) + 1;
        self.pending_watermark.record(now);
    }

    /// Record that an injected operation completed.
    pub fn op_finished(&self) {
        let prev = self.pending_ops.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "op_finished without matching op_started");
    }

    /// Operations injected on this context that have not completed yet.
    pub fn pending_ops(&self) -> u64 {
        self.pending_ops.load(Ordering::Relaxed)
    }

    /// High/low extremes of the in-flight operation count, sampled at each
    /// injection.
    pub fn pending_watermark(&self) -> &WatermarkCell {
        &self.pending_watermark
    }

    /// High/low extremes of the rx-ring depth, sampled at each delivery.
    pub fn rx_watermark(&self) -> &WatermarkCell {
        &self.rx_watermark
    }

    /// Whether any packet or completion is waiting (cheap peek for progress
    /// heuristics; may race, callers must tolerate both outcomes).
    pub fn has_work(&self) -> bool {
        !self.rx.lock().is_empty() || !self.cq.lock().is_empty()
    }

    /// Begin draining this context. Enforces (in debug builds) that only one
    /// thread drains at a time — the invariant the CRI lock exists to
    /// provide. Returns a guard; draining methods are on the guard.
    pub fn begin_drain(&self) -> DrainGuard<'_> {
        let was = self.draining.swap(true, Ordering::Acquire);
        debug_assert!(
            !was,
            "concurrent drain of context {}/{}: the caller failed to hold \
             the instance lock",
            self.rank, self.index
        );
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
        self.ctx.rx.lock().pop_front()
    }

    /// Pop one completion event, if any.
    pub fn pop_completion(&mut self) -> Option<Completion> {
        self.ctx.cq.lock().pop_front()
    }

    /// Move up to `max` incoming packets, oldest first, onto `out` under
    /// one acquisition of the ring's lock. Returns how many moved.
    pub fn pop_packets(&mut self, max: usize, out: &mut Vec<Packet>) -> usize {
        drain_front(&self.ctx.rx, max, out)
    }

    /// Move up to `max` completion events, oldest first, onto `out` under
    /// one acquisition of the queue's lock. Returns how many moved.
    pub fn pop_completions(&mut self, max: usize, out: &mut Vec<Completion>) -> usize {
        drain_front(&self.ctx.cq, max, out)
    }

    /// The context being drained.
    pub fn context(&self) -> &NetworkContext {
        self.ctx
    }
}

fn drain_front<T>(queue: &Mutex<VecDeque<T>>, max: usize, out: &mut Vec<T>) -> usize {
    let mut queue = queue.lock();
    let n = max.min(queue.len());
    if n > 0 {
        out.extend(queue.drain(..n));
    }
    n
}

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
        ctx.op_started();
        ctx.op_started();
        assert_eq!(ctx.pending_ops(), 2);
        ctx.op_finished();
        assert_eq!(ctx.pending_ops(), 1);
        ctx.op_finished();
        assert_eq!(ctx.pending_ops(), 0);
    }

    #[test]
    fn per_instance_watermarks_track_depths() {
        let ctx = NetworkContext::new(0, 0);
        ctx.post_rx(packet(0));
        ctx.post_rx(packet(1));
        assert_eq!(ctx.rx_watermark().high(), 2);
        assert_eq!(ctx.rx_watermark().low(), 1);
        ctx.op_started();
        ctx.op_started();
        ctx.op_finished();
        ctx.op_started();
        // Sampled at injections only: 1, 2, then back up to 2.
        assert_eq!(ctx.pending_watermark().high(), 2);
        assert_eq!(ctx.pending_watermark().low(), 1);
    }

    #[test]
    fn dead_context_discards_deliveries() {
        let ctx = NetworkContext::new(0, 0);
        assert!(ctx.is_alive());
        ctx.post_rx(packet(0));
        ctx.kill();
        assert!(!ctx.is_alive());
        ctx.post_rx(packet(1));
        let mut drain = ctx.begin_drain();
        assert_eq!(
            drain.pop_rx().unwrap().envelope.seq,
            0,
            "pre-death traffic is still drainable"
        );
        assert!(drain.pop_rx().is_none(), "post-death traffic is discarded");
    }

    #[test]
    fn has_work_reflects_queues() {
        let ctx = NetworkContext::new(0, 0);
        assert!(!ctx.has_work());
        ctx.post_rx(packet(0));
        assert!(ctx.has_work());
        {
            let mut d = ctx.begin_drain();
            d.pop_rx();
        }
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
}
