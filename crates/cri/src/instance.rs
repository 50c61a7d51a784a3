//! A single communication resources instance and its lock guard.

use std::sync::Arc;

use fairmpi_fabric::{
    busy_wait_ns, Completion, CompletionKind, DrainGuard, Fabric, NetworkContext, Packet,
};
use fairmpi_spc::{Counter, SpcSet, Watermark};

/// One communication resources instance: a network context (with its rx
/// ring and completion queue) and the lock that protects it, which is the
/// context's own.
///
/// Contention observability comes from the sync facade: the context's lock
/// is a [`fairmpi_sync::Mutex::named`] instance (`cri.instance[k]`), so
/// under the `traced` backend every acquire latency, hold time, and
/// try-lock failure lands in fairmpi-trace without any hand-rolled hooks
/// here.
#[derive(Debug)]
pub struct Cri {
    index: usize,
    context: Arc<NetworkContext>,
}

impl Cri {
    pub(crate) fn new(index: usize, context: Arc<NetworkContext>) -> Self {
        Self { index, context }
    }

    /// Position of this instance in its pool (== its context index).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The bundled network context.
    pub fn context(&self) -> &Arc<NetworkContext> {
        &self.context
    }

    /// Operations injected on this instance that have not yet completed.
    pub fn pending_ops(&self) -> u64 {
        self.context.pending_ops()
    }

    /// Cheap peek: does this instance have packets or completions waiting?
    pub fn has_work(&self) -> bool {
        self.context.has_work()
    }

    /// Whether the bundled context still works (the fault plan may have
    /// permanently killed it).
    pub fn is_alive(&self) -> bool {
        self.context.is_alive()
    }

    /// Acquire the instance, blocking on contention (paper Algorithm 1's
    /// `LOCK(instance[k] → lock)`).
    pub fn lock<'a>(&'a self, spc: &SpcSet) -> CriGuard<'a> {
        let drain = self.context.lock();
        spc.inc(Counter::InstanceLockAcquisitions);
        CriGuard { cri: self, drain }
    }

    /// Try to acquire the instance without blocking.
    ///
    /// Failure means another thread is working this instance — paper §III-C:
    /// *"we can be certain that a thread is progressing that particular code
    /// path, and therefore, the current thread can move on"*.
    pub fn try_lock<'a>(&'a self, spc: &SpcSet) -> Option<CriGuard<'a>> {
        match self.context.try_lock() {
            Some(drain) => {
                spc.inc(Counter::InstanceLockAcquisitions);
                Some(CriGuard { cri: self, drain })
            }
            None => {
                spc.inc(Counter::InstanceTryLockFailures);
                None
            }
        }
    }
}

/// Exclusive access to one instance: the only way to inject or drain.
///
/// The guard holds the context's own lock, so posting a completion or
/// draining takes no second one. All per-message hardware costs (injection
/// overhead) are charged while the guard is held, so lock contention in the
/// runtime behaves like contention on the real NIC resource.
pub struct CriGuard<'a> {
    cri: &'a Cri,
    drain: DrainGuard<'a>,
}

impl<'a> CriGuard<'a> {
    /// The instance this guard holds.
    pub fn cri(&self) -> &'a Cri {
        self.cri
    }

    /// Inject a two-sided packet toward its destination and report the send
    /// completion on this instance's completion queue.
    pub fn send(&self, fabric: &Fabric, packet: Packet, token: u64, spc: &SpcSet) {
        let cfg = fabric.config();
        let wire_len = packet.wire_len(cfg.envelope_bytes);
        // The context behaves like a synchronous DMA engine: it is occupied
        // for the larger of the injection overhead and the serialization
        // time, which is what makes large messages bandwidth-bound.
        busy_wait_ns(
            cfg.injection_overhead_ns
                .max(cfg.serialization_time_ns(packet.payload.len())),
        );
        fabric.deliver(packet, self.cri.index);
        spc.inc(Counter::MessagesSent);
        spc.add(Counter::BytesSent, wire_len as u64);
        // Eager-style local completion: the payload left the user buffer.
        let in_flight = self.drain.post_completion(Completion {
            token,
            kind: CompletionKind::SendDone,
        });
        spc.record_level(Watermark::InstancePendingOps, in_flight);
    }

    /// Inject one reliability-layer frame through the armed fault plan.
    ///
    /// Charges injection occupancy like [`CriGuard::send`] but reports no
    /// local `SendDone` and tracks no pending op — under a fault plan the
    /// sender's request is completed by the receiver's ack, not by local
    /// injection. Message-volume counters are charged on the first attempt
    /// only, so retransmits never inflate the workload's message count.
    pub fn send_frame(&self, fabric: &Fabric, packet: Packet, first_attempt: bool, spc: &SpcSet) {
        let cfg = fabric.config();
        let wire_len = packet.wire_len(cfg.envelope_bytes);
        busy_wait_ns(
            cfg.injection_overhead_ns
                .max(cfg.serialization_time_ns(packet.payload.len())),
        );
        if first_attempt {
            spc.inc(Counter::MessagesSent);
            spc.add(Counter::BytesSent, wire_len as u64);
        }
        fabric.deliver_observed(packet, self.cri.index, spc);
    }

    /// Report a locally generated completion (e.g. an RMA op that finished
    /// against in-process memory) on this instance's CQ.
    pub fn post_completion(&self, completion: Completion) {
        self.drain.post_completion(completion);
    }

    /// Drain the bundled context's queues under this guard. Charging
    /// extraction overhead per popped item is the caller's job (the
    /// progress engine does it), since batch size varies.
    pub fn begin_drain(&mut self) -> &mut DrainGuard<'a> {
        &mut self.drain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairmpi_fabric::{Envelope, FabricConfig};

    fn fabric() -> Fabric {
        Fabric::new(2, 2, FabricConfig::test_default())
    }

    fn cri_for(fabric: &Fabric, rank: u32, idx: usize) -> Cri {
        Cri::new(idx, Arc::clone(fabric.context(rank, idx)))
    }

    fn packet(dst: u32) -> Packet {
        Packet::eager(
            Envelope {
                src: 0,
                dst,
                comm: 0,
                tag: 1,
                seq: 0,
            },
            vec![1, 2, 3],
        )
    }

    #[test]
    fn send_delivers_and_completes_locally() {
        let fabric = fabric();
        let spc = SpcSet::new();
        let cri = cri_for(&fabric, 0, 1);
        {
            let guard = cri.lock(&spc);
            guard.send(&fabric, packet(1), 42, &spc);
        }
        // Routed to dst context 1 (src ctx 1 % 2 contexts).
        let dst = fabric.context(1, 1);
        let mut drain = dst.lock();
        assert_eq!(drain.pop_rx().unwrap().payload, vec![1, 2, 3]);
        drop(drain);
        // Local completion waits on the sender's own CQ.
        assert_eq!(cri.pending_ops(), 1, "completion not yet consumed");
        let mut guard = cri.lock(&spc);
        let c = guard.begin_drain().pop_completion().unwrap();
        assert_eq!(c.token, 42);
        assert_eq!(spc.get(Counter::MessagesSent), 1);
        assert_eq!(spc.get(Counter::BytesSent), 28 + 3);
        assert_eq!(
            cri.pending_ops(),
            0,
            "popping the completion retires the op"
        );
    }

    #[test]
    fn try_lock_fails_while_held_and_counts() {
        let fabric = fabric();
        let spc = SpcSet::new();
        let cri = cri_for(&fabric, 0, 0);
        let guard = cri.lock(&spc);
        assert!(cri.try_lock(&spc).is_none());
        assert_eq!(spc.get(Counter::InstanceTryLockFailures), 1);
        drop(guard);
        assert!(cri.try_lock(&spc).is_some());
        assert_eq!(spc.get(Counter::InstanceLockAcquisitions), 2);
    }

    #[test]
    fn has_work_tracks_rx_and_cq() {
        let fabric = fabric();
        let spc = SpcSet::new();
        let sender = cri_for(&fabric, 0, 0);
        let receiver_ctx = fabric.context(1, 0);
        assert!(!sender.has_work());
        sender.lock(&spc).send(&fabric, packet(1), 1, &spc);
        assert!(sender.has_work(), "send completion pending");
        assert!(receiver_ctx.has_work(), "packet waiting at destination");
    }
}
