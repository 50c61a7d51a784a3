//! The software cost model: virtual nanoseconds per runtime operation.
//!
//! Hardware costs (injection, extraction, wire, bandwidth) come from the
//! fabric config; this adds the software-path constants, calibrated so that
//! a single-threaded pair lands near the paper's ~0.5 M msg/s and the
//! contention regimes reproduce the reported ratios. Every figure harness
//! prints the model it used, and the `ablation` binary sweeps the sensitive
//! knobs.

use fairmpi_fabric::FabricConfig;
use fairmpi_matching::MatchWork;

/// Virtual-time costs of runtime operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Send-path software overhead before touching the instance
    /// (argument checking, request setup, envelope build, seq draw).
    pub send_software_ns: u64,
    /// Injection cost charged while the instance lock is held.
    pub injection_ns: u64,
    /// Extraction cost per incoming *packet* popped (header parse + buffer
    /// handoff), charged under the instance lock.
    pub extraction_ns: u64,
    /// Drain cost per local *completion queue entry* (an 8-byte CQE read —
    /// far cheaper than receiving a packet), charged under the instance
    /// lock. Dominant in the RMA flush path.
    pub cqe_drain_ns: u64,
    /// One-way wire latency.
    pub wire_latency_ns: u64,
    /// Max random extra delivery delay (drives out-of-sequence arrivals).
    pub delivery_jitter_ns: u64,
    /// Link bandwidth in bytes per microsecond.
    pub bandwidth_bytes_per_us: u64,
    /// Fixed cost of one matcher invocation (hashing the channel, epochs).
    pub match_base_ns: u64,
    /// Cost per queue entry traversed during PRQ/UMQ searches.
    pub match_traverse_ns: u64,
    /// Cost of one sequence-number validation.
    pub seq_check_ns: u64,
    /// Cost of parking one out-of-sequence message (allocation + insert —
    /// "a costly operation right in the middle of the critical path").
    pub oos_buffer_ns: u64,
    /// Cost of replaying one parked message when its turn comes.
    pub oos_drain_ns: u64,
    /// Cost of posting a receive (request setup before matching).
    pub recv_software_ns: u64,
    /// Cost of an empty progress poll on one instance.
    pub poll_empty_ns: u64,
    /// Cost of completing a matched request (status store, payload move).
    pub complete_ns: u64,
    /// Hold time of the process-shared request/descriptor pool (an atomic
    /// LIFO in Open MPI). Threads of one process serialize briefly here on
    /// every operation; separate processes have separate pools — one of the
    /// residual reasons thread mode cannot reach process mode (Fig. 5).
    pub request_pool_ns: u64,
    /// Time one message occupies the *shared* link regardless of context
    /// (the NIC's aggregate packet-rate limit). Aggregate message rate can
    /// never exceed `1e9 / max(link_msg_overhead_ns, serialization)` — the
    /// "theoretical peak" line of paper Figs. 6 and 7.
    pub link_msg_overhead_ns: u64,
    /// Software offload: lock-free enqueue of one command descriptor onto
    /// the offload command queue (ticket CAS + cache-padded slot publish).
    /// This is the *entire* per-message cost an application thread pays on
    /// the send path in offload mode — the design's selling point.
    pub offload_enqueue_ns: u64,
    /// Software offload: worker-side cost per command popped while
    /// batch-draining the command queue (slot read + seq release).
    pub offload_drain_ns: u64,
    /// Software offload: extra latency charged on the first batch after a
    /// worker went idle (the nap-and-reschedule wake-up of a sleeping
    /// dedicated thread).
    pub offload_wakeup_ns: u64,
    /// Reliable transport: base acknowledgment timeout before a dropped
    /// frame is retransmitted (doubled per attempt, as in the native
    /// runtime's backoff). Only charged when a fault plan drops frames.
    pub retransmit_timeout_ns: u64,
}

impl CostModel {
    /// Build the model for a fabric, filling in calibrated software costs.
    pub fn for_fabric(fabric: &FabricConfig) -> Self {
        Self {
            send_software_ns: 250,
            injection_ns: fabric.injection_overhead_ns,
            extraction_ns: fabric.extraction_overhead_ns,
            cqe_drain_ns: 30,
            wire_latency_ns: fabric.wire_latency_ns,
            delivery_jitter_ns: fabric.delivery_jitter_ns,
            bandwidth_bytes_per_us: fabric.bandwidth_bytes_per_us,
            match_base_ns: 60,
            match_traverse_ns: 2,
            seq_check_ns: 30,
            oos_buffer_ns: 180,
            oos_drain_ns: 60,
            recv_software_ns: 200,
            poll_empty_ns: 80,
            complete_ns: 60,
            request_pool_ns: 60,
            link_msg_overhead_ns: 35,
            offload_enqueue_ns: 40,
            offload_drain_ns: 20,
            offload_wakeup_ns: 2_000,
            retransmit_timeout_ns: 5_000,
        }
    }

    /// Aggregate (link-level) peak message rate for a payload size: the
    /// black horizontal line of paper Figs. 6 and 7.
    pub fn link_peak_msg_rate(&self, payload_len: usize, envelope: usize) -> f64 {
        let per_msg = self
            .link_msg_overhead_ns
            .max(self.serialization_ns(payload_len, envelope))
            .max(1);
        1.0e9 / per_msg as f64
    }

    /// Time one message of `payload_len` bytes occupies the link.
    pub fn serialization_ns(&self, payload_len: usize, envelope: usize) -> u64 {
        ((payload_len + envelope) as u64 * 1_000).div_ceil(self.bandwidth_bytes_per_us)
    }

    /// Injection time for a payload: the instance behaves as a synchronous
    /// DMA engine (max of overhead and serialization).
    pub fn injection_time_ns(&self, payload_len: usize, envelope: usize) -> u64 {
        self.injection_ns
            .max(self.serialization_ns(payload_len, envelope))
    }

    /// Virtual time for the matching work actually performed, as reported
    /// by the real matching engine.
    pub fn match_time_ns(&self, work: &MatchWork) -> u64 {
        self.match_base_ns
            + self.match_traverse_ns * work.traversed as u64
            + self.seq_check_ns * work.seq_checks as u64
            + self.oos_buffer_ns * work.oos_buffered as u64
            + self.oos_drain_ns * work.oos_drained as u64
            + self.complete_ns * work.matches as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::for_fabric(&FabricConfig::default())
    }

    #[test]
    fn match_time_scales_with_work() {
        let m = model();
        let cheap = m.match_time_ns(&MatchWork {
            seq_checks: 1,
            matches: 1,
            ..Default::default()
        });
        let oos = m.match_time_ns(&MatchWork {
            seq_checks: 1,
            oos_buffered: 1,
            ..Default::default()
        });
        assert!(
            oos > cheap,
            "buffering out-of-sequence must cost more than a clean match"
        );
        let deep_search = m.match_time_ns(&MatchWork {
            traversed: 100,
            matches: 1,
            ..Default::default()
        });
        assert!(deep_search > cheap);
    }

    #[test]
    fn injection_is_bandwidth_bound_for_large_payloads() {
        let m = model();
        assert_eq!(m.injection_time_ns(0, 28), m.injection_ns);
        let big = m.injection_time_ns(16 * 1024, 28);
        assert!(big > m.injection_ns);
        assert_eq!(big, m.serialization_ns(16 * 1024, 28));
    }

    #[test]
    fn costs_inherit_fabric_parameters() {
        let f = FabricConfig::default();
        let m = CostModel::for_fabric(&f);
        assert_eq!(m.injection_ns, f.injection_overhead_ns);
        assert_eq!(m.extraction_ns, f.extraction_overhead_ns);
        assert_eq!(m.delivery_jitter_ns, f.delivery_jitter_ns);
    }
}
