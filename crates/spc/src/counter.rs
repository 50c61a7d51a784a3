//! The counter namespace.
//!
//! Names mirror the OMPI SPC counters used in the paper where one exists
//! (`OMPI_SPC_OUT_OF_SEQUENCE`, `OMPI_SPC_MATCH_TIME`, ...); the remainder
//! cover the additional design axes this reproduction instruments (CRI
//! assignment, try-lock failures, progress sweeps).

/// Identifier of one software performance counter.
///
/// The discriminant doubles as the index into an [`crate::SpcSet`], so the
/// enum must stay dense (no explicit discriminants, no gaps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum Counter {
    // ---- message volume (OMPI: OMPI_SPC_SENT / RECEIVED) ----
    /// Point-to-point messages handed to the network (per send initiation).
    MessagesSent,
    /// Point-to-point messages fully matched and delivered to a receive.
    MessagesReceived,
    /// Bytes injected, including the matching envelope (28 B in Open MPI).
    BytesSent,
    /// Payload bytes delivered to user receive buffers.
    BytesReceived,

    // ---- matching engine (the Table II counters) ----
    /// Messages whose sequence number did not match the expected one and had
    /// to be buffered for later (OMPI: `OMPI_SPC_OUT_OF_SEQUENCE`).
    OutOfSequenceMessages,
    /// Total virtual/real nanoseconds spent inside the matching critical
    /// section (OMPI: `OMPI_SPC_MATCH_TIME`, reported in ms in Table II).
    /// Exact under virtual time; on real threads a sampled estimate (the
    /// runtime times one hold in several and scales it up).
    MatchTimeNanos,
    /// Messages that arrived before a matching receive was posted
    /// (OMPI: `OMPI_SPC_UNEXPECTED`).
    UnexpectedMessages,
    /// Messages matched directly against an already-posted receive.
    ExpectedMessages,
    /// High-water mark of the posted-receive queue length.
    MaxPostedRecvQueueLen,
    /// High-water mark of the unexpected-message queue length.
    MaxUnexpectedQueueLen,
    /// High-water mark of the out-of-sequence buffer size.
    MaxOutOfSequenceBuffered,
    /// Sum of queue entries traversed during matching searches (queue-search
    /// cost proxy; grows with wildcard misses and out-of-order matching).
    MatchQueueTraversals,
    /// Messages admitted without sequence validation because the
    /// communicator allows overtaking (`mpi_assert_allow_overtaking`).
    OvertakenMessages,

    // ---- protocol selection ----
    /// Sends below the eager threshold (header + inline payload).
    EagerSends,
    /// Sends that used the rendezvous (RTS/CTS/DATA) protocol.
    RendezvousSends,

    // ---- one-sided ----
    /// `put` operations initiated.
    RmaPuts,
    /// `get` operations initiated.
    RmaGets,
    /// `accumulate`/`fetch_and_op` operations initiated.
    RmaAccumulates,
    /// Window flush synchronizations completed.
    RmaFlushes,

    // ---- CRI / progress engine ----
    /// Draws from Algorithm 1's round-robin counter: round-robin
    /// acquisitions and dedicated bindings, never progress visits.
    CriRoundRobinAssignments,
    /// CRI acquisitions served from thread-local (dedicated) state.
    CriDedicatedHits,
    /// Failed `try_lock` attempts on an instance (another thread held it).
    InstanceTryLockFailures,
    /// Successful instance lock acquisitions.
    InstanceLockAcquisitions,
    /// Calls into the progress engine.
    ProgressCalls,
    /// Items progress drained from instances: completion events *plus*
    /// rx packets, so a message with one send completion reads 2.
    CompletionsDrained,
    /// Progress calls that found no completion on the dedicated instance and
    /// swept the other instances (Algorithm 2 fallback path).
    ProgressFallbackSweeps,
    /// Progress passes that produced at least one user-visible completion.
    ProgressUsefulPasses,
    /// Progress passes that produced nothing — pure overhead spent polling
    /// (the wasted share of the progress budget).
    ProgressWastedPasses,

    // ---- software offload (fairmpi-offload) ----
    /// Command descriptors enqueued onto an offload command queue.
    OffloadCommands,
    /// Batches drained from the command queue by offload workers (commands
    /// per batch = `offload_commands / offload_batches`).
    OffloadBatches,
    /// Enqueue attempts that found the command queue full and had to stall
    /// (spin/yield) or fail fast, depending on the backpressure policy.
    OffloadBackpressureStalls,

    // ---- fault injection + recovery (fairmpi-chaos) ----
    /// Packets dropped on the wire by the active fault plan.
    ChaosDrops,
    /// Packets duplicated on the wire by the active fault plan.
    ChaosDups,
    /// Packets reordered (held back past a later packet) by the fault plan.
    ChaosReorders,
    /// Injection attempts transiently refused (CQ-full / `ENOBUFS`).
    ChaosRefusals,
    /// Packets re-injected by the reliability layer after a timeout or
    /// refusal.
    Retransmits,
    /// Total nanoseconds of exponential backoff scheduled between retries.
    RetryBackoffNanos,
    /// Duplicate packets suppressed by receiver-side sequence tracking.
    DuplicatesSuppressed,
    /// Communication instances quarantined after permanent death, with their
    /// traffic failed over to survivors.
    CriFailovers,
    /// Progress watchdog trips: no completion within the stall budget.
    WatchdogTrips,
}

impl Counter {
    /// Total number of counters; the size of every [`crate::SpcSet`].
    pub const COUNT: usize = Counter::WatchdogTrips as usize + 1;

    /// All counters in index order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::MessagesSent,
        Counter::MessagesReceived,
        Counter::BytesSent,
        Counter::BytesReceived,
        Counter::OutOfSequenceMessages,
        Counter::MatchTimeNanos,
        Counter::UnexpectedMessages,
        Counter::ExpectedMessages,
        Counter::MaxPostedRecvQueueLen,
        Counter::MaxUnexpectedQueueLen,
        Counter::MaxOutOfSequenceBuffered,
        Counter::MatchQueueTraversals,
        Counter::OvertakenMessages,
        Counter::EagerSends,
        Counter::RendezvousSends,
        Counter::RmaPuts,
        Counter::RmaGets,
        Counter::RmaAccumulates,
        Counter::RmaFlushes,
        Counter::CriRoundRobinAssignments,
        Counter::CriDedicatedHits,
        Counter::InstanceTryLockFailures,
        Counter::InstanceLockAcquisitions,
        Counter::ProgressCalls,
        Counter::CompletionsDrained,
        Counter::ProgressFallbackSweeps,
        Counter::ProgressUsefulPasses,
        Counter::ProgressWastedPasses,
        Counter::OffloadCommands,
        Counter::OffloadBatches,
        Counter::OffloadBackpressureStalls,
        Counter::ChaosDrops,
        Counter::ChaosDups,
        Counter::ChaosReorders,
        Counter::ChaosRefusals,
        Counter::Retransmits,
        Counter::RetryBackoffNanos,
        Counter::DuplicatesSuppressed,
        Counter::CriFailovers,
        Counter::WatchdogTrips,
    ];

    /// Stable machine-readable name (used in CSV/JSON output).
    pub fn name(self) -> &'static str {
        match self {
            Counter::MessagesSent => "messages_sent",
            Counter::MessagesReceived => "messages_received",
            Counter::BytesSent => "bytes_sent",
            Counter::BytesReceived => "bytes_received",
            Counter::OutOfSequenceMessages => "out_of_sequence_messages",
            Counter::MatchTimeNanos => "match_time_ns",
            Counter::UnexpectedMessages => "unexpected_messages",
            Counter::ExpectedMessages => "expected_messages",
            Counter::MaxPostedRecvQueueLen => "max_posted_recv_queue_len",
            Counter::MaxUnexpectedQueueLen => "max_unexpected_queue_len",
            Counter::MaxOutOfSequenceBuffered => "max_out_of_sequence_buffered",
            Counter::MatchQueueTraversals => "match_queue_traversals",
            Counter::OvertakenMessages => "overtaken_messages",
            Counter::EagerSends => "eager_sends",
            Counter::RendezvousSends => "rendezvous_sends",
            Counter::RmaPuts => "rma_puts",
            Counter::RmaGets => "rma_gets",
            Counter::RmaAccumulates => "rma_accumulates",
            Counter::RmaFlushes => "rma_flushes",
            Counter::CriRoundRobinAssignments => "cri_round_robin_assignments",
            Counter::CriDedicatedHits => "cri_dedicated_hits",
            Counter::InstanceTryLockFailures => "instance_try_lock_failures",
            Counter::InstanceLockAcquisitions => "instance_lock_acquisitions",
            Counter::ProgressCalls => "progress_calls",
            Counter::CompletionsDrained => "completions_drained",
            Counter::ProgressFallbackSweeps => "progress_fallback_sweeps",
            Counter::ProgressUsefulPasses => "progress_useful_passes",
            Counter::ProgressWastedPasses => "progress_wasted_passes",
            Counter::OffloadCommands => "offload_commands",
            Counter::OffloadBatches => "offload_batches",
            Counter::OffloadBackpressureStalls => "offload_backpressure_stalls",
            Counter::ChaosDrops => "chaos_drops",
            Counter::ChaosDups => "chaos_dups",
            Counter::ChaosReorders => "chaos_reorders",
            Counter::ChaosRefusals => "chaos_refusals",
            Counter::Retransmits => "retransmits",
            Counter::RetryBackoffNanos => "retry_backoff_ns",
            Counter::DuplicatesSuppressed => "duplicates_suppressed",
            Counter::CriFailovers => "cri_failovers",
            Counter::WatchdogTrips => "watchdog_trips",
        }
    }

    /// Index of the counter inside an [`crate::SpcSet`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}
