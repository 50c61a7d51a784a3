//! The performance-variable registry: enumeration and raw reads.

use std::sync::Arc;

use fairmpi_spc::{Counter, Histogram, SpcSet, Watermark};

use crate::pvar::{MpitError, PvarBind, PvarClass, PvarInfo, PvarValue};

/// Where one pvar's data lives inside the [`SpcSet`].
#[derive(Debug, Clone, Copy)]
enum PvarSource {
    Counter(Counter),
    WatermarkHigh(Watermark),
    WatermarkLow(Watermark),
    Histogram(Histogram),
}

/// The set of performance variables exported by one rank's [`SpcSet`].
///
/// Mirrors `MPI_T_pvar_get_num` ([`PvarRegistry::num_pvars`]),
/// `MPI_T_pvar_get_info` ([`PvarRegistry::info`]) and
/// `MPI_T_pvar_get_index` ([`PvarRegistry::index_of`]). Variable indices
/// are stable for the life of the registry, as MPI_T requires.
pub struct PvarRegistry {
    spc: Arc<SpcSet>,
    vars: Vec<(PvarInfo, PvarSource)>,
}

fn counter_info(c: Counter) -> PvarInfo {
    // MatchTimeNanos accumulates nanoseconds, not events: TIMER class,
    // exactly like OMPI exposes OMPI_SPC_MATCH_TIME.
    let class = if c == Counter::MatchTimeNanos || c == Counter::RetryBackoffNanos {
        PvarClass::Timer
    } else {
        PvarClass::Counter
    };
    PvarInfo {
        name: c.name().to_string(),
        desc: counter_desc(c),
        class,
        bind: PvarBind::NoObject,
        readonly: true,
        continuous: false,
    }
}

fn counter_desc(c: Counter) -> &'static str {
    match c {
        Counter::MessagesSent => "point-to-point messages handed to the network",
        Counter::MessagesReceived => "messages fully matched and delivered",
        Counter::BytesSent => "bytes injected including the matching envelope",
        Counter::BytesReceived => "payload bytes delivered to user buffers",
        Counter::OutOfSequenceMessages => {
            "messages buffered because their sequence number was not next (OMPI_SPC_OUT_OF_SEQUENCE)"
        }
        Counter::MatchTimeNanos => {
            "nanoseconds spent inside the matching critical section (OMPI_SPC_MATCH_TIME)"
        }
        Counter::UnexpectedMessages => {
            "messages that arrived before a matching receive (OMPI_SPC_UNEXPECTED)"
        }
        Counter::ExpectedMessages => "messages matched directly against a posted receive",
        Counter::MaxPostedRecvQueueLen => "high-water mark of the posted-receive queue",
        Counter::MaxUnexpectedQueueLen => "high-water mark of the unexpected-message queue",
        Counter::MaxOutOfSequenceBuffered => "high-water mark of the out-of-sequence buffer",
        Counter::MatchQueueTraversals => "queue entries traversed during matching searches",
        Counter::OvertakenMessages => "messages admitted without sequence validation",
        Counter::EagerSends => "sends below the eager threshold",
        Counter::RendezvousSends => "sends using the rendezvous protocol",
        Counter::RmaPuts => "one-sided put operations initiated",
        Counter::RmaGets => "one-sided get operations initiated",
        Counter::RmaAccumulates => "one-sided accumulate operations initiated",
        Counter::RmaFlushes => "window flush synchronizations completed",
        Counter::CriRoundRobinAssignments => "draws from Algorithm 1's round-robin counter",
        Counter::CriDedicatedHits => "CRI acquisitions served from dedicated state",
        Counter::InstanceTryLockFailures => "failed try_lock attempts on an instance",
        Counter::InstanceLockAcquisitions => "successful instance lock acquisitions",
        Counter::ProgressCalls => "calls into the progress engine",
        Counter::CompletionsDrained => {
            "completion events plus rx packets drained by progress passes"
        }
        Counter::ProgressFallbackSweeps => "progress passes that swept beyond the assigned instance",
        Counter::ProgressUsefulPasses => "progress passes that produced at least one completion",
        Counter::ProgressWastedPasses => "progress passes that produced nothing",
        Counter::OffloadCommands => "command descriptors enqueued to offload workers",
        Counter::OffloadBatches => "command batches drained by offload workers",
        Counter::OffloadBackpressureStalls => {
            "enqueue attempts stalled or rejected by a full offload command queue"
        }
        Counter::ChaosDrops => "packets dropped on the wire by the active fault plan",
        Counter::ChaosDups => "packets duplicated on the wire by the active fault plan",
        Counter::ChaosReorders => "packets held back past a later packet by the fault plan",
        Counter::ChaosRefusals => "injection attempts transiently refused by the fault plan",
        Counter::Retransmits => "frames re-injected after an acknowledgment timeout",
        Counter::RetryBackoffNanos => "nanoseconds of exponential backoff between retransmits",
        Counter::DuplicatesSuppressed => "already-delivered frames discarded by receiver dedup",
        Counter::CriFailovers => "dead instances quarantined with pending frames re-queued",
        Counter::WatchdogTrips => "stall-watchdog firings while recovery made no progress",
    }
}

fn watermark_desc(w: Watermark) -> &'static str {
    match w {
        Watermark::PostedRecvQueueDepth => "posted-receive queue depth",
        Watermark::UnexpectedQueueDepth => "unexpected-message queue depth",
        Watermark::OutOfSequenceBuffered => "out-of-sequence messages parked",
        Watermark::InstancePendingOps => "in-flight operations per instance at injection",
        Watermark::InstanceRxDepth => {
            "packets one progress visit drained from an instance's receive ring"
        }
        Watermark::OffloadQueueDepth => "offload command-queue depth at enqueue",
    }
}

fn histogram_desc(h: Histogram) -> &'static str {
    match h {
        Histogram::MatchDeliverAttempts => "PRQ entries inspected per incoming-message match",
        Histogram::MatchPostAttempts => "UMQ entries inspected per posted receive",
        Histogram::DrainBatchSize => "items extracted per progress-engine visit",
        Histogram::OosReplayChain => "out-of-sequence messages replayed per in-sequence arrival",
    }
}

impl PvarRegistry {
    /// Enumerate every variable the given counter set can answer for.
    ///
    /// Layout: all [`Counter`]s in index order, then for each [`Watermark`]
    /// a `<name>_hwm` high- and `<name>_lwm` low-watermark pair, then each
    /// [`Histogram`] as `<name>_hist`.
    pub fn new(spc: Arc<SpcSet>) -> Self {
        let mut vars = Vec::with_capacity(Counter::COUNT + 2 * Watermark::COUNT + Histogram::COUNT);
        for c in Counter::ALL {
            vars.push((counter_info(c), PvarSource::Counter(c)));
        }
        for w in Watermark::ALL {
            // Watermarks are readonly *and* continuous: they track a live
            // level, so MPI_T forbids start/stop on them (the same shape as
            // OMPI's water-mark SPC pvars).
            vars.push((
                PvarInfo {
                    name: format!("{}_hwm", w.name()),
                    desc: watermark_desc(w),
                    class: PvarClass::HighWatermark,
                    bind: PvarBind::NoObject,
                    readonly: true,
                    continuous: true,
                },
                PvarSource::WatermarkHigh(w),
            ));
            vars.push((
                PvarInfo {
                    name: format!("{}_lwm", w.name()),
                    desc: watermark_desc(w),
                    class: PvarClass::LowWatermark,
                    bind: PvarBind::NoObject,
                    readonly: true,
                    continuous: true,
                },
                PvarSource::WatermarkLow(w),
            ));
        }
        for h in Histogram::ALL {
            vars.push((
                PvarInfo {
                    name: format!("{}_hist", h.name()),
                    desc: histogram_desc(h),
                    class: PvarClass::Histogram,
                    bind: PvarBind::NoObject,
                    readonly: true,
                    continuous: false,
                },
                PvarSource::Histogram(h),
            ));
        }
        Self { spc, vars }
    }

    /// Number of exported variables (`MPI_T_pvar_get_num`).
    pub fn num_pvars(&self) -> usize {
        self.vars.len()
    }

    /// Metadata for variable `index` (`MPI_T_pvar_get_info`).
    pub fn info(&self, index: usize) -> Result<&PvarInfo, MpitError> {
        self.vars
            .get(index)
            .map(|(i, _)| i)
            .ok_or(MpitError::InvalidIndex)
    }

    /// Look a variable up by name (`MPI_T_pvar_get_index`).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|(i, _)| i.name == name)
    }

    /// The counter set this registry reads from.
    pub fn spc(&self) -> &Arc<SpcSet> {
        &self.spc
    }

    /// Read the current global value of variable `index`, with no session
    /// baseline applied.
    pub fn read_raw(&self, index: usize) -> Result<PvarValue, MpitError> {
        let (_, source) = self.vars.get(index).ok_or(MpitError::InvalidIndex)?;
        Ok(match *source {
            PvarSource::Counter(c) => PvarValue::Scalar(self.spc.get(c)),
            PvarSource::WatermarkHigh(w) => PvarValue::Scalar(self.spc.watermark(w).high()),
            PvarSource::WatermarkLow(w) => PvarValue::Scalar(self.spc.watermark(w).low()),
            PvarSource::Histogram(h) => {
                let cell = self.spc.histogram(h);
                PvarValue::Histogram {
                    buckets: cell.snapshot(),
                    sum: cell.sum(),
                    count: cell.count(),
                }
            }
        })
    }
}
