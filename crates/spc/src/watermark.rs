//! Watermark cells: high/low extremes of a fluctuating level.
//!
//! The monotonic [`crate::Counter`]s cover event *counts*; MPI_T's
//! `MPI_T_PVAR_CLASS_HIGHWATERMARK` / `MPI_T_PVAR_CLASS_LOWWATERMARK`
//! classes instead track the extreme values a *level* reached — queue
//! depths, in-flight operation counts. Each [`Watermark`] id owns one
//! [`WatermarkCell`] in an [`crate::SpcSet`] recording both extremes of the
//! same level, so one probe call feeds both the high- and low-watermark
//! pvars the `fairmpi-mpit` registry exposes.

use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of one watermarked level.
///
/// Like [`crate::Counter`], the discriminant doubles as the cell index, so
/// the enum must stay dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum Watermark {
    /// Posted-receive queue depth observed at each post/match.
    PostedRecvQueueDepth,
    /// Unexpected-message queue depth observed at each insert/match.
    UnexpectedQueueDepth,
    /// Out-of-sequence messages parked across all sources.
    OutOfSequenceBuffered,
    /// Operations injected on an instance but not yet completed, sampled at
    /// each injection (the paper's per-CRI in-flight depth).
    InstancePendingOps,
    /// Receive-ring depth sampled at each wire delivery (how far the
    /// progress engine lags injection).
    InstanceRxDepth,
    /// Offload command-queue depth sampled at each enqueue (how far the
    /// offload workers lag the producing application threads).
    OffloadQueueDepth,
}

impl Watermark {
    /// Total number of watermark cells in every [`crate::SpcSet`].
    pub const COUNT: usize = Watermark::OffloadQueueDepth as usize + 1;

    /// All watermarks in index order.
    pub const ALL: [Watermark; Watermark::COUNT] = [
        Watermark::PostedRecvQueueDepth,
        Watermark::UnexpectedQueueDepth,
        Watermark::OutOfSequenceBuffered,
        Watermark::InstancePendingOps,
        Watermark::InstanceRxDepth,
        Watermark::OffloadQueueDepth,
    ];

    /// Stable machine-readable name of the underlying level.
    pub fn name(self) -> &'static str {
        match self {
            Watermark::PostedRecvQueueDepth => "posted_recv_queue_depth",
            Watermark::UnexpectedQueueDepth => "unexpected_queue_depth",
            Watermark::OutOfSequenceBuffered => "out_of_sequence_buffered",
            Watermark::InstancePendingOps => "instance_pending_ops",
            Watermark::InstanceRxDepth => "instance_rx_depth",
            Watermark::OffloadQueueDepth => "offload_queue_depth",
        }
    }

    /// Index of the cell inside an [`crate::SpcSet`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One high/low watermark pair over a level.
///
/// Standalone so that subsystems without an `SpcSet` at hand (the fabric's
/// per-context telemetry) can embed the same cell; updates are relaxed
/// `fetch_max`/`fetch_min`, so recording from many threads never blocks.
#[derive(Debug)]
pub struct WatermarkCell {
    high: AtomicU64,
    /// `u64::MAX` until the first record (an untouched low watermark reads
    /// as 0, see [`WatermarkCell::low`]).
    low: AtomicU64,
}

impl Default for WatermarkCell {
    fn default() -> Self {
        Self::new()
    }
}

impl WatermarkCell {
    /// A cell with no recorded samples.
    pub const fn new() -> Self {
        Self {
            high: AtomicU64::new(0),
            low: AtomicU64::new(u64::MAX),
        }
    }

    /// Fold one observation of the level into both extremes. Each extreme
    /// only moves one way, so a plain load that finds it already beyond
    /// `level` settles the sample without a read-modify-write (a stale
    /// load only ever sends the sample to the atomic update).
    #[inline]
    pub fn record(&self, level: u64) {
        if level > self.high.load(Ordering::Relaxed) {
            self.high.fetch_max(level, Ordering::Relaxed);
        }
        if level < self.low.load(Ordering::Relaxed) {
            self.low.fetch_min(level, Ordering::Relaxed);
        }
    }

    /// Highest level recorded (0 if never recorded).
    #[inline]
    pub fn high(&self) -> u64 {
        self.high.load(Ordering::Relaxed)
    }

    /// Lowest level recorded (0 if never recorded).
    #[inline]
    pub fn low(&self) -> u64 {
        let v = self.low.load(Ordering::Relaxed);
        if v == u64::MAX {
            0
        } else {
            v
        }
    }

    /// Whether any sample was recorded.
    #[inline]
    pub fn touched(&self) -> bool {
        self.high.load(Ordering::Relaxed) != 0 || self.low.load(Ordering::Relaxed) != u64::MAX
    }

    /// Forget all samples (see [`crate::SpcSet::reset`] for the concurrency
    /// contract).
    pub fn reset(&self) {
        self.high.store(0, Ordering::Relaxed);
        self.low.store(u64::MAX, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_cell_reads_zero() {
        let c = WatermarkCell::new();
        assert_eq!(c.high(), 0);
        assert_eq!(c.low(), 0);
        assert!(!c.touched());
    }

    #[test]
    fn record_tracks_both_extremes() {
        let c = WatermarkCell::new();
        c.record(7);
        c.record(3);
        c.record(11);
        assert_eq!(c.high(), 11);
        assert_eq!(c.low(), 3);
        assert!(c.touched());
    }

    #[test]
    fn reset_forgets_samples() {
        let c = WatermarkCell::new();
        c.record(9);
        c.reset();
        assert_eq!(c.high(), 0);
        assert_eq!(c.low(), 0);
        assert!(!c.touched());
    }

    #[test]
    fn concurrent_updates_keep_true_extremes() {
        use std::sync::Arc;
        let c = Arc::new(WatermarkCell::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    // Thread t records levels t*1000+1 ..= t*1000+1000.
                    for i in 1..=1000u64 {
                        c.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.high(), 8000, "true max across 8 threads");
        assert_eq!(c.low(), 1, "true min across 8 threads");
    }

    #[test]
    fn watermark_ids_are_dense() {
        for (i, w) in Watermark::ALL.iter().enumerate() {
            assert_eq!(w.index(), i);
        }
        let mut names: Vec<&str> = Watermark::ALL.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Watermark::COUNT);
    }
}
