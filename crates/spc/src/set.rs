//! The live counter storage.

use fairmpi_sync::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{Counter, Histogram, HistogramCell, SpcSnapshot, Watermark, WatermarkCell};

/// A set of live software performance counters, watermarks and histograms.
///
/// One `SpcSet` exists per simulated MPI process. Updates use relaxed atomic
/// read-modify-write on cache-line padded slots, so concurrent updates from
/// different threads never share a cache line with each other or with
/// neighboring counters — the instrumentation must not perturb the very
/// contention effects the study measures.
///
/// Beyond the original monotonic [`Counter`]s, a set carries one
/// [`WatermarkCell`] per [`Watermark`] (high/low extremes of a level) and
/// one [`HistogramCell`] per [`Histogram`] (log2-bucket distributions) —
/// the cell classes behind the `fairmpi-mpit` pvar registry's
/// HIGHWATERMARK / LOWWATERMARK / HISTOGRAM classes.
#[derive(Debug)]
pub struct SpcSet {
    slots: Box<[CachePadded<AtomicU64>]>,
    watermarks: Box<[CachePadded<WatermarkCell>]>,
    histograms: Box<[CachePadded<HistogramCell>]>,
}

impl Default for SpcSet {
    fn default() -> Self {
        Self::new()
    }
}

impl SpcSet {
    /// Create a zeroed counter set.
    pub fn new() -> Self {
        let slots = (0..Counter::COUNT)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let watermarks = (0..Watermark::COUNT)
            .map(|_| CachePadded::new(WatermarkCell::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let histograms = (0..Histogram::COUNT)
            .map(|_| CachePadded::new(HistogramCell::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            slots,
            watermarks,
            histograms,
        }
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn add(&self, counter: Counter, delta: u64) {
        self.slots[counter.index()].fetch_add(delta, Ordering::Relaxed);
    }

    /// Add `delta` to a counter, saturating at `u64::MAX` instead of
    /// wrapping. Time accumulators use this: a run long enough to overflow
    /// the nanosecond sum must pin at the ceiling, not report a tiny total.
    #[inline]
    pub fn add_saturating(&self, counter: Counter, delta: u64) {
        self.slots[counter.index()]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(delta))
            })
            .ok();
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Raise a high-water-mark counter to at least `value`.
    #[inline]
    pub fn record_max(&self, counter: Counter, value: u64) {
        let slot = &self.slots[counter.index()];
        if value > slot.load(Ordering::Relaxed) {
            slot.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Current value of one counter.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.slots[counter.index()].load(Ordering::Relaxed)
    }

    /// Record one observation of a watermarked level (updates both the high
    /// and the low extreme).
    #[inline]
    pub fn record_level(&self, watermark: Watermark, level: u64) {
        self.watermarks[watermark.index()].record(level);
    }

    /// The live watermark cell for one level.
    #[inline]
    pub fn watermark(&self, watermark: Watermark) -> &WatermarkCell {
        &self.watermarks[watermark.index()]
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn record_hist(&self, histogram: Histogram, value: u64) {
        self.histograms[histogram.index()].record(value);
    }

    /// The live histogram cell for one distribution.
    #[inline]
    pub fn histogram(&self, histogram: Histogram) -> &HistogramCell {
        &self.histograms[histogram.index()]
    }

    /// Reset every counter, watermark and histogram to its initial state.
    ///
    /// # Concurrency contract
    ///
    /// Each individual slot is a word-sized atomic, so a [`snapshot`]
    /// (or [`get`]) racing a `reset` observes, **per slot**, either the
    /// pre-reset value or a post-reset value (zero plus whatever updates
    /// landed after that slot was cleared) — never a torn mix of bits.
    /// There is **no atomicity across slots**: a concurrent snapshot may
    /// combine pre-reset values for some counters with post-reset values
    /// for others, and updates arriving while `reset` walks the slots may
    /// survive in slots the walk already passed. As with OMPI's SPC reset,
    /// call it while the measured phase is quiescent when cross-counter
    /// consistency matters.
    ///
    /// [`snapshot`]: Self::snapshot
    /// [`get`]: Self::get
    pub fn reset(&self) {
        for slot in self.slots.iter() {
            slot.store(0, Ordering::Relaxed);
        }
        for w in self.watermarks.iter() {
            w.reset();
        }
        for h in self.histograms.iter() {
            h.reset();
        }
    }

    /// Capture a point-in-time copy of all counters.
    ///
    /// The snapshot is not atomic across counters; as with OMPI's SPCs it is
    /// intended to be read while the measured phase is quiescent. Concurrent
    /// with a [`reset`](Self::reset), every individual value is still
    /// well-formed (see the reset concurrency contract), but values from
    /// before and after the reset may appear side by side.
    pub fn snapshot(&self) -> SpcSnapshot {
        let mut values = [0u64; Counter::COUNT];
        for (i, slot) in self.slots.iter().enumerate() {
            values[i] = slot.load(Ordering::Relaxed);
        }
        SpcSnapshot::from_values(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let spc = SpcSet::new();
        for c in Counter::ALL {
            assert_eq!(spc.get(c), 0, "{}", c.name());
        }
    }

    #[test]
    fn add_and_inc_accumulate() {
        let spc = SpcSet::new();
        spc.inc(Counter::MessagesSent);
        spc.add(Counter::MessagesSent, 41);
        assert_eq!(spc.get(Counter::MessagesSent), 42);
        // Other counters untouched.
        assert_eq!(spc.get(Counter::MessagesReceived), 0);
    }

    #[test]
    fn record_max_keeps_high_water_mark() {
        let spc = SpcSet::new();
        spc.record_max(Counter::MaxPostedRecvQueueLen, 7);
        spc.record_max(Counter::MaxPostedRecvQueueLen, 3);
        assert_eq!(spc.get(Counter::MaxPostedRecvQueueLen), 7);
        spc.record_max(Counter::MaxPostedRecvQueueLen, 11);
        assert_eq!(spc.get(Counter::MaxPostedRecvQueueLen), 11);
    }

    #[test]
    fn reset_zeroes_everything() {
        let spc = SpcSet::new();
        for c in Counter::ALL {
            spc.add(c, 5);
        }
        spc.reset();
        for c in Counter::ALL {
            assert_eq!(spc.get(c), 0);
        }
    }

    #[test]
    fn add_saturating_pins_at_ceiling() {
        let spc = SpcSet::new();
        spc.add(Counter::MatchTimeNanos, u64::MAX - 10);
        spc.add_saturating(Counter::MatchTimeNanos, 100);
        assert_eq!(spc.get(Counter::MatchTimeNanos), u64::MAX);
        spc.add_saturating(Counter::MatchTimeNanos, 1);
        assert_eq!(spc.get(Counter::MatchTimeNanos), u64::MAX);
    }

    #[test]
    fn watermark_and_histogram_cells_reset_with_the_set() {
        let spc = SpcSet::new();
        spc.record_level(Watermark::UnexpectedQueueDepth, 12);
        spc.record_hist(Histogram::MatchPostAttempts, 5);
        assert_eq!(spc.watermark(Watermark::UnexpectedQueueDepth).high(), 12);
        assert_eq!(spc.histogram(Histogram::MatchPostAttempts).count(), 1);
        spc.reset();
        assert_eq!(spc.watermark(Watermark::UnexpectedQueueDepth).high(), 0);
        assert_eq!(spc.histogram(Histogram::MatchPostAttempts).count(), 0);
    }

    /// The documented reset contract: per-slot values seen by a snapshot
    /// racing `reset` are either pre-reset or post-reset — a counter that
    /// only ever moves 0 → N can therefore never be observed above N or
    /// between 0 and the smallest post-reset partial sum in a torn state.
    ///
    /// A barrier holds the writers back until the observer has taken its
    /// first snapshot, so the observer is already running when the writers
    /// start and at least one snapshot is always taken (an optimized build
    /// can otherwise finish every increment before the observer is even
    /// scheduled). Whether later snapshots land during the writes is up
    /// to the scheduler.
    #[test]
    fn snapshot_concurrent_with_reset_stays_within_bounds() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Arc, Barrier};
        const PER_THREAD: u64 = 50_000;
        let spc = Arc::new(SpcSet::new());
        let stop = Arc::new(AtomicBool::new(false));
        let start = Arc::new(Barrier::new(5));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let spc = Arc::clone(&spc);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..PER_THREAD {
                        spc.inc(Counter::MessagesSent);
                    }
                })
            })
            .collect();
        let observer = {
            let spc = Arc::clone(&spc);
            let stop = Arc::clone(&stop);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut snaps = 0u64;
                loop {
                    let v = spc.snapshot()[Counter::MessagesSent];
                    // Every observed value is one some interleaving of
                    // increments and resets could produce: at most the
                    // total increment count, never torn bits.
                    assert!(v <= 4 * PER_THREAD, "impossible value {v}");
                    spc.reset();
                    snaps += 1;
                    if snaps == 1 {
                        start.wait();
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                snaps
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        assert!(observer.join().unwrap() > 0);
        // Quiescent now: one final reset leaves exactly zero.
        spc.reset();
        assert_eq!(spc.get(Counter::MessagesSent), 0);
    }

    #[test]
    fn concurrent_updates_do_not_lose_increments() {
        use std::sync::Arc;
        let spc = Arc::new(SpcSet::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let spc = Arc::clone(&spc);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        spc.inc(Counter::ProgressCalls);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(spc.get(Counter::ProgressCalls), 40_000);
    }
}
