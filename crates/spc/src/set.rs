//! The live counter storage.

use fairmpi_sync::CachePadded;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::shard::ShardList;
use crate::{Counter, Histogram, HistogramCell, SpcSnapshot, Watermark, WatermarkCell};

/// A set of live software performance counters, watermarks and histograms.
///
/// One `SpcSet` exists per simulated MPI process.
///
/// # Layout
///
/// A [`Counter`]'s value is the sum of its slots:
///
/// * **Per-thread shards.** [`add`](Self::add), [`inc`](Self::inc) and
///   [`add_saturating`](Self::add_saturating) write the calling thread's
///   own cache-aligned block of every counter, allocated on that thread's
///   first update of this set. Only the owner writes a block, so an update
///   is a relaxed load and store: no lock prefix, and no cache line that
///   two threads write. A thread-local cache finds the block, so one
///   thread that updates a few sets in turn stays on that fast path.
///   Blocks live as long as the set, so the counts of threads that have
///   exited still count.
/// * **A base slot per counter**, cache-line padded, which
///   [`record_max`](Self::record_max) raises (load first, so a maximum that
///   does not move writes nothing) and [`reset`](Self::reset) clears.
///
/// [`get`](Self::get) and [`snapshot`](Self::snapshot) sum the base slot
/// and every shard, saturating at `u64::MAX`, and subtract the baseline
/// the last `reset` recorded. Reads cost one pass over the shards, that is
/// over the threads that ever updated the set.
///
/// Beyond the original monotonic [`Counter`]s, a set carries one
/// [`WatermarkCell`] per [`Watermark`] (high/low extremes of a level) and
/// one [`HistogramCell`] per [`Histogram`] (log2-bucket distributions) —
/// the cell classes behind the `fairmpi-mpit` pvar registry's
/// HIGHWATERMARK / LOWWATERMARK / HISTOGRAM classes. Both are shared by
/// every thread; a watermark is updated load-first, a histogram bucket by
/// `fetch_add`.
pub struct SpcSet {
    slots: Box<[CachePadded<Slot>]>,
    shards: ShardList,
    watermarks: Box<[CachePadded<WatermarkCell>]>,
    histograms: Box<[CachePadded<HistogramCell>]>,
}

/// One counter's shared state.
#[derive(Default)]
struct Slot {
    /// `record_max` maxima; zeroed by `reset`.
    base: AtomicU64,
    /// Shard sum at the last `reset`, subtracted from every read.
    baseline: AtomicU64,
}

impl Default for SpcSet {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SpcSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpcSet")
            .field("counters", &self.snapshot())
            .field("watermarks", &self.watermarks)
            .field("histograms", &self.histograms)
            .finish()
    }
}

impl SpcSet {
    /// Create a zeroed counter set. No shard exists until a thread updates
    /// the set.
    pub fn new() -> Self {
        let slots = (0..Counter::COUNT)
            .map(|_| CachePadded::new(Slot::default()))
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
            shards: ShardList::new(),
            watermarks,
            histograms,
        }
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn add(&self, counter: Counter, delta: u64) {
        self.shards.local().add(counter, delta);
    }

    /// Add `delta` to a counter, saturating at `u64::MAX` instead of
    /// wrapping. Time accumulators use this: a run long enough to overflow
    /// the nanosecond sum must pin at the ceiling, not report a tiny total.
    #[inline]
    pub fn add_saturating(&self, counter: Counter, delta: u64) {
        self.shards.local().add_saturating(counter, delta);
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Raise a high-water-mark counter to at least `value`.
    #[inline]
    pub fn record_max(&self, counter: Counter, value: u64) {
        let slot = &self.slots[counter.index()].base;
        if value > slot.load(Ordering::Relaxed) {
            slot.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Current value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        let i = counter.index();
        let slot = &self.slots[i];
        // Acquire pairs with `reset`'s Release: the shard loads below see
        // at least what the reset that wrote this baseline saw.
        let baseline = slot.baseline.load(Ordering::Acquire);
        self.shards
            .sum(i)
            .saturating_add(slot.base.load(Ordering::Relaxed))
            .saturating_sub(baseline)
    }

    /// Number of thread shards registered so far.
    #[cfg(test)]
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
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
    /// A reset writes no thread's shard: it clears each base slot and
    /// records the counter's current shard sum as the baseline later reads
    /// subtract.
    ///
    /// # Concurrency contract
    ///
    /// Each counter is reset on its own, so a [`snapshot`] (or [`get`])
    /// racing a `reset` observes, **per counter**, either the pre-reset
    /// value or a post-reset value (zero plus whatever updates landed after
    /// that counter's baseline was taken) — never a torn mix of bits, and
    /// never more than the updates made so far. There is **no atomicity
    /// across counters**: a concurrent snapshot may combine pre-reset
    /// values for some counters with post-reset values for others, and
    /// updates arriving while `reset` walks the counters may survive in
    /// counters the walk already passed. As with OMPI's SPC reset, call it
    /// while the measured phase is quiescent when cross-counter consistency
    /// matters.
    ///
    /// [`snapshot`]: Self::snapshot
    /// [`get`]: Self::get
    pub fn reset(&self) {
        for (i, slot) in self.slots.iter().enumerate() {
            slot.base.store(0, Ordering::Relaxed);
            slot.baseline.store(self.shards.sum(i), Ordering::Release);
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
    /// intended to be read while the measured phase is quiescent, when every
    /// value is exact. Concurrent with updates, each value lies between the
    /// counter's value when the snapshot started and its value when it
    /// ended. Concurrent with a [`reset`](Self::reset), every individual
    /// value is still well-formed (see the reset concurrency contract), but
    /// values from before and after the reset may appear side by side.
    pub fn snapshot(&self) -> SpcSnapshot {
        // Baselines before shards, as in `get`.
        let mut baselines = [0u64; Counter::COUNT];
        for (b, slot) in baselines.iter_mut().zip(self.slots.iter()) {
            *b = slot.baseline.load(Ordering::Acquire);
        }
        let mut values = self.shards.sums();
        for ((v, slot), b) in values.iter_mut().zip(self.slots.iter()).zip(baselines) {
            *v = v
                .saturating_add(slot.base.load(Ordering::Relaxed))
                .saturating_sub(b);
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

    #[test]
    fn four_threads_sum_exactly_after_join() {
        use std::sync::Arc;
        const PER_THREAD: u64 = 50_000;
        let spc = Arc::new(SpcSet::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let spc = Arc::clone(&spc);
                std::thread::spawn(move || {
                    for _ in 0..PER_THREAD {
                        spc.inc(Counter::MessagesSent);
                    }
                    spc.add(Counter::BytesSent, 28 * PER_THREAD);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(spc.shard_count(), 4, "one shard per writing thread");
        assert_eq!(spc.get(Counter::MessagesSent), 4 * PER_THREAD);
        let snap = spc.snapshot();
        assert_eq!(snap[Counter::MessagesSent], 4 * PER_THREAD);
        assert_eq!(snap[Counter::BytesSent], 4 * 28 * PER_THREAD);
    }

    #[test]
    fn counts_of_exited_threads_are_kept() {
        let spc = SpcSet::new();
        std::thread::scope(|s| {
            s.spawn(|| spc.add(Counter::RmaPuts, 7));
        });
        // The writer has exited; its shard still counts, and so does a
        // second thread's.
        assert_eq!(spc.get(Counter::RmaPuts), 7);
        std::thread::scope(|s| {
            s.spawn(|| spc.add(Counter::RmaPuts, 5));
        });
        spc.inc(Counter::RmaPuts);
        assert_eq!(spc.snapshot()[Counter::RmaPuts], 13);
        assert_eq!(spc.shard_count(), 3);
    }

    /// One thread driving several ranks in turn (the single-threaded
    /// multi-rank tests and the simulator) registers once per set and then
    /// stays on the cached fast path.
    #[test]
    fn one_thread_alternating_among_three_sets_counts_each_exactly() {
        use crate::shard::REGISTRATIONS;
        let sets = [SpcSet::new(), SpcSet::new(), SpcSet::new()];
        let before = REGISTRATIONS.with(|n| n.get());
        for round in 0..3_000u64 {
            for (k, spc) in sets.iter().enumerate() {
                spc.add(Counter::MessagesReceived, k as u64 + 1);
                spc.add_saturating(Counter::MatchTimeNanos, round);
            }
        }
        assert_eq!(REGISTRATIONS.with(|n| n.get()) - before, 3);
        for (k, spc) in sets.iter().enumerate() {
            assert_eq!(spc.shard_count(), 1);
            assert_eq!(spc.get(Counter::MessagesReceived), 3_000 * (k as u64 + 1));
            assert_eq!(spc.get(Counter::MatchTimeNanos), 2_999 * 3_000 / 2);
        }
    }

    #[test]
    fn snapshot_while_writers_run_never_exceeds_the_total() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;
        const PER_THREAD: u64 = 50_000;
        let spc = SpcSet::new();
        let done = AtomicBool::new(false);
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        for _ in 0..PER_THREAD {
                            spc.inc(Counter::ProgressCalls);
                        }
                    })
                })
                .collect();
            s.spawn(|| {
                let mut last = 0;
                let mut snaps = 0u64;
                loop {
                    let finished = done.load(Ordering::Relaxed);
                    let v = spc.snapshot()[Counter::ProgressCalls];
                    assert!(v <= 3 * PER_THREAD, "impossible value {v}");
                    assert!(v >= last, "a counter went backwards: {last} -> {v}");
                    last = v;
                    snaps += 1;
                    if snaps == 1 {
                        start.wait();
                    }
                    if finished {
                        break;
                    }
                }
                assert_eq!(last, 3 * PER_THREAD, "the last snapshot follows the join");
            });
            for w in writers {
                w.join().unwrap();
            }
            done.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn timer_saturates_across_shards() {
        let spc = SpcSet::new();
        std::thread::scope(|s| {
            s.spawn(|| spc.add_saturating(Counter::MatchTimeNanos, u64::MAX - 10));
            s.spawn(|| spc.add_saturating(Counter::MatchTimeNanos, 100));
        });
        spc.add_saturating(Counter::MatchTimeNanos, 1);
        assert_eq!(spc.get(Counter::MatchTimeNanos), u64::MAX);
        assert_eq!(spc.snapshot()[Counter::MatchTimeNanos], u64::MAX);
    }

    #[test]
    fn reset_subtracts_a_baseline_without_writing_shards() {
        let spc = SpcSet::new();
        std::thread::scope(|s| {
            s.spawn(|| spc.add(Counter::EagerSends, 40));
        });
        spc.reset();
        assert_eq!(spc.get(Counter::EagerSends), 0);
        spc.add(Counter::EagerSends, 2);
        assert_eq!(spc.snapshot()[Counter::EagerSends], 2);
        spc.reset();
        assert_eq!(spc.snapshot(), crate::SpcSnapshot::zero());
    }

    #[test]
    fn a_new_set_registers_no_shard() {
        let spc = SpcSet::new();
        spc.record_max(Counter::MaxUnexpectedQueueLen, 3);
        let _ = (spc.snapshot(), spc.get(Counter::MessagesSent));
        spc.reset();
        assert_eq!(spc.shard_count(), 0);
    }
}
