//! Crate-level tests: enum/name invariants and snapshot rendering.

use crate::{Counter, SpcSet};

#[test]
fn counter_indices_are_dense_and_in_order() {
    for (i, c) in Counter::ALL.iter().enumerate() {
        assert_eq!(c.index(), i, "Counter::ALL must be in discriminant order");
    }
    assert_eq!(Counter::ALL.len(), Counter::COUNT);
}

#[test]
fn counter_names_are_unique() {
    let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), Counter::COUNT);
}

#[test]
fn snapshot_debug_rendering_includes_values() {
    let spc = SpcSet::new();
    spc.add(Counter::MessagesSent, 123);
    spc.record_max(Counter::MaxUnexpectedQueueLen, 17);
    let snap = spc.snapshot();
    let rendered = format!("{snap:?}");
    assert!(rendered.contains("123"));
}

#[test]
fn index_operator_matches_get() {
    let spc = SpcSet::new();
    spc.add(Counter::RmaPuts, 9);
    let snap = spc.snapshot();
    assert_eq!(snap[Counter::RmaPuts], snap.get(Counter::RmaPuts));
}

/// The post path skips updates that cannot change a value: `record_max`
/// below the current maximum, a histogram sum update for a zero sample and
/// zero `add`s at the call sites. The counters and histograms still read
/// exactly what unconditional updates would have left.
#[test]
fn skipped_no_op_updates_leave_the_same_snapshot() {
    use crate::{Histogram, HistogramCell, HistogramTally};
    let spc = SpcSet::new();
    let maxima = [0, 4, 4, 2, 9, 0, 9, 3];
    let samples = [0, 0, 5, 0, 1, 0, 17];
    for &v in &maxima {
        spc.record_max(Counter::MaxPostedRecvQueueLen, v);
    }
    for &v in &samples {
        spc.record_hist(Histogram::MatchPostAttempts, v);
        if v > 0 {
            spc.add(Counter::MatchQueueTraversals, v);
        }
    }
    // The same inputs applied unconditionally.
    let expected = SpcSet::new();
    expected.add(Counter::MaxPostedRecvQueueLen, 9);
    expected.add(Counter::MatchQueueTraversals, samples.iter().sum());
    assert_eq!(spc.snapshot(), expected.snapshot());
    let mut tally = HistogramTally::default();
    for &v in &samples {
        tally.record(v);
    }
    let reference = HistogramCell::new();
    reference.merge(&tally);
    let cell = spc.histogram(Histogram::MatchPostAttempts);
    assert_eq!(cell.snapshot(), reference.snapshot());
    assert_eq!((cell.sum(), cell.count()), (23, samples.len() as u64));
}
