//! Deterministic interleaving checker for the fairmpi lock-free core.
//!
//! The runtime's concurrency-critical crates are written against the
//! [`fairmpi_sync`] facade. This crate turns that facade's `model` backend
//! into a test harness: a [`Checker`] runs a closed concurrent program
//! under every thread interleaving within a preemption bound (CHESS-style
//! bounded-preemption DFS), serializing real OS threads so each lock
//! acquisition, atomic access, and condvar operation becomes a scheduling
//! decision point. A failing schedule is returned as a
//! [`Counterexample`] — the exact sequence of thread ids granted at each
//! decision point — and can be re-executed verbatim with
//! [`Checker::replay`].
//!
//! What is covered (see the `tests/` directory):
//!
//! * the real [`fairmpi_sync::TicketRing`] — the offload command ring and
//!   every network context's receive ring — under racing producers and a
//!   concurrent consumer,
//! * a miniature of the paper's Algorithm 2 progress loop that walks the
//!   runtime's own visit order, [`fairmpi_progress::Sweep`]
//!   (dedicated-instance drain, then each other instance once),
//! * the real [`fairmpi_chaos::DedupWindow`] receiver-side duplicate
//!   suppression (the runtime's and the simulator's) under racing
//!   deliveries,
//! * the real [`fairmpi_matching::SendSequencer`]: racing draws toward one
//!   peer are distinct,
//! * the real request slab (`fairmpi::RequestTable`): completions, reaps
//!   of cloned handles and stale tokens racing slot reuse, a claimed
//!   receive completion racing a cancel, and two threads cycling slots
//!   through its tagged free stack, one of them in the ABA shape,
//! * a real network context's rx ring: wire posts racing the owner's
//!   batch drain, and on a 2-slot ring the hand-off of spilled packets,
//!   which must keep every producer's packets in order,
//! * the real `fairmpi_chaos::ChaosEngine`: racing senders share its one
//!   fault stream (no draw repeated or skipped) and its kill fires once.
//! * the real [`fairmpi_offload::CommandQueue`]'s shutdown hand-off: a
//!   submission racing the close is either refused or executed before the
//!   worker exits, never left queued behind it.
//!
//! The [`mutants`] module carries deliberately-broken variants of each
//! algorithm; the test suite asserts the checker produces a reproducible
//! counterexample for every one of them. That closes the loop on the
//! checker itself: a checker that cannot catch a seeded bug proves
//! nothing by passing.
//!
//! The model explores *scheduling* nondeterminism only: operations are
//! executed by serialized threads on real memory, so semantics are
//! sequentially consistent regardless of the `Ordering` arguments.
//! Weak-memory reorderings are out of scope (DESIGN.md §10).
//!
//! Quick start:
//!
//! ```
//! use fairmpi_check::{spawn, Checker};
//! use fairmpi_sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let outcome = Checker::new().check(|| {
//!     let n = Arc::new(AtomicU64::new(0));
//!     let handles: Vec<_> = (0..2)
//!         .map(|_| {
//!             let n = Arc::clone(&n);
//!             spawn(move || n.fetch_add(1, Ordering::Relaxed))
//!         })
//!         .collect();
//!     for h in handles {
//!         h.join();
//!     }
//!     assert_eq!(n.load(Ordering::Relaxed), 2);
//! });
//! outcome.assert_pass("two incrementing threads");
//! ```

pub use fairmpi_sync::model::{
    spawn, thread_id, yield_now, Checker, Counterexample, JoinHandle, Outcome,
};

pub mod mutants;

/// Assert that `outcome` passed after exhausting its bounded schedule
/// space; returns the number of schedules explored.
pub fn assert_exhaustive(outcome: &Outcome, what: &str) -> usize {
    outcome.assert_pass(what);
    match *outcome {
        Outcome::Pass {
            schedules,
            complete,
        } => {
            assert!(
                complete,
                "'{what}': bounded schedule space was not exhausted"
            );
            schedules
        }
        Outcome::Fail(_) => unreachable!("assert_pass returned on a failure"),
    }
}

/// Assert that `outcome` is a failure and that replaying its counterexample
/// schedule reproduces a failure. Returns the counterexample for further
/// inspection. This is the contract every seeded-mutant test relies on:
/// finding a bug is only useful if the finding is reproducible.
pub fn assert_reproducible_failure(
    checker: &Checker,
    outcome: &Outcome,
    f: impl Fn() + Send + Sync + 'static,
    what: &str,
) -> Counterexample {
    let ce = outcome
        .counterexample()
        .unwrap_or_else(|| panic!("checker missed the seeded bug in '{what}'"))
        .clone();
    let replayed = checker.replay(&ce.schedule, f);
    assert!(
        replayed.is_fail(),
        "counterexample for '{what}' did not reproduce under replay\n{ce}"
    );
    ce
}
