//! Exhaustive interleaving check of the Algorithm 2 progress shape:
//! dedicated-instance drain first, then an unconditional fallback sweep
//! over each other instance (the runtime's `fairmpi_progress::Sweep`)
//! when the dedicated drain produced nothing.

use fairmpi_check::mutants::MiniPool;
use fairmpi_check::{spawn, yield_now, Checker};
use std::sync::Arc;

/// A completion posted to an instance nobody is dedicated to is still
/// extracted, in every schedule: the fallback sweep runs unconditionally,
/// so no cross-thread signal can be lost.
#[test]
fn algorithm2_fallback_sweep_extracts_stranded_completion() {
    let checker = Checker::new();
    let outcome = checker.check(|| {
        let pool = Arc::new(MiniPool::new(2, false));
        let poster = {
            let pool = Arc::clone(&pool);
            // The fabric delivers a completion to instance 1 — which no
            // progress thread is dedicated to.
            spawn(move || pool.post(1, 7))
        };
        // The main thread is the progress thread dedicated to instance 0.
        // A few passes overlap the posting...
        let mut out = Vec::new();
        for _ in 0..2 {
            pool.pass(0, &mut out);
            if !out.is_empty() {
                break;
            }
            yield_now();
        }
        poster.join();
        // ...and one pass after the post is visible must find it.
        if out.is_empty() {
            pool.pass(0, &mut out);
        }
        assert_eq!(out, vec![7], "stranded completion extracted by the sweep");
    });
    outcome.assert_pass("Algorithm 2 fallback sweep");
    match outcome {
        fairmpi_check::Outcome::Pass {
            schedules,
            complete,
        } => {
            assert!(complete, "bounded schedule space was not exhausted");
            println!("Algorithm 2 sweep: {schedules} schedules, exhaustive");
        }
        fairmpi_check::Outcome::Fail(_) => unreachable!(),
    }
}

/// Two progress threads with different dedicated instances never deadlock
/// and never double-extract a completion (try-lock contention on one
/// instance leaves the completion for the lock holder).
#[test]
fn algorithm2_two_progress_threads_extract_exactly_once() {
    let checker = Checker::new();
    let outcome = checker.check(|| {
        let pool = Arc::new(MiniPool::new(2, false));
        pool.post(1, 7);
        let other = {
            let pool = Arc::clone(&pool);
            spawn(move || {
                let mut out = Vec::new();
                pool.pass(1, &mut out);
                out
            })
        };
        let mut out = Vec::new();
        pool.pass(0, &mut out);
        let mut all = other.join();
        all.append(&mut out);
        // Between the dedicated owner and the sweeping thread, exactly one
        // extracts the completion.
        assert_eq!(all, vec![7], "completion extracted exactly once");
    });
    outcome.assert_pass("Algorithm 2 two progress threads");
    match outcome {
        fairmpi_check::Outcome::Pass {
            schedules,
            complete,
        } => {
            assert!(complete, "bounded schedule space was not exhausted");
            println!("Algorithm 2 two threads: {schedules} schedules, exhaustive");
        }
        fairmpi_check::Outcome::Fail(_) => unreachable!(),
    }
}
