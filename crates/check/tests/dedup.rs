//! Exhaustive interleaving checks of the real receiver-side duplicate
//! suppression (`fairmpi_chaos::DedupWindow`) used by the reliability layer.

use fairmpi_chaos::DedupWindow;
use fairmpi_check::{spawn, Checker};
use fairmpi_sync::atomic::{AtomicU64, Ordering};
use fairmpi_sync::Mutex;
use std::sync::Arc;

/// Two racing deliveries of the same transport sequence number: exactly
/// one is accepted, in every schedule. This is the window a retransmission
/// racing its own ack opens in the real runtime.
#[test]
fn racing_duplicate_deliveries_accept_exactly_once() {
    let checker = Checker::new();
    let outcome = checker.check(|| {
        let window = Arc::new(Mutex::new(DedupWindow::new()));
        let accepted = Arc::new(AtomicU64::new(0));
        let deliveries: Vec<_> = (0..2)
            .map(|_| {
                let window = Arc::clone(&window);
                let accepted = Arc::clone(&accepted);
                spawn(move || {
                    if window.lock().accept(1) {
                        accepted.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for d in deliveries {
            d.join();
        }
        assert_eq!(
            accepted.load(Ordering::SeqCst),
            1,
            "exactly one delivery of tseq 1 accepted"
        );
    });
    outcome.assert_pass("DedupWindow racing duplicates");
    match outcome {
        fairmpi_check::Outcome::Pass {
            schedules,
            complete,
        } => {
            assert!(complete, "bounded schedule space was not exhausted");
            println!("DedupWindow duplicates: {schedules} schedules, exhaustive");
        }
        fairmpi_check::Outcome::Fail(_) => unreachable!(),
    }
}

/// Out-of-order arrivals with duplicates from both threads: each distinct
/// tseq is accepted exactly once regardless of interleaving (the window's
/// floor/above-set bookkeeping stays consistent).
#[test]
fn out_of_order_arrivals_with_duplicates() {
    let checker = Checker::new();
    let outcome = checker.check(|| {
        let window = Arc::new(Mutex::new(DedupWindow::new()));
        let accepted = Arc::new(AtomicU64::new(0));
        let mk = |seqs: [u64; 2]| {
            let window = Arc::clone(&window);
            let accepted = Arc::clone(&accepted);
            spawn(move || {
                for tseq in seqs {
                    if window.lock().accept(tseq) {
                        accepted.fetch_add(1, Ordering::SeqCst);
                    }
                }
            })
        };
        let a = mk([2, 1]);
        let b = mk([1, 2]);
        a.join();
        b.join();
        assert_eq!(
            accepted.load(Ordering::SeqCst),
            2,
            "tseqs 1 and 2 each accepted exactly once"
        );
    });
    outcome.assert_pass("DedupWindow out-of-order arrivals");
}
