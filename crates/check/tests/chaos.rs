//! Exhaustive interleaving check of the native fault injector
//! (`fairmpi_chaos::ChaosEngine`), whose generator state, send count and
//! kill flag are facade atomics shared by every sending thread.

use fairmpi_chaos::{ChaosEngine, Delivery, FaultPlan};
use fairmpi_check::{spawn, Checker, Outcome};
use fairmpi_sync::atomic::{AtomicU64, Ordering};
use fairmpi_sync::Mutex;
use std::sync::Arc;

fn drops(verdicts: &[Delivery]) -> usize {
    verdicts.iter().filter(|&&d| d == Delivery::Drop).count()
}

/// Two senders race one engine: between them they take the plan's first
/// two draws, each exactly once (an interleaving may hand a fault to the
/// other packet, never repeat or skip one), and the kill fires once.
#[test]
fn racing_senders_share_one_fault_stream() {
    let plan = FaultPlan::seeded(0xFA17).drop(500).kill(0, 0, 1);
    let serial = ChaosEngine::new(plan);
    let first_two = [serial.decide_delivery(), serial.decide_delivery()];
    assert_eq!(drops(&first_two), 1, "seed draws drop + deliver");
    let outcome = Checker::new().check(move || {
        let engine = Arc::new(ChaosEngine::new(plan));
        let verdicts = Arc::new(Mutex::new(Vec::new()));
        let kills = Arc::new(AtomicU64::new(0));
        let senders: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let verdicts = Arc::clone(&verdicts);
                let kills = Arc::clone(&kills);
                spawn(move || {
                    let verdict = engine.decide_delivery();
                    verdicts.lock().push(verdict);
                    if engine.observe_send().is_some() {
                        kills.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for s in senders {
            s.join();
        }
        assert_eq!(drops(&verdicts.lock()), 1, "each draw taken exactly once");
        assert_eq!(kills.load(Ordering::SeqCst), 1, "the kill fires once");
    });
    outcome.assert_pass("ChaosEngine racing senders");
    assert!(
        matches!(outcome, Outcome::Pass { complete: true, .. }),
        "bounded schedule space was not exhausted"
    );
}
