//! Exhaustive interleaving checks of the real ticket ring
//! (`fairmpi_sync::TicketRing`, the offload command ring and every network
//! context's receive ring) under the model backend.

use fairmpi_check::{spawn, yield_now, Checker};
use fairmpi_sync::TicketRing;
use std::sync::Arc;

/// Two producers race their ticket claims while the consumer pops
/// concurrently: every pushed value is popped exactly once, in every
/// schedule within the preemption bound.
#[test]
fn ring_two_producers_one_consumer_exhaustive() {
    let checker = Checker::new();
    let outcome = checker.check(|| {
        let ring = Arc::new(TicketRing::with_capacity(4));
        let producers: Vec<_> = (1..=2u64)
            .map(|v| {
                let ring = Arc::clone(&ring);
                spawn(move || {
                    ring.try_push(v).expect("capacity covers every push");
                })
            })
            .collect();
        // The consumer overlaps the producers for a few bounded attempts,
        // so pops interleave with in-flight pushes...
        let mut got = Vec::new();
        for _ in 0..3 {
            if let Some(v) = ring.try_pop() {
                got.push(v);
            }
            if got.len() == 2 {
                break;
            }
            yield_now();
        }
        for p in producers {
            p.join();
        }
        // ...and then drains whatever is left.
        while let Some(v) = ring.try_pop() {
            got.push(v);
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "each pushed value popped exactly once");
        assert!(ring.try_pop().is_none(), "ring empty after the drain");
    });
    outcome.assert_pass("TicketRing 2 producers x 1 consumer");
    match outcome {
        fairmpi_check::Outcome::Pass {
            schedules,
            complete,
        } => {
            assert!(complete, "bounded schedule space was not exhausted");
            println!("TicketRing 2p1c: {schedules} schedules, exhaustive");
        }
        fairmpi_check::Outcome::Fail(_) => unreachable!(),
    }
}

/// Batch extraction (`pop_batch`, the consumer path the offload workers
/// actually use) against racing producers.
#[test]
fn ring_pop_batch_collects_everything() {
    let checker = Checker::new();
    let outcome = checker.check(|| {
        let ring = Arc::new(TicketRing::with_capacity(4));
        let producers: Vec<_> = (1..=2u64)
            .map(|v| {
                let ring = Arc::clone(&ring);
                spawn(move || {
                    ring.try_push(v).expect("capacity covers every push");
                })
            })
            .collect();
        for p in producers {
            p.join();
        }
        let mut out = Vec::new();
        let n = ring.pop_batch(&mut out, 8);
        assert_eq!(n, 2);
        out.sort_unstable();
        assert_eq!(out, vec![1, 2]);
    });
    outcome.assert_pass("TicketRing pop_batch");
}
