//! Randomized (seeded, deterministic) tests over the fabric: routing
//! totality, cost-model monotonicity, and queue discipline under
//! concurrency.

use std::sync::Arc;

use fairmpi_chaos::rng::Xoshiro256;
use fairmpi_fabric::{Envelope, Fabric, FabricConfig, MachineKind, Packet};

fn packet(dst: u32, seq: u64) -> Packet {
    Packet::eager(
        Envelope {
            src: 0,
            dst,
            comm: 0,
            tag: 0,
            seq,
        },
        Vec::new(),
    )
}

/// Routing is total and stable: every (dst, src_ctx) pair maps to a
/// valid destination context, and the mapping is a function.
#[test]
fn routing_is_total_and_deterministic() {
    for ranks in 1usize..6 {
        for ctxs in 1usize..9 {
            let fabric = Fabric::new(ranks, ctxs, FabricConfig::test_default());
            for dst in 0..ranks as u32 {
                for src_ctx in 0usize..64 {
                    let a = fabric.route(dst, src_ctx).index();
                    let b = fabric.route(dst, src_ctx).index();
                    assert_eq!(a, b);
                    assert!(a < fabric.num_contexts(dst));
                    assert_eq!(a, src_ctx % fabric.num_contexts(dst));
                }
            }
        }
    }
}

/// Serialization time is monotone in payload length and the peak rate
/// is antitone (never increases with size).
#[test]
fn cost_model_is_monotone() {
    let cfg = FabricConfig::default();
    let mut rng = Xoshiro256::seed_from_u64(0xC057);
    for _ in 0..512 {
        let len_a = rng.below(1_000_000) as usize;
        let len_b = rng.below(1_000_000) as usize;
        let (lo, hi) = if len_a <= len_b {
            (len_a, len_b)
        } else {
            (len_b, len_a)
        };
        assert!(cfg.serialization_time_ns(lo) <= cfg.serialization_time_ns(hi));
        assert!(cfg.theoretical_peak_msg_rate(lo) >= cfg.theoretical_peak_msg_rate(hi));
    }
}

/// Context clamping respects the hardware cap and never returns zero.
#[test]
fn context_clamp_invariants() {
    let mut rng = Xoshiro256::seed_from_u64(0xC1A9);
    for _ in 0..512 {
        let requested = rng.below(10_000) as usize;
        let cap = 1 + rng.below(299) as usize;
        let mut cfg = FabricConfig::test_default();
        cfg.max_contexts = Some(cap);
        let granted = cfg.clamp_contexts(requested);
        assert!(granted >= 1);
        assert!(granted <= cap);
        assert!(granted <= requested.max(1));
    }
}

/// A context's rx ring is FIFO for a single producer, regardless of
/// how pops interleave with pushes.
#[test]
fn rx_ring_fifo_under_interleaved_drain() {
    for seed in 0..32u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xF1F0);
        let n_ops = 1 + rng.below(79) as usize;
        let ops: Vec<bool> = (0..n_ops).map(|_| rng.below(2) == 1).collect();
        let fabric = Fabric::new(2, 1, FabricConfig::test_default());
        let ctx = fabric.context(1, 0);
        let mut pushed = 0u64;
        let mut popped = 0u64;
        for &push in &ops {
            if push {
                ctx.post_rx(packet(1, pushed));
                pushed += 1;
            } else {
                let mut drain = ctx.begin_drain();
                if let Some(p) = drain.pop_rx() {
                    assert_eq!(p.envelope.seq, popped);
                    popped += 1;
                }
            }
        }
        // Drain the remainder.
        let mut drain = ctx.begin_drain();
        while let Some(p) = drain.pop_rx() {
            assert_eq!(p.envelope.seq, popped);
            popped += 1;
        }
        assert_eq!(popped, pushed);
    }
}

#[test]
fn concurrent_producers_never_lose_packets() {
    let fabric = Arc::new(Fabric::new(2, 4, FabricConfig::test_default()));
    let producers = 4;
    let per_producer = 2_000u64;
    let handles: Vec<_> = (0..producers)
        .map(|p| {
            let fabric = Arc::clone(&fabric);
            std::thread::spawn(move || {
                for i in 0..per_producer {
                    // Spread across source contexts like concurrent CRIs.
                    fabric.deliver(packet(1, (p as u64) << 32 | i), p);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut total = 0u64;
    let mut last_per_producer = [None::<u64>; 4];
    for ctx in 0..4 {
        let c = fabric.context(1, ctx);
        let mut drain = c.begin_drain();
        while let Some(p) = drain.pop_rx() {
            let producer = (p.envelope.seq >> 32) as usize;
            let seq = p.envelope.seq & 0xffff_ffff;
            // Per-producer FIFO within its ring.
            if let Some(prev) = last_per_producer[producer] {
                assert!(seq > prev, "producer {producer} reordered");
            }
            last_per_producer[producer] = Some(seq);
            total += 1;
        }
    }
    assert_eq!(total, producers as u64 * per_producer);
}

#[test]
fn machine_presets_have_consistent_cost_orderings() {
    let ib = FabricConfig::for_machine(MachineKind::AlembertInfinibandEdr);
    let knl = FabricConfig::for_machine(MachineKind::TrinititeAriesKnl);
    // Per-size peaks: the KNL NIC path is software-slower at small sizes,
    // but the link bandwidth (the large-message asymptote) is identical.
    assert!(knl.theoretical_peak_msg_rate(0) < ib.theoretical_peak_msg_rate(0));
    let big = 1 << 20;
    assert_eq!(
        ib.serialization_time_ns(big),
        knl.serialization_time_ns(big),
        "same 100 Gbps link"
    );
}
