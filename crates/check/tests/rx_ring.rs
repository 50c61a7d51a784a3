//! Exhaustive interleaving checks of a network context's rx ring: the wire
//! posting packets while the owner drains them in batches.

use fairmpi_check::{assert_exhaustive, spawn, yield_now, Checker};
use fairmpi_fabric::{Envelope, Fabric, FabricConfig, Packet};
use std::sync::Arc;

fn packet(seq: u64) -> Packet {
    Packet::eager(
        Envelope {
            src: 0,
            dst: 1,
            comm: 0,
            tag: 0,
            seq,
        },
        Vec::new(),
    )
}

/// Two wire senders post while the owner batch-drains: every packet is
/// drained exactly once, and the depth watermark sampled at each post
/// saw at least the packet just pushed.
#[test]
fn posts_racing_batch_drains_lose_nothing() {
    let outcome = Checker::new().check(|| {
        let fabric = Arc::new(Fabric::new(2, 1, FabricConfig::test_default()));
        let posters: Vec<_> = (0..2)
            .map(|seq| {
                let fabric = Arc::clone(&fabric);
                spawn(move || fabric.context(1, 0).post_rx(packet(seq)))
            })
            .collect();
        let ctx = fabric.context(1, 0);
        let mut got = Vec::new();
        for _ in 0..2 {
            ctx.begin_drain().pop_packets(8, &mut got);
            yield_now();
        }
        for p in posters {
            p.join();
        }
        ctx.begin_drain().pop_packets(8, &mut got);
        let mut seqs: Vec<_> = got.iter().map(|p| p.envelope.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 1], "each posted packet drained once");
        let watermark = ctx.rx_watermark();
        assert!(
            (1..=2).contains(&watermark.low()) && (1..=2).contains(&watermark.high()),
            "depth samples in 1..=2, got {}..={}",
            watermark.low(),
            watermark.high()
        );
    });
    let schedules = assert_exhaustive(&outcome, "rx ring: posts racing batch drains");
    println!("rx ring: posts racing batch drains: {schedules} schedules, exhaustive");
}
