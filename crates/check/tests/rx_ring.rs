//! Exhaustive interleaving checks of a network context's rx ring: the wire
//! posting packets while the owner drains them in batches, through the
//! lock-free ticket ring and, once it is full, the overflow list.

use fairmpi_check::{assert_exhaustive, spawn, yield_now, Checker};
use fairmpi_fabric::{Envelope, Fabric, FabricConfig, NetworkContext, Packet};
use std::sync::Arc;

fn packet(src: u32, seq: u64) -> Packet {
    Packet::eager(
        Envelope {
            src,
            dst: 1,
            comm: 0,
            tag: 0,
            seq,
        },
        Vec::new(),
    )
}

/// Two wire senders post while the owner batch-drains: every packet is
/// drained exactly once.
#[test]
fn posts_racing_batch_drains_lose_nothing() {
    let outcome = Checker::new().check(|| {
        let fabric = Arc::new(Fabric::new(2, 1, FabricConfig::test_default()));
        let posters: Vec<_> = (0..2)
            .map(|seq| {
                let fabric = Arc::clone(&fabric);
                spawn(move || fabric.context(1, 0).post_rx(packet(0, seq)))
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
    });
    let schedules = assert_exhaustive(&outcome, "rx ring: posts racing batch drains");
    println!("rx ring: posts racing batch drains: {schedules} schedules, exhaustive");
}

/// Producer 0 posts three packets and producer 1 one into a 2-slot ring,
/// so deliveries spill to the overflow list, while the owner drains with
/// budgets of 1 and 2. Every packet arrives exactly once and each
/// producer's packets arrive in order: a spilled packet is never handed
/// out while an older one from the same producer still waits in the ring
/// behind another producer's claimed but unpublished ticket.
fn spill_hand_off() {
    let ctx = Arc::new(NetworkContext::with_rx_slots(1, 0, 2));
    let producers: Vec<_> = [(0, 3), (1, 1)]
        .into_iter()
        .map(|(src, count)| {
            let ctx = Arc::clone(&ctx);
            spawn(move || {
                for seq in 0..count {
                    ctx.post_rx(packet(src, seq));
                }
            })
        })
        .collect();
    let mut got = Vec::new();
    for budget in [1, 2, 1] {
        ctx.begin_drain().pop_packets(budget, &mut got);
        yield_now();
    }
    for p in producers {
        p.join();
    }
    while ctx.begin_drain().pop_packets(2, &mut got) > 0 {}
    let order = |src| -> Vec<u64> {
        got.iter()
            .filter(|p| p.envelope.src == src)
            .map(|p| p.envelope.seq)
            .collect()
    };
    assert_eq!(order(0), vec![0, 1, 2], "producer 0: in order, each once");
    assert_eq!(order(1), vec![0], "producer 1: delivered once");
    assert!(!ctx.has_work(), "nothing left behind");
}

#[test]
fn spilled_packets_never_overtake_the_ring() {
    let outcome = Checker::new().check(spill_hand_off);
    let schedules = assert_exhaustive(&outcome, "rx ring: spill hand-off");
    println!("rx ring: spill hand-off: {schedules} schedules, exhaustive");
}
