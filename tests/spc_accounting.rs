//! Conservation laws over the software performance counters: whatever the
//! design, the books must balance after quiescence.

use std::sync::Arc;

use fairmpi::{Counter, DesignConfig, World};

/// Drive random-ish mixed traffic and return the merged snapshot.
fn run_mixed(design: DesignConfig, pairs: u32, msgs: u32) -> fairmpi::SpcSnapshot {
    let world = Arc::new(World::builder().ranks(2).design(design).build());
    let comm = world.comm_world();
    let mut handles = Vec::new();
    for t in 0..pairs {
        let w = Arc::clone(&world);
        handles.push(std::thread::spawn(move || {
            let p = w.proc(0);
            for i in 0..msgs {
                // Mix of eager sizes, including the envelope-only case.
                let len = (i as usize * 37) % 600;
                p.send(&vec![t as u8; len], 1, t as i32, comm).unwrap();
            }
        }));
        let w = Arc::clone(&world);
        handles.push(std::thread::spawn(move || {
            let p = w.proc(1);
            for _ in 0..msgs {
                p.recv(600, 0, t as i32, comm).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    world.spc_merged()
}

#[test]
fn sent_equals_received_at_quiescence() {
    for design in [
        DesignConfig::default(),
        DesignConfig::builder().proposed(4).build().unwrap(),
    ] {
        let spc = run_mixed(design, 3, 40);
        assert_eq!(spc[Counter::MessagesSent], 3 * 40);
        assert_eq!(
            spc[Counter::MessagesSent],
            spc[Counter::MessagesReceived],
            "conservation violated under {design:?}"
        );
    }
}

#[test]
fn received_splits_into_expected_plus_unexpected_matches() {
    let spc = run_mixed(DesignConfig::builder().proposed(2).build().unwrap(), 2, 50);
    // Every received message was matched exactly once, either against a
    // posted receive (expected) or later from the unexpected queue.
    let received = spc[Counter::MessagesReceived];
    let expected = spc[Counter::ExpectedMessages];
    let unexpected = spc[Counter::UnexpectedMessages];
    assert_eq!(received, 2 * 50);
    assert!(expected <= received);
    // Unexpected messages are *admissions*, each later consumed by a post:
    // expected + (matches made at post time == unexpected admitted) is the
    // total; equivalently expected + unexpected >= received.
    assert!(
        expected + unexpected >= received,
        "expected {expected} + unexpected {unexpected} < received {received}"
    );
}

#[test]
fn out_of_sequence_never_exceeds_arrivals_and_drains_fully() {
    let spc = run_mixed(DesignConfig::builder().proposed(8).build().unwrap(), 8, 30);
    let received = spc[Counter::MessagesReceived];
    assert_eq!(received, 240);
    assert!(spc[Counter::OutOfSequenceMessages] <= received);
    // Everything buffered was eventually replayed: no message is lost, so
    // the high-water mark is bounded by what was in flight.
    assert!(spc[Counter::MaxOutOfSequenceBuffered] <= received);
}

#[test]
fn byte_accounting_includes_envelopes() {
    let world = World::builder().ranks(2).build();
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let t = std::thread::spawn(move || {
        p0.send(&[9u8; 100], 1, 0, comm).unwrap();
        p0.send(&[], 1, 0, comm).unwrap();
    });
    p1.recv(128, 0, 0, comm).unwrap();
    p1.recv(128, 0, 0, comm).unwrap();
    t.join().unwrap();
    let s0 = world.proc(0).spc_snapshot();
    let s1 = world.proc(1).spc_snapshot();
    let env = world.fabric_config().envelope_bytes as u64;
    assert_eq!(s0[Counter::BytesSent], 100 + 2 * env, "wire bytes");
    assert_eq!(s1[Counter::BytesReceived], 100, "payload bytes only");
}

#[test]
fn progress_and_lock_counters_are_active() {
    let spc = run_mixed(DesignConfig::builder().proposed(2).build().unwrap(), 2, 20);
    assert!(spc[Counter::ProgressCalls] > 0);
    assert!(spc[Counter::InstanceLockAcquisitions] > 0);
    assert!(spc[Counter::CompletionsDrained] > 0);
    // Dedicated assignment was in effect: the TLS cache served repeats.
    assert!(spc[Counter::CriDedicatedHits] > 0);
}

#[test]
fn reset_clears_between_phases() {
    let world = World::builder().ranks(2).build();
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let t = std::thread::spawn(move || p0.send(b"warmup", 1, 0, comm).unwrap());
    p1.recv(16, 0, 0, comm).unwrap();
    t.join().unwrap();
    assert!(world.spc_merged()[Counter::MessagesSent] > 0);
    world.spc_reset();
    let clean = world.spc_merged();
    for c in fairmpi::Counter::ALL {
        assert_eq!(clean[c], 0, "{} not reset", c.name());
    }
}

#[test]
fn delta_snapshots_isolate_a_measured_phase() {
    let world = World::builder().ranks(2).build();
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    // Warmup phase.
    let t = std::thread::spawn({
        let p0 = p0.clone();
        move || p0.send(b"w", 1, 0, comm).unwrap()
    });
    p1.recv(8, 0, 0, comm).unwrap();
    t.join().unwrap();
    let before = world.proc(0).spc_snapshot();
    // Measured phase: 5 sends.
    let t = std::thread::spawn({
        let p0 = p0.clone();
        move || {
            for _ in 0..5 {
                p0.send(b"m", 1, 0, comm).unwrap();
            }
        }
    });
    for _ in 0..5 {
        p1.recv(8, 0, 0, comm).unwrap();
    }
    t.join().unwrap();
    let delta = world.proc(0).spc_snapshot().delta_since(&before);
    assert_eq!(delta[Counter::MessagesSent], 5, "warmup excluded");
}

#[test]
fn rendezvous_messages_are_received_once() {
    const MSGS: u64 = 6;
    let world = World::builder().ranks(2).build();
    let comm = world.comm_world();
    let (p0, p1) = (world.proc(0), world.proc(1));
    let len = world.fabric_config().eager_threshold + 1;
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..MSGS {
                p0.send(&vec![7u8; len], 1, 0, comm).unwrap();
            }
        });
        for _ in 0..MSGS {
            assert_eq!(p1.recv(len, 0, 0, comm).unwrap().data.len(), len);
        }
    });
    let spc = world.spc_merged();
    assert_eq!(spc[Counter::RendezvousSends], MSGS);
    assert_eq!(
        spc[Counter::MessagesReceived],
        MSGS,
        "each message counted once"
    );
}

/// Batched matching keeps the books: on a native multi-threaded run every
/// message is received once, the deliver-attempts histogram holds exactly
/// one observation per packet handed to a matcher (eager and
/// rendezvous-RTS; DATA packets bypass matching), and the match time,
/// now timed per batch, is still charged.
#[test]
fn batched_matching_counts_every_packet_once() {
    use fairmpi_spc::Histogram;
    const PAIRS: u32 = 3;
    const MSGS: u32 = 60;
    for design in [
        DesignConfig::default(),
        DesignConfig::builder().proposed(2).build().unwrap(),
    ] {
        let world = World::builder().ranks(2).design(design).build();
        let comm = world.comm_world();
        let threshold = world.fabric_config().eager_threshold;
        let len = |i: u32| if i % 10 == 9 { threshold + 1 } else { 8 };
        std::thread::scope(|s| {
            for t in 0..PAIRS {
                let (p0, p1) = (world.proc(0), world.proc(1));
                s.spawn(move || {
                    for i in 0..MSGS {
                        p0.send(&vec![1u8; len(i)], 1, t as i32, comm).unwrap();
                    }
                });
                s.spawn(move || {
                    for i in 0..MSGS {
                        let m = p1.recv(threshold + 1, 0, t as i32, comm).unwrap();
                        assert_eq!(m.data.len(), len(i));
                    }
                });
            }
        });
        // MessagesSent counts every packet injected (CTS and DATA too), so
        // the messages sent are the eager plus the rendezvous sends.
        let merged = world.spc_merged();
        let sent = merged[Counter::EagerSends] + merged[Counter::RendezvousSends];
        assert_eq!(sent, u64::from(PAIRS * MSGS));
        assert_eq!(
            merged[Counter::RendezvousSends],
            u64::from(PAIRS * MSGS / 10)
        );
        let receiver = world.proc(1);
        let spc = receiver.spc();
        assert_eq!(spc.get(Counter::MessagesReceived), sent);
        assert_eq!(
            spc.histogram(Histogram::MatchDeliverAttempts).count(),
            sent,
            "one deliver observation per matched packet under {design:?}"
        );
        assert!(spc.get(Counter::MatchTimeNanos) > 0);
    }
}

/// Four application threads of one rank send at once: each thread counts
/// into its own shard of the rank's set, and the sums are exact. On the
/// one-instance pool every send still counts its round-robin pick.
#[test]
fn four_sending_threads_of_one_rank_count_exactly() {
    const THREADS: u32 = 4;
    const MSGS: u32 = 500;
    for (design, one_instance) in [
        (DesignConfig::default(), true),
        (DesignConfig::builder().proposed(2).build().unwrap(), false),
    ] {
        let world = World::builder().ranks(2).design(design).build();
        let comm = world.comm_world();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (p0, p1) = (world.proc(0), world.proc(1));
                s.spawn(move || {
                    let reqs: Vec<_> = (0..MSGS)
                        .map(|_| p0.isend(&[], 1, t as i32, comm).unwrap())
                        .collect();
                    p0.waitall(&reqs).unwrap();
                });
                s.spawn(move || {
                    for _ in 0..MSGS {
                        p1.recv(0, 0, t as i32, comm).unwrap();
                    }
                });
            }
        });
        let sender = world.proc(0).spc_snapshot();
        let sends = u64::from(THREADS * MSGS);
        assert_eq!(sender[Counter::MessagesSent], sends, "{design:?}");
        assert_eq!(sender[Counter::EagerSends], sends, "{design:?}");
        assert_eq!(sender[Counter::BytesSent], 28 * sends, "{design:?}");
        if one_instance {
            assert_eq!(sender[Counter::CriRoundRobinAssignments], sends);
        }
        let receiver = world.proc(1).spc_snapshot();
        assert_eq!(receiver[Counter::MessagesReceived], sends, "{design:?}");
    }
}
