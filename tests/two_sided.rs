//! Integration: two-sided traffic through the full stack (core runtime +
//! CRI pool + progress engine + matching + fabric) across the design
//! space.

use std::sync::Arc;

use fairmpi::{Assignment, Counter, DesignConfig, LockModel, MatchMode, ProgressMode, World};

fn designs() -> Vec<DesignConfig> {
    vec![
        DesignConfig::default(),
        DesignConfig::builder().proposed(2).build().unwrap(),
        DesignConfig::builder().proposed(8).build().unwrap(),
        DesignConfig {
            assignment: Assignment::RoundRobin,
            ..DesignConfig::builder().proposed(4).build().unwrap()
        },
        DesignConfig {
            matching: MatchMode::Global,
            ..DesignConfig::default()
        },
        DesignConfig {
            lock_model: LockModel::GlobalCriticalSection,
            matching: MatchMode::Global,
            ..DesignConfig::default()
        },
        DesignConfig {
            progress: ProgressMode::Concurrent,
            ..DesignConfig::default()
        },
    ]
}

#[test]
fn ping_pong_under_every_design() {
    for design in designs() {
        let world = World::builder().ranks(2).design(design).build();
        let comm = world.comm_world();
        let p0 = world.proc(0);
        let p1 = world.proc(1);
        let t = std::thread::spawn(move || {
            for i in 0..30u32 {
                p0.send(&i.to_le_bytes(), 1, 0, comm).unwrap();
                let echo = p0.recv(8, 1, 1, comm).unwrap();
                assert_eq!(echo.data, i.to_le_bytes());
            }
        });
        for _ in 0..30 {
            let m = p1.recv(8, 0, 0, comm).unwrap();
            p1.send(&m.data, 0, 1, comm).unwrap();
        }
        t.join().unwrap();
    }
}

#[test]
fn payload_sizes_span_eager_and_rendezvous() {
    let world = World::builder().ranks(2).build();
    let comm = world.comm_world();
    let threshold = world.fabric_config().eager_threshold;
    let sizes = [
        0usize,
        1,
        27,
        threshold - 1,
        threshold,
        threshold + 1,
        4 * threshold,
        64 * 1024,
    ];
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let sizes2 = sizes;
    let t = std::thread::spawn(move || {
        for (i, &len) in sizes2.iter().enumerate() {
            let payload: Vec<u8> = (0..len).map(|j| (j + i) as u8).collect();
            p0.send(&payload, 1, i as i32, comm).unwrap();
        }
    });
    for (i, &len) in sizes.iter().enumerate() {
        let m = p1.recv(len + 1, 0, i as i32, comm).unwrap();
        assert_eq!(m.data.len(), len);
        assert!(m.data.iter().enumerate().all(|(j, &b)| b == (j + i) as u8));
    }
    t.join().unwrap();
    let spc = world.proc(0).spc_snapshot();
    assert!(spc[Counter::EagerSends] >= 5);
    assert!(spc[Counter::RendezvousSends] >= 3);
}

#[test]
fn many_to_one_with_any_source() {
    // 3 sender ranks funnel into rank 3 with wildcard receives.
    let world = Arc::new(World::builder().ranks(4).build());
    let comm = world.comm_world();
    let handles: Vec<_> = (0..3u32)
        .map(|r| {
            let world = Arc::clone(&world);
            std::thread::spawn(move || {
                let p = world.proc(r);
                for i in 0..25u32 {
                    p.send(&(r * 1000 + i).to_le_bytes(), 3, 0, comm).unwrap();
                }
            })
        })
        .collect();
    let p3 = world.proc(3);
    let mut per_source = [0u32; 3];
    let mut last_seen = [None::<u32>; 3];
    for _ in 0..75 {
        let m = p3.recv(8, fairmpi::ANY_SOURCE, 0, comm).unwrap();
        let v = u32::from_le_bytes(m.data.clone().try_into().unwrap());
        let src = m.src as usize;
        per_source[src] += 1;
        // Per-source FIFO even under ANY_SOURCE.
        if let Some(prev) = last_seen[src] {
            assert!(v > prev, "source {src} reordered: {prev} then {v}");
        }
        last_seen[src] = Some(v);
    }
    assert_eq!(per_source, [25, 25, 25]);
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn bidirectional_stress_multi_thread() {
    // Both ranks send and receive concurrently from multiple threads.
    let world = Arc::new(
        World::builder()
            .ranks(2)
            .design(DesignConfig::builder().proposed(4).build().unwrap())
            .build(),
    );
    let comm = world.comm_world();
    let mut handles = Vec::new();
    for rank in 0..2u32 {
        let peer = 1 - rank;
        for t in 0..3 {
            let world = Arc::clone(&world);
            handles.push(std::thread::spawn(move || {
                let p = world.proc(rank);
                let tag = (rank * 10 + t) as i32;
                let peer_tag = (peer * 10 + t) as i32;
                let rreqs: Vec<_> = (0..40)
                    .map(|_| p.irecv(8, peer as i32, peer_tag, comm).unwrap())
                    .collect();
                for i in 0..40u32 {
                    p.send(&i.to_le_bytes(), peer, tag, comm).unwrap();
                }
                let msgs = p.waitall(&rreqs).unwrap();
                for (i, m) in msgs.iter().enumerate() {
                    assert_eq!(m.data, (i as u32).to_le_bytes());
                }
            }));
        }
    }
    for h in handles {
        h.join().unwrap();
    }
    // Conservation: everything sent was received.
    let spc = world.spc_merged();
    assert_eq!(spc[Counter::MessagesSent], spc[Counter::MessagesReceived]);
}

#[test]
fn communicators_isolate_traffic() {
    let world = World::builder().ranks(2).build();
    let a = world.new_comm();
    let b = world.new_comm();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let t = std::thread::spawn(move || {
        p0.send(b"on-a", 1, 0, a).unwrap();
        p0.send(b"on-b", 1, 0, b).unwrap();
    });
    // Receive from b first: a's message must not match even though it was
    // sent first with the same (src, tag).
    let mb = p1.recv(16, 0, 0, b).unwrap();
    assert_eq!(mb.data, b"on-b");
    let ma = p1.recv(16, 0, 0, a).unwrap();
    assert_eq!(ma.data, b"on-a");
    t.join().unwrap();
}

#[test]
fn three_rank_ring_with_collectives() {
    let world = Arc::new(World::builder().ranks(3).build());
    let comm = world.comm_world();
    let handles: Vec<_> = (0..3u32)
        .map(|r| {
            let world = Arc::clone(&world);
            std::thread::spawn(move || {
                let p = world.proc(r);
                let next = (r + 1) % 3;
                let prev = (r + 2) % 3;
                // Ring shift, then a barrier, then an allreduce.
                let got = p
                    .sendrecv(&r.to_le_bytes(), next, 0, 8, prev as i32, 0, comm)
                    .unwrap();
                assert_eq!(got.data, prev.to_le_bytes());
                p.barrier(comm).unwrap();
                let sum = p.allreduce_sum(r as u64, comm).unwrap();
                assert_eq!(sum, 1 + 2);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// Two threads wait on clones of one receive request: exactly one gets the
/// message, the other an `InvalidRequest`, never a panic.
#[test]
fn racing_waits_on_cloned_requests_reap_once() {
    let world = World::builder().ranks(2).build();
    let comm = world.comm_world();
    let (p0, p1) = (world.proc(0), world.proc(1));
    for round in 0..100u32 {
        let req = p1.irecv(4, 0, 0, comm).unwrap();
        let start = std::sync::Barrier::new(3);
        let outcomes: Vec<_> = std::thread::scope(|s| {
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    let (p1, req, start) = (p1.clone(), req.clone(), &start);
                    s.spawn(move || {
                        start.wait();
                        p1.wait(&req)
                    })
                })
                .collect();
            start.wait();
            p0.send(&round.to_le_bytes(), 1, 0, comm).unwrap();
            waiters.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let delivered: Vec<_> = outcomes.iter().filter_map(|o| o.as_ref().ok()).collect();
        assert_eq!(delivered.len(), 1, "round {round}: {outcomes:?}");
        assert_eq!(delivered[0].data, round.to_le_bytes());
        assert!(
            outcomes
                .iter()
                .any(|o| matches!(o, Err(fairmpi::MpiError::InvalidRequest(_)))),
            "round {round}: {outcomes:?}"
        );
    }
    assert_eq!(p1.pending_requests(), 0);
}

/// A reaped handle stays dead after its slot is recycled: waiting on it,
/// testing it or cancelling it is an `InvalidRequest`, and the slot's new
/// request is untouched.
#[test]
fn reaped_request_stays_invalid_after_slot_reuse() {
    let world = World::builder().ranks(2).build();
    let comm = world.comm_world();
    let (p0, p1) = (world.proc(0), world.proc(1));
    let old = p1.irecv(4, 0, 0, comm).unwrap();
    p0.send(b"one", 1, 0, comm).unwrap();
    assert_eq!(p1.wait(&old).unwrap().data, b"one");

    let new = p1.irecv(4, 0, 0, comm).unwrap();
    for outcome in [
        p1.wait(&old).map(|_| ()),
        p1.test(&old).map(|_| ()),
        p1.cancel_recv(&old, comm).map(|_| ()),
    ] {
        assert!(
            matches!(outcome, Err(fairmpi::MpiError::InvalidRequest(_))),
            "{outcome:?}"
        );
    }
    assert_eq!(p1.test(&new).unwrap(), None, "the new request is pending");
    p0.send(b"two", 1, 0, comm).unwrap();
    assert_eq!(p1.wait(&new).unwrap().data, b"two");
    assert_eq!(p1.pending_requests(), 0);
}

/// A Multirate window (128 isends against 128 irecvs) leaves no live
/// request behind on either rank, under every design.
#[test]
fn multirate_window_leaks_no_requests() {
    const WINDOW: u32 = 128;
    let mut all = designs();
    all.push(DesignConfig::builder().offload(1).build().unwrap());
    for design in all {
        let world = World::builder().ranks(2).design(design).build();
        let comm = world.comm_world();
        let (p0, p1) = (world.proc(0), world.proc(1));
        for _ in 0..2 {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let reqs: Vec<_> = (0..WINDOW)
                        .map(|i| p0.isend(&[], 1, i as i32, comm).unwrap())
                        .collect();
                    p0.waitall(&reqs).unwrap();
                });
                let reqs: Vec<_> = (0..WINDOW)
                    .map(|i| p1.irecv(0, 0, i as i32, comm).unwrap())
                    .collect();
                p1.waitall(&reqs).unwrap();
            });
        }
        assert_eq!(p0.pending_requests(), 0, "{design:?}");
        assert_eq!(p1.pending_requests(), 0, "{design:?}");
    }
}
