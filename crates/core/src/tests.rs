//! Runtime-level tests: the full send/recv/RMA machinery across design
//! configurations.

use std::sync::Arc;

use crate::{
    Assignment, Counter, DesignConfig, LockModel, MatchMode, MpiError, ProgressMode, World,
    ANY_SOURCE, ANY_TAG,
};

fn two_rank_world(design: DesignConfig) -> World {
    World::builder().ranks(2).design(design).build()
}

/// Every interesting corner of the design space; tests that must hold for
/// all of them iterate this list.
fn all_designs() -> Vec<DesignConfig> {
    let mut out = Vec::new();
    for instances in [1usize, 4] {
        for assignment in [Assignment::RoundRobin, Assignment::Dedicated] {
            for progress in [ProgressMode::Serial, ProgressMode::Concurrent] {
                for matching in [MatchMode::PerCommunicator, MatchMode::Global] {
                    out.push(DesignConfig {
                        num_instances: instances,
                        assignment,
                        progress,
                        matching,
                        ..DesignConfig::default()
                    });
                }
            }
        }
    }
    out.push(DesignConfig {
        lock_model: LockModel::GlobalCriticalSection,
        ..DesignConfig::default()
    });
    out
}

#[test]
fn blocking_send_recv_across_threads() {
    let world = two_rank_world(DesignConfig::default());
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let t = std::thread::spawn(move || p0.send(b"payload", 1, 3, comm).unwrap());
    let msg = p1.recv(64, 0, 3, comm).unwrap();
    t.join().unwrap();
    assert_eq!(msg.data, b"payload");
    assert_eq!(msg.src, 0);
    assert_eq!(msg.tag, 3);
}

#[test]
fn send_recv_works_under_every_design() {
    for design in all_designs() {
        let world = two_rank_world(design);
        let comm = world.comm_world();
        let p0 = world.proc(0);
        let p1 = world.proc(1);
        let t = std::thread::spawn(move || {
            for i in 0..20u8 {
                p0.send(&[i], 1, i as i32, comm).unwrap();
            }
        });
        for i in 0..20u8 {
            let msg = p1.recv(8, 0, i as i32, comm).unwrap();
            assert_eq!(msg.data, vec![i], "design {design:?}");
        }
        t.join().unwrap();
    }
}

#[test]
fn fifo_order_within_a_sender_thread() {
    let world = two_rank_world(DesignConfig::default());
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let t = std::thread::spawn(move || {
        for i in 0..100u32 {
            p0.send(&i.to_le_bytes(), 1, 0, comm).unwrap();
        }
    });
    for i in 0..100u32 {
        let msg = p1.recv(8, 0, 0, comm).unwrap();
        assert_eq!(msg.data, i.to_le_bytes(), "non-overtaking order violated");
    }
    t.join().unwrap();
}

#[test]
fn wildcard_receive_reports_identity() {
    let world = two_rank_world(DesignConfig::default());
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let t = std::thread::spawn(move || p0.send(b"x", 1, 42, comm).unwrap());
    let msg = p1.recv(8, ANY_SOURCE, ANY_TAG, comm).unwrap();
    t.join().unwrap();
    assert_eq!(msg.src, 0);
    assert_eq!(msg.tag, 42);
}

#[test]
fn nonblocking_requests_complete_via_test() {
    let world = two_rank_world(DesignConfig::default());
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let rreq = p1.irecv(16, 0, 9, comm).unwrap();
    assert!(p1.test(&rreq).unwrap().is_none(), "nothing sent yet");
    let sreq = p0.isend(b"hi", 1, 9, comm).unwrap();
    // Drive both sides until done.
    let msg = loop {
        p0.progress();
        if let Some(m) = p1.test(&rreq).unwrap() {
            break m;
        }
    };
    assert_eq!(msg.data, b"hi");
    p0.wait(&sreq).unwrap();
}

#[test]
fn waitall_collects_in_request_order() {
    let world = two_rank_world(DesignConfig::default());
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let reqs: Vec<_> = (0..10).map(|i| p1.irecv(8, 0, i, comm).unwrap()).collect();
    let t = std::thread::spawn(move || {
        for i in (0..10).rev() {
            p0.send(&[i as u8], 1, i, comm).unwrap();
        }
    });
    let msgs = p1.waitall(&reqs).unwrap();
    t.join().unwrap();
    for (i, m) in msgs.iter().enumerate() {
        assert_eq!(m.data, vec![i as u8]);
    }
}

#[test]
fn rendezvous_protocol_for_large_messages() {
    let world = two_rank_world(DesignConfig::default());
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let big: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
    let expected = big.clone();
    let t = std::thread::spawn(move || p0.send(&big, 1, 0, comm).unwrap());
    let msg = p1.recv(200_000, 0, 0, comm).unwrap();
    t.join().unwrap();
    assert_eq!(msg.data, expected);
    // The counters show the rendezvous path was taken.
    assert_eq!(world.proc(0).spc().get(Counter::RendezvousSends), 1);
    assert_eq!(world.proc(0).spc().get(Counter::EagerSends), 0);
}

#[test]
fn rendezvous_handles_unexpected_rts() {
    // RTS arrives before the receive is posted: it must wait in the UMQ
    // and the transfer must start when the receive shows up.
    let world = two_rank_world(DesignConfig::default());
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let big = vec![7u8; 50_000];
    let sreq = p0.isend(&big, 1, 5, comm).unwrap();
    // Let the RTS land unexpected.
    for _ in 0..10 {
        p1.progress();
    }
    let rreq = p1.irecv(64_000, 0, 5, comm).unwrap();
    // Drive both ranks: the CTS must be progressed by rank 0 before the
    // DATA can reach rank 1.
    let msg = loop {
        p0.progress();
        if let Some(m) = p1.test(&rreq).unwrap() {
            break m;
        }
    };
    assert_eq!(msg.data.len(), 50_000);
    p0.wait(&sreq).unwrap();
}

#[test]
fn truncation_is_reported() {
    let world = two_rank_world(DesignConfig::default());
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let t = std::thread::spawn(move || p0.send(&[0u8; 32], 1, 0, comm).unwrap());
    let err = p1.recv(8, 0, 0, comm).unwrap_err();
    t.join().unwrap();
    assert_eq!(
        err,
        MpiError::Truncated {
            message_len: 32,
            capacity: 8
        }
    );
}

#[test]
fn truncation_on_rendezvous_path() {
    let world = two_rank_world(DesignConfig::default());
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let big = vec![1u8; 20_000];
    let t = std::thread::spawn(move || p0.send(&big, 1, 0, comm).unwrap());
    let err = p1.recv(1_000, 0, 0, comm).unwrap_err();
    t.join().unwrap();
    assert!(matches!(
        err,
        MpiError::Truncated {
            message_len: 20_000,
            ..
        }
    ));
}

#[test]
fn validation_errors() {
    let world = two_rank_world(DesignConfig::default());
    let comm = world.comm_world();
    let p0 = world.proc(0);
    assert_eq!(
        p0.send(b"", 9, 0, comm).unwrap_err(),
        MpiError::InvalidRank(9)
    );
    assert_eq!(
        p0.send(b"", 1, -5, comm).unwrap_err(),
        MpiError::InvalidTag(-5)
    );
    assert!(matches!(
        p0.irecv(8, -7, 0, comm).unwrap_err(),
        MpiError::InvalidRank(-7)
    ));
    assert!(matches!(
        p0.irecv(8, 0, -3, comm).unwrap_err(),
        MpiError::InvalidTag(-3)
    ));
    let bogus = crate::Communicator { id: 999 };
    assert!(matches!(
        p0.isend(b"", 1, 0, bogus).unwrap_err(),
        MpiError::InvalidComm(999)
    ));
}

#[test]
fn probe_then_receive() {
    let world = two_rank_world(DesignConfig::default());
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    assert!(p1.iprobe(ANY_SOURCE, ANY_TAG, comm).unwrap().is_none());
    let t = std::thread::spawn(move || p0.send(b"probe-me", 1, 11, comm).unwrap());
    let (src, tag) = p1.probe(ANY_SOURCE, ANY_TAG, comm).unwrap();
    assert_eq!((src, tag), (0, 11));
    let msg = p1.recv(16, src as i32, tag, comm).unwrap();
    assert_eq!(msg.data, b"probe-me");
    t.join().unwrap();
}

#[test]
fn cancel_unmatched_receive() {
    let world = two_rank_world(DesignConfig::default());
    let comm = world.comm_world();
    let p1 = world.proc(1);
    let req = p1.irecv(8, 0, 0, comm).unwrap();
    assert!(p1.cancel_recv(&req, comm).unwrap());
    assert_eq!(p1.wait(&req).unwrap_err(), MpiError::Cancelled);
}

#[test]
fn receive_calls_reject_a_bogus_communicator() {
    let bogus = crate::Communicator { id: 999 };
    let offload = DesignConfig::builder().offload(2).build().unwrap();
    for design in [
        DesignConfig::default(),
        DesignConfig {
            matching: MatchMode::Global,
            ..DesignConfig::default()
        },
        offload,
        DesignConfig {
            matching: MatchMode::Global,
            ..offload
        },
    ] {
        let world = two_rank_world(design);
        let comm = world.comm_world();
        let p1 = world.proc(1);
        let what = format!("{design:?}");
        assert_eq!(
            p1.irecv(8, 0, 0, bogus).unwrap_err(),
            MpiError::InvalidComm(999),
            "{what}"
        );
        // The refused receive left no request behind.
        assert_eq!(p1.pending_requests(), 0, "{what}");
        assert_eq!(
            p1.iprobe(ANY_SOURCE, ANY_TAG, bogus).unwrap_err(),
            MpiError::InvalidComm(999),
            "{what}"
        );
        let req = p1.irecv(8, 0, 0, comm).unwrap();
        assert_eq!(
            p1.cancel_recv(&req, bogus).unwrap_err(),
            MpiError::InvalidComm(999),
            "{what}"
        );
        // The receive still matches on its own communicator.
        world.proc(0).send(b"ok", 1, 0, comm).unwrap();
        assert_eq!(p1.wait(&req).unwrap().data, b"ok", "{what}");
        assert_eq!(p1.pending_requests(), 0, "{what}");
    }
}

#[test]
fn sendrecv_exchanges() {
    let world = two_rank_world(DesignConfig::default());
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let t = std::thread::spawn(move || p1.sendrecv(b"from1", 0, 1, 16, 0, 0, comm).unwrap());
    let got0 = p0.sendrecv(b"from0", 1, 0, 16, 1, 1, comm).unwrap();
    let got1 = t.join().unwrap();
    assert_eq!(got0.data, b"from1");
    assert_eq!(got1.data, b"from0");
}

#[test]
fn many_threads_per_rank_concurrent_traffic() {
    // The paper's core scenario: several threads of the same rank send to
    // matching threads of the peer, each pair on its own tag.
    for design in [
        DesignConfig::default(),
        DesignConfig::builder().proposed(4).build().unwrap(),
        DesignConfig {
            matching: MatchMode::Global,
            ..DesignConfig::builder().proposed(4).build().unwrap()
        },
    ] {
        let world = Arc::new(two_rank_world(design));
        let comm = world.comm_world();
        let threads = 4;
        let msgs = 50u32;
        let mut handles = Vec::new();
        for t in 0..threads {
            let p0 = world.proc(0);
            handles.push(std::thread::spawn(move || {
                for i in 0..msgs {
                    p0.send(&i.to_le_bytes(), 1, t, comm).unwrap();
                }
            }));
            let p1 = world.proc(1);
            handles.push(std::thread::spawn(move || {
                for i in 0..msgs {
                    let m = p1.recv(8, 0, t, comm).unwrap();
                    assert_eq!(m.data, i.to_le_bytes(), "per-thread FIFO broken");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}

#[test]
fn per_pair_communicators_match_concurrently() {
    // Fig. 3c's setup: a communicator per thread pair.
    let world = Arc::new(two_rank_world(
        DesignConfig::builder().proposed(4).build().unwrap(),
    ));
    let comms: Vec<_> = (0..4).map(|_| world.new_comm()).collect();
    let mut handles = Vec::new();
    for (t, &comm) in comms.iter().enumerate() {
        let p0 = world.proc(0);
        let p1 = world.proc(1);
        handles.push(std::thread::spawn(move || {
            for i in 0..50u32 {
                p0.send(&i.to_le_bytes(), 1, 0, comm).unwrap();
            }
        }));
        handles.push(std::thread::spawn(move || {
            for i in 0..50u32 {
                let m = p1.recv(8, 0, 0, comm).unwrap();
                assert_eq!(m.data, i.to_le_bytes(), "pair {t}");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn overtaking_comm_relaxes_order_but_delivers_everything() {
    let world = two_rank_world(DesignConfig::builder().proposed(4).build().unwrap());
    let comm = world.new_comm_with(true);
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let n = 200u32;
    let t = {
        let p0 = p0.clone();
        std::thread::spawn(move || {
            for i in 0..n {
                p0.send(&i.to_le_bytes(), 1, 0, comm).unwrap();
            }
        })
    };
    let mut seen: Vec<u32> = (0..n)
        .map(|_| {
            let m = p1.recv(8, 0, 0, comm).unwrap();
            u32::from_le_bytes(m.data.try_into().unwrap())
        })
        .collect();
    t.join().unwrap();
    seen.sort_unstable();
    assert_eq!(seen, (0..n).collect::<Vec<_>>(), "all messages delivered");
    assert_eq!(
        world.proc(1).spc().get(Counter::OutOfSequenceMessages),
        0,
        "no sequence validation on an overtaking communicator"
    );
}

#[test]
fn collectives_work() {
    let world = Arc::new(World::builder().ranks(4).build());
    let comm = world.comm_world();
    let handles: Vec<_> = (0..4)
        .map(|r| {
            let p = world.proc(r);
            std::thread::spawn(move || {
                p.barrier(comm).unwrap();
                let got = p.bcast(b"seed", 0, comm).unwrap();
                assert_eq!(got, b"seed");
                let sum = p.allreduce_sum(r as u64 + 1, comm).unwrap();
                assert_eq!(sum, 1 + 2 + 3 + 4);
                let gathered = p.gather(&[r as u8], 0, comm).unwrap();
                if r == 0 {
                    let g = gathered.unwrap();
                    assert_eq!(g, vec![vec![0u8], vec![1], vec![2], vec![3]]);
                } else {
                    assert!(gathered.is_none());
                }
                p.barrier(comm).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn rma_put_get_flush() {
    let world = two_rank_world(DesignConfig::default());
    let id = world.allocate_window(64);
    let w0 = world.proc(0).window(id).unwrap();
    let w1 = world.proc(1).window(id).unwrap();
    w0.put(1, 8, &[1, 2, 3, 4]).unwrap();
    w0.flush(1).unwrap();
    assert_eq!(w1.read_local(8, 4).unwrap(), vec![1, 2, 3, 4]);
    assert_eq!(w0.get(1, 8, 4).unwrap(), vec![1, 2, 3, 4]);
    w0.flush_all();
    assert_eq!(w0.pending_toward(1), 0);
    assert_eq!(world.proc(0).spc().get(Counter::RmaPuts), 1);
    assert_eq!(world.proc(0).spc().get(Counter::RmaGets), 1);
}

#[test]
fn rma_bounds_and_alignment_errors() {
    let world = two_rank_world(DesignConfig::default());
    let id = world.allocate_window(16);
    let w = world.proc(0).window(id).unwrap();
    assert!(matches!(
        w.put(1, 12, &[0u8; 8]).unwrap_err(),
        MpiError::WindowOutOfRange { .. }
    ));
    assert!(matches!(
        w.fetch_add(1, 4, 1).unwrap_err(),
        MpiError::MisalignedAtomic(4)
    ));
    assert!(matches!(
        w.put(5, 0, &[0]).unwrap_err(),
        MpiError::InvalidRank(5)
    ));
    assert!(world.proc(0).window(crate::WindowId(99)).is_err());
}

#[test]
fn rma_accumulate_is_atomic_across_threads() {
    let world = Arc::new(two_rank_world(
        DesignConfig::builder().proposed(4).build().unwrap(),
    ));
    let id = world.allocate_window(8);
    let threads = 4;
    let adds_per_thread = 500u64;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let world = Arc::clone(&world);
            std::thread::spawn(move || {
                let w = world.proc(0).window(id).unwrap();
                for _ in 0..adds_per_thread {
                    w.fetch_add(1, 0, 1).unwrap();
                }
                w.flush(1).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let w1 = world.proc(1).window(id).unwrap();
    let bytes = w1.read_local(0, 8).unwrap();
    let total = u64::from_le_bytes(bytes.try_into().unwrap());
    assert_eq!(total, threads as u64 * adds_per_thread);
}

#[test]
fn rma_fence_synchronizes_epochs() {
    let world = Arc::new(two_rank_world(DesignConfig::default()));
    let id = world.allocate_window(8);
    let handles: Vec<_> = (0..2u32)
        .map(|r| {
            let world = Arc::clone(&world);
            std::thread::spawn(move || {
                let w = world.proc(r).window(id).unwrap();
                // Everyone writes its rank+1 into the peer's first lane.
                w.put(1 - r, 0, &(r as u64 + 1).to_le_bytes()).unwrap();
                w.fence();
                let bytes = w.read_local(0, 8).unwrap();
                u64::from_le_bytes(bytes.try_into().unwrap())
            })
        })
        .collect();
    let results: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(results, vec![2, 1]);
}

#[test]
fn rma_exclusive_epoch_excludes() {
    let world = two_rank_world(DesignConfig::default());
    let id = world.allocate_window(8);
    let w = world.proc(0).window(id).unwrap();
    let guard = w.lock_exclusive(1).unwrap();
    // A shared lock attempt from another handle must block; verify via a
    // thread that only finishes after we drop the guard.
    let w2 = world.proc(0).window(id).unwrap();
    let t = std::thread::spawn(move || {
        let _shared = w2.lock_shared(1).unwrap();
    });
    std::thread::sleep(std::time::Duration::from_millis(30));
    assert!(!t.is_finished(), "shared epoch must wait for exclusive");
    drop(guard);
    t.join().unwrap();
}

#[test]
fn compare_swap_round_trip() {
    let world = two_rank_world(DesignConfig::default());
    let id = world.allocate_window(8);
    let w = world.proc(0).window(id).unwrap();
    assert_eq!(w.compare_swap(1, 0, 0, 42).unwrap(), 0);
    assert_eq!(w.compare_swap(1, 0, 0, 7).unwrap(), 42, "miss");
    assert_eq!(w.compare_swap(1, 0, 42, 7).unwrap(), 42, "hit");
    w.flush(1).unwrap();
    let w1 = world.proc(1).window(id).unwrap();
    let v = u64::from_le_bytes(w1.read_local(0, 8).unwrap().try_into().unwrap());
    assert_eq!(v, 7);
}

#[test]
fn window_free_invalidates() {
    let world = two_rank_world(DesignConfig::default());
    let id = world.allocate_window(8);
    world.free_window(id).unwrap();
    assert!(world.proc(0).window(id).is_err());
    assert!(world.free_window(id).is_err());
}

#[test]
fn spc_counts_basic_traffic() {
    let world = two_rank_world(DesignConfig::default());
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let t = std::thread::spawn(move || {
        for _ in 0..10 {
            p0.send(&[], 1, 0, comm).unwrap();
        }
    });
    for _ in 0..10 {
        p1.recv(0, 0, 0, comm).unwrap();
    }
    t.join().unwrap();
    let s0 = world.proc(0).spc_snapshot();
    let s1 = world.proc(1).spc_snapshot();
    assert_eq!(s0[Counter::MessagesSent], 10);
    assert_eq!(s1[Counter::MessagesReceived], 10);
    assert_eq!(s0[Counter::BytesSent], 280, "10 envelopes of 28 bytes");
    assert_eq!(s0[Counter::EagerSends], 10);
    let merged = world.spc_merged();
    assert_eq!(merged[Counter::MessagesSent], 10);
    assert_eq!(merged[Counter::MessagesReceived], 10);
}

#[test]
fn wait_any_returns_the_first_completion() {
    let world = two_rank_world(DesignConfig::default());
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    // Two receives; only the second's message is sent first.
    let r1 = p1.irecv(8, 0, 1, comm).unwrap();
    let r2 = p1.irecv(8, 0, 2, comm).unwrap();
    let t = std::thread::spawn(move || {
        p0.send(b"two", 1, 2, comm).unwrap();
        p0.send(b"one", 1, 1, comm).unwrap();
    });
    let (idx, msg) = p1.wait_any(&[r1.clone(), r2.clone()]).unwrap();
    // Whichever completed first, index and payload must agree.
    match idx {
        0 => {
            assert_eq!(msg.data, b"one");
            assert_eq!(p1.wait(&r2).unwrap().data, b"two");
        }
        1 => {
            assert_eq!(msg.data, b"two");
            assert_eq!(p1.wait(&r1).unwrap().data, b"one");
        }
        other => panic!("invalid index {other}"),
    }
    t.join().unwrap();
    assert!(p1.wait_any(&[]).is_err());
}

#[test]
fn dedicated_instances_show_no_try_lock_failures_single_thread() {
    let world = two_rank_world(DesignConfig::builder().proposed(2).build().unwrap());
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let t = std::thread::spawn(move || {
        for _ in 0..50 {
            p0.send(&[], 1, 0, comm).unwrap();
        }
    });
    for _ in 0..50 {
        p1.recv(0, 0, 0, comm).unwrap();
    }
    t.join().unwrap();
}

// ---- software offload ----

#[test]
fn offload_world_round_trips_eager_and_rendezvous() {
    let world = two_rank_world(DesignConfig::builder().offload(2).build().unwrap());
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let big = world.fabric_config().eager_threshold + 100;
    let t = std::thread::spawn(move || {
        p0.send(b"eager", 1, 1, comm).unwrap();
        p0.send(&vec![7u8; big], 1, 2, comm).unwrap();
    });
    assert_eq!(p1.recv(64, 0, 1, comm).unwrap().data, b"eager");
    let msg = p1.recv(big + 1, 0, 2, comm).unwrap();
    assert_eq!(msg.data.len(), big);
    t.join().unwrap();
    let spc = world.spc_merged();
    assert!(
        spc.get(Counter::OffloadCommands) >= 4,
        "sends and recvs went through the command queue"
    );
    assert!(spc.get(Counter::OffloadBatches) >= 1);
}

#[test]
fn offload_preserves_recv_posting_order() {
    // Two same-signature receives posted back to back must match the two
    // messages in order, no matter which worker drains which descriptor.
    let world = two_rank_world(DesignConfig::builder().offload(4).build().unwrap());
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    for round in 0..50u8 {
        let r1 = p1.irecv(8, 0, 3, comm).unwrap();
        let r2 = p1.irecv(8, 0, 3, comm).unwrap();
        let p0c = p0.clone();
        let t = std::thread::spawn(move || {
            p0c.send(&[round, 1], 1, 3, comm).unwrap();
            p0c.send(&[round, 2], 1, 3, comm).unwrap();
        });
        assert_eq!(p1.wait(&r1).unwrap().data, [round, 1]);
        assert_eq!(p1.wait(&r2).unwrap().data, [round, 2]);
        t.join().unwrap();
    }
}

#[test]
fn offload_rma_put_flush_through_the_command_queue() {
    let world = two_rank_world(DesignConfig::builder().offload(1).build().unwrap());
    let id = world.allocate_window(64);
    let origin = world.proc(0).window(id).unwrap();
    let target = world.proc(1).window(id).unwrap();
    origin.put(1, 0, &[1, 2, 3, 4]).unwrap();
    origin.flush(1).unwrap();
    assert_eq!(target.read_local(0, 4).unwrap(), vec![1, 2, 3, 4]);
    let spc = world.spc_merged();
    assert_eq!(spc.get(Counter::RmaPuts), 1);
    assert_eq!(spc.get(Counter::RmaFlushes), 1);
}

#[test]
fn offload_world_drop_joins_workers_and_handles_stay_usable() {
    let world = two_rank_world(DesignConfig::builder().offload(2).build().unwrap());
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    p0.send(b"pre-drop", 1, 9, comm).unwrap();
    drop(world);
    // The engine is gone; handles fall back to the direct path.
    assert_eq!(p1.recv(64, 0, 9, comm).unwrap().data, b"pre-drop");
    p0.send(b"post-drop", 1, 9, comm).unwrap();
    assert_eq!(p1.recv(64, 0, 9, comm).unwrap().data, b"post-drop");
}
