//! Integration tests for one-sided communication: windows, passive/active
//! target synchronization, and atomicity under real thread concurrency.

use std::sync::Arc;

use fairmpi::{AccumulateOp, Counter, DesignConfig, MpiError, World};
use fairmpi_chaos::rng::Xoshiro256;

#[test]
fn put_get_round_trip_between_ranks() {
    let world = World::builder().ranks(3).build();
    let id = world.allocate_window(128);
    let w0 = world.proc(0).window(id).unwrap();
    // Scatter a pattern into every rank's window.
    for target in 0..3u32 {
        let data: Vec<u8> = (0..32).map(|i| (target as u8) * 32 + i).collect();
        w0.put(target, 16, &data).unwrap();
    }
    w0.flush_all();
    for target in 0..3u32 {
        let got = w0.get(target, 16, 32).unwrap();
        assert!(got
            .iter()
            .enumerate()
            .all(|(i, &b)| b == (target as u8) * 32 + i as u8));
        // And the owner sees it locally.
        let local = world
            .proc(target)
            .window(id)
            .unwrap()
            .read_local(16, 32)
            .unwrap();
        assert_eq!(local, got);
    }
}

/// Inputs: one origin thread on the default design, and three origin
/// threads on the proposed design putting to disjoint regions of one
/// window and flushing concurrently.
#[test]
fn flush_waits_for_all_pending_ops() {
    const PUTS: usize = 256;
    for (threads, design) in [
        (1, DesignConfig::default()),
        (3, DesignConfig::builder().proposed(3).build().unwrap()),
    ] {
        let world = World::builder().ranks(2).design(design).build();
        let id = world.allocate_window(8 * PUTS * threads);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let world = &world;
                scope.spawn(move || {
                    let w = world.proc(0).window(id).unwrap();
                    for i in t * PUTS..(t + 1) * PUTS {
                        w.put(1, i * 8, &(i as u64).to_le_bytes()).unwrap();
                    }
                    w.flush(1).unwrap();
                });
            }
        });
        let w = world.proc(0).window(id).unwrap();
        assert_eq!(w.pending_toward(1), 0);
        let w1 = world.proc(1).window(id).unwrap();
        for i in 0..PUTS * threads {
            let v = u64::from_le_bytes(w1.read_local(i * 8, 8).unwrap().try_into().unwrap());
            assert_eq!(v, i as u64);
        }
        let spc = world.proc(0).spc_snapshot();
        assert_eq!(spc[Counter::RmaPuts], (PUTS * threads) as u64);
        assert_eq!(spc[Counter::RmaFlushes], threads as u64);
    }
}

#[test]
fn concurrent_fetch_add_from_both_ranks_is_atomic() {
    let world = Arc::new(
        World::builder()
            .ranks(2)
            .design(DesignConfig::builder().proposed(4).build().unwrap())
            .build(),
    );
    let id = world.allocate_window(8);
    let per_thread = 300u64;
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let world = Arc::clone(&world);
            std::thread::spawn(move || {
                // Threads of both ranks hammer rank 0's counter.
                let origin = (i % 2) as u32;
                let w = world.proc(origin).window(id).unwrap();
                for _ in 0..per_thread {
                    w.fetch_add(0, 0, 1).unwrap();
                }
                w.flush(0).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let w = world.proc(0).window(id).unwrap();
    let v = u64::from_le_bytes(w.read_local(0, 8).unwrap().try_into().unwrap());
    assert_eq!(v, 4 * per_thread);
}

#[test]
fn compare_swap_builds_a_working_spinlock() {
    // A classic passive-target pattern: a remote lock word manipulated
    // with CAS, protecting a non-atomic remote counter.
    let world = Arc::new(
        World::builder()
            .ranks(2)
            .design(DesignConfig::builder().proposed(4).build().unwrap())
            .build(),
    );
    let id = world.allocate_window(16);
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let world = Arc::clone(&world);
            std::thread::spawn(move || {
                let w = world.proc(0).window(id).unwrap();
                for _ in 0..50 {
                    // Acquire the remote lock word (offset 0).
                    while w.compare_swap(1, 0, 0, 1).unwrap() != 0 {
                        std::thread::yield_now();
                    }
                    // Non-atomic read-modify-write of offset 8.
                    let v = u64::from_le_bytes(w.get(1, 8, 8).unwrap().try_into().unwrap());
                    w.put(1, 8, &(v + 1).to_le_bytes()).unwrap();
                    w.flush(1).unwrap();
                    // Release.
                    assert_eq!(w.compare_swap(1, 0, 1, 0).unwrap(), 1);
                    w.flush(1).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let w1 = world.proc(1).window(id).unwrap();
    let v = u64::from_le_bytes(w1.read_local(8, 8).unwrap().try_into().unwrap());
    assert_eq!(v, 150, "remote spinlock must serialize the counter updates");
}

#[test]
fn accumulate_ops_semantics() {
    let world = World::builder().ranks(2).build();
    let id = world.allocate_window(32);
    let w = world.proc(0).window(id).unwrap();
    w.accumulate(1, 0, &[10, 20], AccumulateOp::Replace)
        .unwrap();
    w.accumulate(1, 0, &[5, 30], AccumulateOp::Max).unwrap();
    w.accumulate(1, 0, &[1, 1], AccumulateOp::Sum).unwrap();
    w.accumulate(1, 0, &[100, 0], AccumulateOp::Min).unwrap();
    w.flush(1).unwrap();
    let w1 = world.proc(1).window(id).unwrap();
    let lane0 = u64::from_le_bytes(w1.read_local(0, 8).unwrap().try_into().unwrap());
    let lane1 = u64::from_le_bytes(w1.read_local(8, 8).unwrap().try_into().unwrap());
    assert_eq!(lane0, 11, "replace 10, max(10,5), +1, min(11,100)");
    assert_eq!(lane1, 0, "replace 20, max(20,30)=30, +1, min(31,0)=0");
}

#[test]
fn fence_epochs_order_bidirectional_updates() {
    let world = Arc::new(World::builder().ranks(2).build());
    let id = world.allocate_window(16);
    let handles: Vec<_> = (0..2u32)
        .map(|r| {
            let world = Arc::clone(&world);
            std::thread::spawn(move || {
                let w = world.proc(r).window(id).unwrap();
                for round in 0..10u64 {
                    w.put(
                        1 - r,
                        (r as usize) * 8,
                        &(round * 2 + r as u64).to_le_bytes(),
                    )
                    .unwrap();
                    w.fence();
                    // After the fence, the peer's write of this round is
                    // visible locally.
                    let peer_lane = (1 - r) as usize * 8;
                    let v =
                        u64::from_le_bytes(w.read_local(peer_lane, 8).unwrap().try_into().unwrap());
                    assert_eq!(v, round * 2 + (1 - r) as u64);
                    w.fence();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn error_paths() {
    let world = World::builder().ranks(2).build();
    let id = world.allocate_window(16);
    let w = world.proc(0).window(id).unwrap();
    assert!(matches!(
        w.put(1, 9, &[0u8; 8]).unwrap_err(),
        MpiError::WindowOutOfRange { .. }
    ));
    assert!(matches!(
        w.get(1, 0, 17).unwrap_err(),
        MpiError::WindowOutOfRange { .. }
    ));
    assert!(matches!(
        w.accumulate(1, 4, &[1], AccumulateOp::Sum).unwrap_err(),
        MpiError::MisalignedAtomic(4)
    ));
    assert!(matches!(
        w.compare_swap(7, 0, 0, 1).unwrap_err(),
        MpiError::InvalidRank(7)
    ));
    world.free_window(id).unwrap();
    assert!(world.proc(0).window(id).is_err());
}

/// A random sequence of puts is equivalent to replaying the same
/// writes on a local byte array.
#[test]
fn puts_match_a_reference_model() {
    for seed in 0..16u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x9A7C);
        let n = 1 + rng.below(39) as usize;
        let writes: Vec<(usize, Vec<u8>)> = (0..n)
            .map(|_| {
                let offset = rng.below(56) as usize;
                let len = 1 + rng.below(7) as usize;
                let data: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                (offset, data)
            })
            .collect();
        let world = World::builder().ranks(2).build();
        let id = world.allocate_window(64);
        let w = world.proc(0).window(id).unwrap();
        let mut model = [0u8; 64];
        for (offset, data) in &writes {
            w.put(1, *offset, data).unwrap();
            model[*offset..*offset + data.len()].copy_from_slice(data);
        }
        w.flush(1).unwrap();
        let actual = world.proc(1).window(id).unwrap().read_local(0, 64).unwrap();
        assert_eq!(actual.as_slice(), &model[..]);
    }
}

/// fetch_add returns every intermediate value exactly once (a
/// linearizable counter), regardless of interleaving.
#[test]
fn fetch_add_returns_are_a_permutation() {
    for n in [1u64, 5, 17, 39] {
        let world = Arc::new(World::builder().ranks(2).build());
        let id = world.allocate_window(8);
        let w = world.proc(0).window(id).unwrap();
        let mut seen: Vec<u64> = (0..n).map(|_| w.fetch_add(1, 0, 1).unwrap()).collect();
        w.flush(1).unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }
}

#[test]
fn spc_counts_rma_traffic() {
    let world = World::builder().ranks(2).build();
    let id = world.allocate_window(64);
    let w = world.proc(0).window(id).unwrap();
    w.put(1, 0, &[1; 16]).unwrap();
    let _ = w.get(1, 0, 16).unwrap();
    w.fetch_add(1, 0, 1).unwrap();
    w.flush(1).unwrap();
    let spc = world.proc(0).spc_snapshot();
    assert_eq!(spc[Counter::RmaPuts], 1);
    assert_eq!(spc[Counter::RmaGets], 1);
    assert_eq!(spc[Counter::RmaAccumulates], 1);
    assert_eq!(spc[Counter::RmaFlushes], 1);
}

/// Run `body` on its own thread and fail, rather than hang, if it has not
/// finished within `secs` seconds: a mis-retired pending count makes a
/// flush spin forever in a build without debug assertions.
fn within(secs: u64, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(std::time::Duration::from_secs(secs)) {
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("no progress within {secs} s: a flush never saw its pending count drain")
        }
        _ => handle.join().unwrap(),
    }
}

/// Puts interleaved across two windows and two targets drain as runs of
/// equal (window, target) tokens, some longer than one completion and some
/// cut by the drain budget. Retiring a run against the wrong window or
/// target leaves a count that never drains, or one that underflows.
#[test]
fn interleaved_puts_retire_per_window_and_target() {
    const PUTS: usize = 600;
    const SLOTS: usize = 16;
    let designs = [
        DesignConfig::default(),
        DesignConfig::builder().proposed(2).build().unwrap(),
    ];
    for design in designs {
        within(30, move || {
            let world = World::builder().ranks(3).design(design).build();
            let ids = [
                world.allocate_window(SLOTS * 8),
                world.allocate_window(SLOTS * 8),
            ];
            let origin = world.proc(0);
            let wins: Vec<_> = ids.iter().map(|&id| origin.window(id).unwrap()).collect();
            // Window and target switch at different strides, so runs of
            // one token are 1 or 2 puts long.
            let route = |i: usize| ((i / 3) % 2, 1 + ((i / 2) % 2) as u32);
            let mut expected = vec![[[0u64; SLOTS]; 3]; 2];
            for i in 0..PUTS {
                let (w, target) = route(i);
                let value = (i as u64) << 8 | (w as u64) << 4 | target as u64;
                wins[w]
                    .put(target, (i % SLOTS) * 8, &value.to_le_bytes())
                    .unwrap();
                expected[w][target as usize][i % SLOTS] = value;
            }
            wins[0].flush(1).unwrap();
            wins[1].flush(2).unwrap();
            wins[0].flush(2).unwrap();
            for win in &wins {
                win.flush_all();
                for target in 0..3 {
                    assert_eq!(win.pending_toward(target), 0, "target {target}");
                }
            }
            let spc = origin.spc_snapshot();
            assert_eq!(spc[Counter::RmaPuts], PUTS as u64);
            assert_eq!(spc[Counter::CompletionsDrained], PUTS as u64);
            for (w, &id) in ids.iter().enumerate() {
                for target in 1..3u32 {
                    let exposed = world.proc(target).window(id).unwrap();
                    let landed = exposed.read_local(0, SLOTS * 8).unwrap();
                    let want: Vec<u8> = expected[w][target as usize]
                        .iter()
                        .flat_map(|v| v.to_le_bytes())
                        .collect();
                    assert_eq!(landed, want, "window {w} on rank {target}");
                }
            }
        });
    }
}

/// Completions of puts to a window freed before they are drained are
/// skipped: the flush of another window drains them along with its own.
#[test]
fn completions_for_a_freed_window_are_skipped() {
    within(30, || {
        let world = World::builder().ranks(2).build();
        let doomed = world.allocate_window(64);
        let live = world.allocate_window(64);
        let origin = world.proc(0);
        let w_doomed = origin.window(doomed).unwrap();
        let w_live = origin.window(live).unwrap();
        for i in 0..4 {
            w_doomed.put(1, i * 8, &[7; 8]).unwrap();
        }
        w_live.put(1, 0, &[9; 8]).unwrap();
        world.free_window(doomed).unwrap();
        assert!(matches!(
            world.free_window(doomed),
            Err(MpiError::InvalidWindow(_))
        ));
        assert!(matches!(
            origin.window(doomed),
            Err(MpiError::InvalidWindow(_))
        ));
        w_live.flush(1).unwrap();
        assert_eq!(w_live.pending_toward(1), 0);
        assert_eq!(
            w_doomed.pending_toward(1),
            4,
            "nothing retired into a freed window"
        );
        let spc = origin.spc_snapshot();
        assert_eq!(spc[Counter::CompletionsDrained], 5);
        let exposed = world.proc(1).window(live).unwrap();
        assert_eq!(exposed.read_local(0, 8).unwrap(), vec![9; 8]);
    });
}
