//! Backend identity: the `fairmpi-sync` native and traced backends must be
//! observationally equivalent.
//!
//! The traced backend (built with `--features trace`) routes every lock
//! acquisition through fairmpi-trace's contention profiler; the native
//! backend compiles down to bare `std::sync` primitives. Neither may
//! change what the runtime *does* — only how it is observed. This test
//! drives the Fig. 5 flagship design point (the proposed design: dedicated
//! CRIs with concurrent progress and matching) with a native-thread stress
//! workload and asserts the deterministic subset of the SPC snapshot
//! against exact expected values.
//!
//! ci.sh runs this test twice — once in the default (native) build and
//! once with `--features trace` — so the same constants are checked under
//! both backends: any divergence in message/byte accounting between them
//! fails one of the two runs.

use std::sync::Arc;

use fairmpi::{Counter, DesignConfig, SpcSnapshot, World};

const PAIRS: u32 = 4;
const MSGS: u32 = 50;

fn payload_len(i: u32) -> usize {
    (i as usize * 37) % 600
}

/// Drive the flagship point and return the merged snapshot.
fn run_flagship() -> SpcSnapshot {
    let design = DesignConfig::builder().proposed(4).build().unwrap();
    let world = Arc::new(World::builder().ranks(2).design(design).build());
    let comm = world.comm_world();
    let mut handles = Vec::new();
    for t in 0..PAIRS {
        let w = Arc::clone(&world);
        handles.push(std::thread::spawn(move || {
            let p = w.proc(0);
            for i in 0..MSGS {
                p.send(&vec![t as u8; payload_len(i)], 1, t as i32, comm)
                    .unwrap();
            }
        }));
        let w = Arc::clone(&world);
        handles.push(std::thread::spawn(move || {
            let p = w.proc(1);
            for _ in 0..MSGS {
                p.recv(600, 0, t as i32, comm).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    world.spc_merged()
}

/// The deterministic counter subset: values fixed by the workload alone,
/// independent of thread interleaving (unlike, say, lock acquisition or
/// out-of-sequence counts, which legitimately vary run to run).
fn deterministic_subset(spc: &SpcSnapshot) -> Vec<(Counter, u64)> {
    [
        Counter::MessagesSent,
        Counter::MessagesReceived,
        Counter::BytesSent,
        Counter::BytesReceived,
    ]
    .into_iter()
    .map(|c| (c, spc[c]))
    .collect()
}

#[test]
fn flagship_point_spc_subset_matches_exact_expectations() {
    let spc = run_flagship();
    let total_msgs = (PAIRS * MSGS) as u64;
    let payload: u64 = (0..MSGS).map(|i| payload_len(i) as u64).sum::<u64>() * PAIRS as u64;
    // The envelope size comes from the fabric config, identical in both
    // backends (it is data, not code).
    let env = World::builder()
        .ranks(2)
        .build()
        .fabric_config()
        .envelope_bytes as u64;
    let expected = vec![
        (Counter::MessagesSent, total_msgs),
        (Counter::MessagesReceived, total_msgs),
        (Counter::BytesSent, payload + total_msgs * env),
        (Counter::BytesReceived, payload),
    ];
    assert_eq!(
        deterministic_subset(&spc),
        expected,
        "sync backend changed the runtime's observable accounting \
         (trace feature: {})",
        cfg!(feature = "trace"),
    );
}

#[test]
fn flagship_point_subset_is_stable_across_runs() {
    // Run-to-run determinism of the subset within one backend: a
    // prerequisite for the cross-backend comparison above to mean anything.
    let a = deterministic_subset(&run_flagship());
    let b = deterministic_subset(&run_flagship());
    assert_eq!(a, b, "deterministic subset varied between identical runs");
}
