//! Integration: the software-offload design point (dedicated communication
//! workers fed by lock-free command queues) against the direct path,
//! through the full native stack with real OS threads.

use std::sync::Arc;

use fairmpi::{Counter, DesignConfig, FaultPlan, MpiError, World};

/// Run `producers` sender threads on rank 0 (each a private tag stream)
/// against one receiver on rank 1; return the payloads per stream in
/// arrival order.
fn producer_streams(design: DesignConfig, producers: u32, per_producer: u32) -> Vec<Vec<u32>> {
    let world = Arc::new(World::builder().ranks(2).design(design).build());
    let comm = world.comm_world();
    let senders: Vec<_> = (0..producers)
        .map(|t| {
            let world = Arc::clone(&world);
            std::thread::spawn(move || {
                let p0 = world.proc(0);
                for i in 0..per_producer {
                    p0.send(&i.to_le_bytes(), 1, t as i32, comm).unwrap();
                }
            })
        })
        .collect();
    let p1 = world.proc(1);
    let streams = (0..producers)
        .map(|t| {
            (0..per_producer)
                .map(|_| {
                    let m = p1.recv(8, 0, t as i32, comm).unwrap();
                    u32::from_le_bytes(m.data.clone().try_into().unwrap())
                })
                .collect()
        })
        .collect();
    for s in senders {
        s.join().unwrap();
    }
    streams
}

/// Routing the same multithreaded workload through the command queues must
/// be invisible to the application: identical message sets, and each
/// (source, tag) stream still arrives in posting order (MPI non-overtaking)
/// even though several workers inject and match concurrently.
#[test]
fn offload_matches_the_direct_path_and_preserves_ordering() {
    let direct = producer_streams(DesignConfig::builder().proposed(2).build().unwrap(), 4, 50);
    let offload = producer_streams(DesignConfig::builder().offload(2).build().unwrap(), 4, 50);
    for (t, stream) in offload.iter().enumerate() {
        assert_eq!(
            stream.len(),
            50,
            "offload stream {t} lost or duplicated messages"
        );
        // Non-overtaking: a blocking-send producer's stream arrives 0..N
        // in order, so the whole sequence is fully determined.
        let expected: Vec<u32> = (0..50).collect();
        assert_eq!(stream, &expected, "offload stream {t} reordered");
    }
    assert_eq!(direct, offload, "offload and direct paths diverged");
}

/// Dropping the `World` while commands are still queued must drain them —
/// the two-phase shutdown first stops admissions, then lets every worker
/// finish its backlog before joining. Requests submitted before the drop
/// remain completable afterwards through the direct-path fallback.
#[test]
fn world_drop_drains_queued_commands_without_loss() {
    const N: u32 = 100;
    let world = World::builder()
        .ranks(2)
        .design(DesignConfig::builder().offload(2).build().unwrap())
        .build();
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let recvs: Vec<_> = (0..N).map(|_| p1.irecv(8, 0, 7, comm).unwrap()).collect();
    let sends: Vec<_> = (0..N)
        .map(|i| p0.isend(&i.to_le_bytes(), 1, 7, comm).unwrap())
        .collect();
    // Shut the offload engines down with the burst potentially still in
    // the command queues.
    drop(world);
    // Proc handles outlive the world; waits now run the direct path.
    for s in &sends {
        p0.wait(s).unwrap();
    }
    let msgs = p1.waitall(&recvs).unwrap();
    for (i, m) in msgs.iter().enumerate() {
        assert_eq!(
            m.data,
            (i as u32).to_le_bytes(),
            "message {i} lost in shutdown"
        );
    }
    let spc = p0.spc_snapshot();
    assert!(
        spc[Counter::OffloadCommands] >= 1,
        "the burst must have gone through the command queue"
    );
}

/// The two-phase drain must also terminate when the fault plan kills a
/// context mid-drain: the burst is still queued when the world is dropped,
/// the kill quarantines one of rank 1's contexts, and recovery — failover
/// plus retransmission of frames stranded in the dead rx ring — finishes
/// on the direct path after the workers are gone.
#[test]
fn world_drop_terminates_when_a_context_dies_mid_drain() {
    const N: u32 = 100;
    let plan = FaultPlan::seeded(37).kill(1, 0, 30).timeout_ns(50_000);
    let world = World::builder()
        .ranks(2)
        .design(
            DesignConfig::builder()
                .offload(2)
                .chaos(plan)
                .build()
                .unwrap(),
        )
        .build();
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let recvs: Vec<_> = (0..N).map(|_| p1.irecv(8, 0, 7, comm).unwrap()).collect();
    let sends: Vec<_> = (0..N)
        .map(|i| p0.isend(&i.to_le_bytes(), 1, 7, comm).unwrap())
        .collect();
    // The kill fires while the burst is (at least partly) still in the
    // command queues; the drain must terminate regardless.
    drop(world);
    // The sender's retransmit tick repairs stranded frames while the
    // receiver drains the survivor context — the two sides have to run
    // concurrently for either to finish.
    let t = std::thread::spawn(move || {
        for s in &sends {
            p0.wait(s).unwrap();
        }
        p0
    });
    let msgs = p1.waitall(&recvs).unwrap();
    for (i, m) in msgs.iter().enumerate() {
        assert_eq!(m.data, (i as u32).to_le_bytes(), "message {i} lost");
    }
    let p0 = t.join().unwrap();
    assert_eq!(p0.in_flight_frames(), 0, "unacked frames survived recovery");
}

/// Cancelling a receive right after `irecv` must find it even when no
/// worker has posted it yet: the cancel reports the receive as still
/// posted, the wait reports it cancelled, and the next matching message
/// goes to a fresh receive instead of the cancelled one.
#[test]
fn cancel_right_after_irecv_finds_the_receive_before_a_worker_posts_it() {
    let world = World::builder()
        .ranks(2)
        .design(DesignConfig::builder().offload(1).build().unwrap())
        .build();
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    for i in 0u32..50 {
        let req = p1.irecv(8, 0, 5, comm).unwrap();
        assert_eq!(p1.cancel_recv(&req, comm), Ok(true), "round {i}");
        assert_eq!(p1.wait(&req), Err(MpiError::Cancelled), "round {i}");
        p0.send(&i.to_le_bytes(), 1, 5, comm).unwrap();
        let msg = p1.recv(8, 0, 5, comm).unwrap();
        assert_eq!(msg.data, i.to_le_bytes(), "round {i}");
    }
}
