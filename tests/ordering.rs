//! Integration + randomized (seeded, deterministic) tests for MPI's
//! ordering guarantees — the semantics the paper's sequence-number
//! machinery exists to provide.

use std::sync::Arc;

use fairmpi::{DesignConfig, World, ANY_TAG};
use fairmpi_chaos::rng::Xoshiro256;

/// The non-overtaking rule: messages from one thread on one (comm, tag)
/// stream arrive in send order, whatever the design.
#[test]
fn fifo_holds_across_designs_and_thread_counts() {
    for design in [
        DesignConfig::default(),
        DesignConfig::builder().proposed(4).build().unwrap(),
        DesignConfig::builder().proposed(1).build().unwrap(),
    ] {
        let world = Arc::new(World::builder().ranks(2).design(design).build());
        let comm = world.comm_world();
        let threads = 4;
        let n = 60u32;
        let mut handles = Vec::new();
        for t in 0..threads {
            let sender_world = Arc::clone(&world);
            handles.push(std::thread::spawn(move || {
                let p = sender_world.proc(0);
                for i in 0..n {
                    p.send(&i.to_le_bytes(), 1, t, comm).unwrap();
                }
            }));
            let recv_world = Arc::clone(&world);
            handles.push(std::thread::spawn(move || {
                let p = recv_world.proc(1);
                for i in 0..n {
                    let m = p.recv(8, 0, t, comm).unwrap();
                    assert_eq!(
                        m.data,
                        i.to_le_bytes(),
                        "stream {t} out of order under {design:?}"
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}

/// Wildcard-tag receives see one sender's messages in send order even when
/// tags vary (FIFO is per (source, communicator), not per tag).
#[test]
fn wildcard_tag_preserves_source_order() {
    let world = World::builder().ranks(2).build();
    let comm = world.comm_world();
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let tags = [5i32, 3, 9, 3, 7, 5, 1, 9];
    let t = std::thread::spawn(move || {
        for (i, &tag) in tags.iter().enumerate() {
            p0.send(&(i as u32).to_le_bytes(), 1, tag, comm).unwrap();
        }
    });
    for (i, &tag) in tags.iter().enumerate() {
        let m = p1.recv(8, 0, ANY_TAG, comm).unwrap();
        assert_eq!(m.data, (i as u32).to_le_bytes());
        assert_eq!(m.tag, tag);
    }
    t.join().unwrap();
}

/// Any mix of tags and payload lengths round-trips completely and in
/// per-tag-stream order, concurrently.
#[test]
fn random_traffic_round_trips() {
    for seed in 0..12u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x7AFF);
        let n = 1 + rng.below(59) as usize;
        let plan: Vec<(i32, usize)> = (0..n)
            .map(|_| (rng.below(4) as i32, rng.below(200) as usize))
            .collect();
        let world = Arc::new(
            World::builder()
                .ranks(2)
                .design(DesignConfig::builder().proposed(2).build().unwrap())
                .build(),
        );
        let comm = world.comm_world();
        let send_plan = plan.clone();
        let world2 = Arc::clone(&world);
        let sender = std::thread::spawn(move || {
            let p = world2.proc(0);
            for (seq, (tag, len)) in send_plan.iter().enumerate() {
                let mut payload = vec![0u8; *len + 4];
                payload[..4].copy_from_slice(&(seq as u32).to_le_bytes());
                p.send(&payload, 1, *tag, comm).unwrap();
            }
        });
        let p1 = world.proc(1);
        // Per-tag expected sequence numbers must increase.
        let mut last_per_tag = [None::<u32>; 4];
        for (tag, len) in &plan {
            let m = p1.recv(len + 4, 0, *tag, comm).unwrap();
            let seq = u32::from_le_bytes(m.data[..4].try_into().unwrap());
            if let Some(prev) = last_per_tag[*tag as usize] {
                assert!(seq > prev, "tag {tag} reordered");
            }
            last_per_tag[*tag as usize] = Some(seq);
            assert_eq!(m.data.len(), len + 4);
        }
        sender.join().unwrap();
    }
}

/// Overtaking communicators may reorder but never lose or duplicate.
#[test]
fn overtaking_is_lossless() {
    for count in [1u32, 9, 64, 149] {
        let world = Arc::new(
            World::builder()
                .ranks(2)
                .design(DesignConfig::builder().proposed(4).build().unwrap())
                .build(),
        );
        let comm = world.new_comm_with(true);
        let world2 = Arc::clone(&world);
        let sender = std::thread::spawn(move || {
            let p = world2.proc(0);
            for i in 0..count {
                p.send(&i.to_le_bytes(), 1, 0, comm).unwrap();
            }
        });
        let p1 = world.proc(1);
        let mut got: Vec<u32> = (0..count)
            .map(|_| {
                let m = p1.recv(8, 0, 0, comm).unwrap();
                u32::from_le_bytes(m.data.try_into().unwrap())
            })
            .collect();
        sender.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..count).collect::<Vec<_>>());
    }
}

/// Sequence validation is per destination: traffic to a third rank never
/// stalls the stream to the second.
#[test]
fn per_destination_sequencing_is_independent() {
    let world = Arc::new(World::builder().ranks(3).build());
    let comm = world.comm_world();
    let p0 = world.proc(0);
    // Interleave sends to ranks 1 and 2.
    let t = {
        let p0 = p0.clone();
        std::thread::spawn(move || {
            for i in 0..20u32 {
                p0.send(&i.to_le_bytes(), 1 + (i % 2), 0, comm).unwrap();
            }
        })
    };
    let world1 = Arc::clone(&world);
    let r1 = std::thread::spawn(move || {
        let p = world1.proc(1);
        for i in (0..20u32).step_by(2) {
            assert_eq!(p.recv(8, 0, 0, comm).unwrap().data, i.to_le_bytes());
        }
    });
    let p2 = world.proc(2);
    for i in (1..20u32).step_by(2) {
        assert_eq!(p2.recv(8, 0, 0, comm).unwrap().data, i.to_le_bytes());
    }
    t.join().unwrap();
    r1.join().unwrap();
}
