//! Progress engine tests.

use fairmpi_sync::Mutex;
use std::sync::Arc;

use fairmpi_cri::{Assignment, CriPool};
use fairmpi_fabric::{Completion, CompletionKind, Envelope, Fabric, FabricConfig, Packet};
use fairmpi_spc::{Counter, SpcSet};

use crate::{ProgressEngine, ProgressHandler, ProgressMode};

/// Records everything it sees; each item counts as one completion.
#[derive(Default)]
struct Recorder {
    packets: Mutex<Vec<Packet>>,
    completions: Mutex<Vec<Completion>>,
}

impl ProgressHandler for Recorder {
    fn on_packet(&self, packet: Packet) -> usize {
        self.packets.lock().push(packet);
        1
    }
    fn on_completion(&self, completion: Completion) -> usize {
        self.completions.lock().push(completion);
        1
    }
}

fn setup(instances: usize, mode: ProgressMode) -> (Arc<Fabric>, Arc<CriPool>, ProgressEngine) {
    let fabric = Arc::new(Fabric::new(2, instances, FabricConfig::test_default()));
    let pool = Arc::new(CriPool::new(&fabric, 1, instances, Arc::new(SpcSet::new())));
    let engine = ProgressEngine::new(Arc::clone(&pool), mode, 0);
    (fabric, pool, engine)
}

fn packet(dst: u32, seq: u64) -> Packet {
    Packet::eager(
        Envelope {
            src: 0,
            dst,
            comm: 0,
            tag: 0,
            seq,
        },
        vec![],
    )
}

#[test]
fn serial_progress_drains_every_instance() {
    let (fabric, _pool, engine) = setup(4, ProgressMode::Serial);
    // One packet per destination context.
    for ctx in 0..4 {
        fabric.deliver(packet(1, ctx as u64), ctx);
    }
    let rec = Recorder::default();
    let count = engine.progress(Assignment::RoundRobin, &rec);
    assert_eq!(count, 4);
    assert_eq!(rec.packets.lock().len(), 4);
}

#[test]
fn concurrent_progress_prefers_assigned_instance() {
    let (fabric, pool, engine) = setup(4, ProgressMode::Concurrent);
    // Work only on the dedicated instance of this thread (id 0, first draw).
    let dedicated = pool.dedicated_id();
    fabric.deliver(packet(1, 0), dedicated);
    let rec = Recorder::default();
    let count = engine.progress(Assignment::Dedicated, &rec);
    assert_eq!(count, 1);
    // No fallback sweep was needed.
    assert_eq!(pool.spc().get(Counter::ProgressFallbackSweeps), 0);
}

#[test]
fn concurrent_progress_falls_back_to_other_instances() {
    let (fabric, pool, engine) = setup(4, ProgressMode::Concurrent);
    let dedicated = pool.dedicated_id();
    // Work lives on a *different* instance than the dedicated one.
    let other = (dedicated + 2) % 4;
    fabric.deliver(packet(1, 0), other);
    let rec = Recorder::default();
    let count = engine.progress(Assignment::Dedicated, &rec);
    assert_eq!(count, 1, "fallback sweep must find the stranded packet");
    assert_eq!(pool.spc().get(Counter::ProgressFallbackSweeps), 1);
}

#[test]
fn orphaned_instances_are_eventually_progressed() {
    // A thread that owned instance 2 died; its packets must still be
    // drained by other threads' fallback sweeps (paper §III-E).
    let (fabric, _pool, engine) = setup(3, ProgressMode::Concurrent);
    for seq in 0..5 {
        fabric.deliver(packet(1, seq), 2);
    }
    let rec = Recorder::default();
    let mut total = 0;
    for _ in 0..10 {
        total += engine.progress(Assignment::Dedicated, &rec);
        if total >= 5 {
            break;
        }
    }
    assert_eq!(total, 5);
}

#[test]
fn locked_instance_is_skipped_not_deadlocked() {
    let (fabric, pool, engine) = setup(2, ProgressMode::Concurrent);
    fabric.deliver(packet(1, 0), 0);
    fabric.deliver(packet(1, 0), 1);
    // Hold instance 0's lock as if a sender were injecting.
    let guard = pool.instance(0).lock(pool.spc());
    let rec = Recorder::default();
    let count = engine.progress(Assignment::RoundRobin, &rec);
    // Instance 1's packet is drained; instance 0 is skipped.
    assert_eq!(count, 1);
    assert!(pool.spc().get(Counter::InstanceTryLockFailures) >= 1);
    drop(guard);
    let count = engine.progress(Assignment::RoundRobin, &rec);
    assert_eq!(count, 1, "instance 0 drained after the lock is released");
}

#[test]
fn serial_mode_excludes_concurrent_callers() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    // A handler that parks inside the callback so a second thread's
    // progress call overlaps the first.
    struct Parking {
        entered: AtomicUsize,
    }
    impl ProgressHandler for Parking {
        fn on_packet(&self, _: Packet) -> usize {
            self.entered.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(50));
            1
        }
        fn on_completion(&self, _: Completion) -> usize {
            1
        }
    }
    let (fabric, _pool, engine) = setup(1, ProgressMode::Serial);
    fabric.deliver(packet(1, 0), 0);
    let engine = Arc::new(engine);
    let handler = Arc::new(Parking {
        entered: AtomicUsize::new(0),
    });
    let t = {
        let engine = Arc::clone(&engine);
        let handler = Arc::clone(&handler);
        std::thread::spawn(move || engine.progress(Assignment::RoundRobin, &*handler))
    };
    // NOTE: handling happens after the gate is released in this design only
    // for the items already extracted; the gate covers the extraction loop.
    // Here we simply verify both calls terminate and exactly one packet is
    // handled overall.
    let mine = engine.progress(Assignment::RoundRobin, &*handler);
    let theirs = t.join().unwrap();
    assert_eq!(mine + theirs, 1);
    assert_eq!(handler.entered.load(Ordering::SeqCst), 1);
}

#[test]
fn drain_budget_bounds_items_per_visit() {
    let (fabric, _pool, engine) = setup(1, ProgressMode::Serial);
    let engine = engine.with_drain_budget(3);
    for seq in 0..10 {
        fabric.deliver(packet(1, seq), 0);
    }
    let rec = Recorder::default();
    assert_eq!(engine.progress(Assignment::RoundRobin, &rec), 3);
    assert_eq!(engine.progress(Assignment::RoundRobin, &rec), 3);
    assert_eq!(engine.progress(Assignment::RoundRobin, &rec), 3);
    assert_eq!(engine.progress(Assignment::RoundRobin, &rec), 1);
}

#[test]
fn each_visit_hands_its_packets_over_as_one_batch() {
    /// Records the size of every batch and the order of its packets.
    #[derive(Default)]
    struct Batches(Mutex<Vec<Vec<u64>>>);
    impl ProgressHandler for Batches {
        fn on_packet(&self, _: Packet) -> usize {
            unreachable!("the engine hands packets over in batches")
        }
        fn on_packets(&self, packets: &mut Vec<Packet>) -> usize {
            let seqs: Vec<u64> = packets.drain(..).map(|p| p.envelope.seq).collect();
            let n = seqs.len();
            self.0.lock().push(seqs);
            n
        }
        fn on_completion(&self, _: Completion) -> usize {
            0
        }
    }
    let (fabric, _pool, engine) = setup(1, ProgressMode::Serial);
    let engine = engine.with_drain_budget(4);
    for seq in 0..6 {
        fabric.deliver(packet(1, seq), 0);
    }
    let handler = Batches::default();
    assert_eq!(engine.progress(Assignment::RoundRobin, &handler), 4);
    assert_eq!(engine.progress(Assignment::RoundRobin, &handler), 2);
    assert_eq!(engine.progress(Assignment::RoundRobin, &handler), 0);
    assert_eq!(*handler.0.lock(), vec![vec![0, 1, 2, 3], vec![4, 5]]);
}

#[test]
fn each_visit_hands_its_completions_over_as_one_batch() {
    /// Records the tokens of every completion batch.
    #[derive(Default)]
    struct Batches(Mutex<Vec<Vec<u64>>>);
    impl ProgressHandler for Batches {
        fn on_packet(&self, _: Packet) -> usize {
            0
        }
        fn on_completion(&self, _: Completion) -> usize {
            unreachable!("the engine hands completions over in batches")
        }
        fn on_completions(&self, completions: &mut Vec<Completion>) -> usize {
            let tokens: Vec<u64> = completions.drain(..).map(|c| c.token).collect();
            let n = tokens.len();
            self.0.lock().push(tokens);
            n
        }
    }
    let (_fabric, pool, engine) = setup(1, ProgressMode::Serial);
    let engine = engine.with_drain_budget(4);
    let cri = pool.instance(0);
    {
        let guard = cri.lock(pool.spc());
        for token in 0..6 {
            guard.post_completion(Completion {
                token,
                kind: CompletionKind::RmaDone,
            });
        }
    }
    let handler = Batches::default();
    assert_eq!(cri.pending_ops(), 6);
    assert_eq!(engine.progress(Assignment::RoundRobin, &handler), 4);
    assert_eq!(cri.pending_ops(), 2, "one visit retires exactly its batch");
    assert_eq!(engine.progress(Assignment::RoundRobin, &handler), 2);
    assert_eq!(cri.pending_ops(), 0);
    assert_eq!(engine.progress(Assignment::RoundRobin, &handler), 0);
    assert_eq!(*handler.0.lock(), vec![vec![0, 1, 2, 3], vec![4, 5]]);
    assert_eq!(pool.spc().get(Counter::CompletionsDrained), 6);
}

#[test]
fn completions_release_pending_ops() {
    let (_fabric, pool, engine) = setup(1, ProgressMode::Serial);
    let cri = pool.instance(0);
    {
        let guard = cri.lock(pool.spc());
        guard.post_completion(Completion {
            token: 5,
            kind: CompletionKind::RmaDone,
        });
    }
    assert_eq!(cri.pending_ops(), 1);
    let rec = Recorder::default();
    engine.progress(Assignment::RoundRobin, &rec);
    assert_eq!(cri.pending_ops(), 0);
    assert_eq!(rec.completions.lock().len(), 1);
    assert_eq!(rec.completions.lock()[0].token, 5);
}

#[test]
fn progress_counts_in_spc() {
    let (fabric, pool, engine) = setup(2, ProgressMode::Concurrent);
    fabric.deliver(packet(1, 0), 1);
    let rec = Recorder::default();
    for _ in 0..7 {
        engine.progress(Assignment::RoundRobin, &rec);
    }
    let spc = pool.spc();
    assert_eq!(spc.get(Counter::ProgressCalls), 7);
    assert_eq!(spc.get(Counter::ProgressUsefulPasses), 1);
    // Every call books exactly one pass, useful or wasted.
    assert_eq!(
        spc.get(Counter::ProgressUsefulPasses) + spc.get(Counter::ProgressWastedPasses),
        spc.get(Counter::ProgressCalls)
    );
}

/// Algorithm 1 binds each thread's dedicated instance with one draw from
/// the pool's round-robin counter. A fallback sweep draws nothing from it,
/// so threads that bind one after another get distinct instances even
/// when a fallback pass finds work between two bindings.
#[test]
fn fallback_passes_leave_dedicated_bindings_one_to_one() {
    for instances in 2..=4 {
        let (fabric, pool, engine) = setup(instances, ProgressMode::Concurrent);
        let rec = Recorder::default();
        let mut bound = Vec::new();
        for _ in 0..instances {
            let mine = std::thread::scope(|s| {
                s.spawn(|| {
                    let mine = pool.dedicated_id();
                    // Work waits on the next instance only: the pass's
                    // first fallback visit finds it.
                    fabric.deliver(packet(1, 0), (mine + 1) % instances);
                    assert_eq!(engine.progress(Assignment::Dedicated, &rec), 1);
                    mine
                })
                .join()
                .unwrap()
            });
            bound.push(mine);
        }
        let mut distinct = bound.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), instances, "bindings {bound:?}");
        let spc = pool.spc();
        assert_eq!(
            spc.get(Counter::CriRoundRobinAssignments),
            instances as u64,
            "one Algorithm 1 draw per binding"
        );
        assert_eq!(spc.get(Counter::ProgressFallbackSweeps), instances as u64);
    }
}
