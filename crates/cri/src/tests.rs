//! Pool-level tests: assignment strategies under one and many threads.

use std::sync::Arc;

use fairmpi_fabric::{Fabric, FabricConfig};
use fairmpi_spc::{Counter, SpcSet};

use crate::{Assignment, CriPool};

fn pool(instances: usize) -> CriPool {
    let fabric = Fabric::new(1, instances, FabricConfig::test_default());
    CriPool::new(&fabric, 0, instances, Arc::new(SpcSet::new()))
}

#[test]
fn round_robin_cycles_through_instances() {
    let p = pool(3);
    let ids: Vec<usize> = (0..7).map(|_| p.round_robin_id()).collect();
    assert_eq!(ids, vec![0, 1, 2, 0, 1, 2, 0]);
    assert_eq!(p.spc().get(Counter::CriRoundRobinAssignments), 7);
}

#[test]
fn one_instance_round_robin_still_counts_each_pick() {
    let p = pool(1);
    assert!((0..5).all(|_| p.round_robin_id() == 0));
    assert_eq!(p.spc().get(Counter::CriRoundRobinAssignments), 5);
}

#[test]
fn dedicated_is_sticky_within_a_thread() {
    let p = pool(4);
    let first = p.dedicated_id();
    for _ in 0..10 {
        assert_eq!(p.dedicated_id(), first);
    }
    // Dedicated hits counted after the initial assignment.
    assert_eq!(p.spc().get(Counter::CriDedicatedHits), 10);
    assert_eq!(p.spc().get(Counter::CriRoundRobinAssignments), 1);
}

#[test]
fn dedicated_assignments_differ_across_threads() {
    let p = Arc::new(pool(8));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                let id = p.dedicated_id();
                // Stays sticky inside the thread.
                assert_eq!(p.dedicated_id(), id);
                id
            })
        })
        .collect();
    let mut ids: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len(),
        8,
        "8 threads over 8 instances must get distinct dedicated CRIs"
    );
}

#[test]
fn dedicated_shares_instances_when_threads_exceed_pool() {
    // 4 threads, 2 instances: assignments must stay in range and collide.
    let p = Arc::new(pool(2));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let p = Arc::clone(&p);
            std::thread::spawn(move || p.dedicated_id())
        })
        .collect();
    let ids: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(ids.iter().all(|&i| i < 2));
}

#[test]
fn dedicated_state_is_per_pool() {
    let p1 = pool(4);
    let p2 = pool(4);
    let a = p1.dedicated_id();
    let b = p2.dedicated_id();
    // Both start their round-robin at 0 independently.
    assert_eq!(a, 0);
    assert_eq!(b, 0);
    // Advancing p1's round-robin does not disturb p2's dedication.
    p1.round_robin_id();
    assert_eq!(p2.dedicated_id(), 0);
}

#[test]
fn pools_used_alternately_keep_distinct_bindings() {
    let p1 = pool(4);
    let p2 = pool(4);
    p2.round_robin_id();
    for _ in 0..10 {
        assert_eq!(p1.dedicated_id(), 0);
        assert_eq!(p2.dedicated_id(), 1);
    }
    for p in [&p1, &p2] {
        assert_eq!(p.spc().get(Counter::CriDedicatedHits), 9);
    }
    assert_eq!(p1.spc().get(Counter::CriRoundRobinAssignments), 1);
    assert_eq!(p2.spc().get(Counter::CriRoundRobinAssignments), 2);
}

#[test]
fn forget_dedicated_reassigns() {
    let p = pool(3);
    let first = p.dedicated_id();
    assert_eq!(first, 0);
    p.forget_dedicated();
    let second = p.dedicated_id();
    assert_eq!(second, 1, "round-robin advanced to the next instance");
    assert_eq!(p.dedicated_id(), 1, "the new binding sticks");
    assert_eq!(p.spc().get(Counter::CriDedicatedHits), 1);
    assert_eq!(p.spc().get(Counter::CriRoundRobinAssignments), 2);
}

#[test]
fn forgetting_one_pool_keeps_the_other_binding() {
    let p1 = pool(2);
    let p2 = pool(2);
    assert_eq!(p2.dedicated_id(), 0);
    assert_eq!(p1.dedicated_id(), 0);
    p1.forget_dedicated();
    assert_eq!(p2.dedicated_id(), 0);
    assert_eq!(p2.spc().get(Counter::CriRoundRobinAssignments), 1);
    assert_eq!(p1.dedicated_id(), 1, "p1 draws a fresh instance");
    assert_eq!(p1.spc().get(Counter::CriDedicatedHits), 0);
}

#[test]
fn failover_rebinds_the_dedicated_instance() {
    let p = pool(3);
    assert_eq!(p.dedicated_id(), 0);
    p.instance(0).context().kill();
    assert_eq!(p.alive_instance_id(Assignment::Dedicated), Some(1));
    assert_eq!(
        p.dedicated_id(),
        1,
        "later calls go straight to the survivor"
    );
    assert_eq!(p.alive_instance_id(Assignment::Dedicated), Some(1));
    assert_eq!(p.spc().get(Counter::CriFailovers), 1);
    assert_eq!(p.spc().get(Counter::CriRoundRobinAssignments), 1);
    assert_eq!(p.spc().get(Counter::CriDedicatedHits), 3);
}

#[test]
fn pool_size_clamps_to_available_contexts() {
    let fabric = Fabric::new(1, 4, FabricConfig::test_default());
    let p = CriPool::new(&fabric, 0, 64, Arc::new(SpcSet::new()));
    assert_eq!(p.len(), 4);
    let p1 = CriPool::new(&fabric, 0, 0, Arc::new(SpcSet::new()));
    assert_eq!(p1.len(), 1, "at least one instance");
}

#[test]
fn instance_id_dispatches_on_strategy() {
    let p = pool(2);
    assert_eq!(p.instance_id(Assignment::RoundRobin), 0);
    assert_eq!(p.instance_id(Assignment::RoundRobin), 1);
    let d = p.instance_id(Assignment::Dedicated);
    assert_eq!(p.instance_id(Assignment::Dedicated), d);
}

#[test]
fn concurrent_round_robin_spreads_load() {
    let p = Arc::new(pool(4));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                let mut counts = vec![0usize; 4];
                for _ in 0..1000 {
                    counts[p.round_robin_id()] += 1;
                }
                counts
            })
        })
        .collect();
    let mut total = [0usize; 4];
    for h in handles {
        for (i, c) in h.join().unwrap().into_iter().enumerate() {
            total[i] += c;
        }
    }
    assert_eq!(total.iter().sum::<usize>(), 4000);
    for (i, &c) in total.iter().enumerate() {
        assert_eq!(c, 1000, "instance {i} got {c} assignments, expected 1000");
    }
}
