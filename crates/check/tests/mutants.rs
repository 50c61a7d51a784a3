//! The checker's own regression suite: seven deliberately seeded
//! concurrency bugs (see `fairmpi_check::mutants`), each of which the
//! checker must catch with a reproducible counterexample. A checker that
//! passes correct code proves nothing unless it also fails broken code.

use fairmpi_check::mutants::{
    MiniFreeList, MiniPool, MiniSlab, MiniSpillQueue, ModelRing, Pop, RacyDedup, RingBug,
};
use fairmpi_check::{assert_reproducible_failure, spawn, yield_now, Checker, Counterexample};
use fairmpi_sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// --- scenario bodies (fn items so check and replay run the same code) ---

fn ring_publish_before_write() {
    let ring = Arc::new(ModelRing::new(4, RingBug::PublishBeforeWrite));
    let producer = {
        let ring = Arc::clone(&ring);
        spawn(move || assert!(ring.try_push(7)))
    };
    let mut got = None;
    for _ in 0..3 {
        match ring.try_pop() {
            Pop::Value(v) => {
                got = Some(v);
                break;
            }
            Pop::Torn => panic!("popped a published but unwritten slot"),
            Pop::Empty => yield_now(),
        }
    }
    producer.join();
    if got.is_none() {
        match ring.try_pop() {
            Pop::Value(v) => got = Some(v),
            other => panic!("expected the pushed value after join, got {other:?}"),
        }
    }
    assert_eq!(got, Some(7));
}

fn ring_ticket_without_cas() {
    let ring = Arc::new(ModelRing::new(4, RingBug::TicketWithoutCas));
    let producers: Vec<_> = (1..=2u64)
        .map(|v| {
            let ring = Arc::clone(&ring);
            spawn(move || assert!(ring.try_push(v)))
        })
        .collect();
    for p in producers {
        p.join();
    }
    let mut got = Vec::new();
    for _ in 0..2 {
        match ring.try_pop() {
            Pop::Value(v) => got.push(v),
            Pop::Empty => panic!("a pushed value was lost ({} of 2 popped)", got.len()),
            Pop::Torn => panic!("popped a published but unwritten slot"),
        }
    }
    got.sort_unstable();
    assert_eq!(got, vec![1, 2], "no value duplicated or lost");
}

fn progress_lost_wakeup() {
    let pool = Arc::new(MiniPool::new(2, true));
    let poster = {
        let pool = Arc::clone(&pool);
        spawn(move || pool.post(1, 7))
    };
    let mut out = Vec::new();
    for _ in 0..2 {
        pool.pass(0, &mut out);
        if !out.is_empty() {
            break;
        }
        yield_now();
    }
    poster.join();
    // Give the mutant every chance: two full passes after the post is
    // complete. Once its pending signal is consumed, no number of passes
    // recovers the stranded completion.
    for _ in 0..2 {
        if out.is_empty() {
            pool.pass(0, &mut out);
        }
    }
    assert_eq!(
        out,
        vec![7],
        "the posted completion is eventually extracted"
    );
}

fn dedup_check_then_insert() {
    let dedup = Arc::new(RacyDedup::new());
    let accepted = Arc::new(AtomicU64::new(0));
    let deliveries: Vec<_> = (0..2)
        .map(|_| {
            let dedup = Arc::clone(&dedup);
            let accepted = Arc::clone(&accepted);
            spawn(move || {
                if dedup.accept(1) {
                    accepted.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();
    for d in deliveries {
        d.join();
    }
    assert_eq!(
        accepted.load(Ordering::SeqCst),
        1,
        "exactly one delivery of tseq 1 accepted"
    );
}

/// A late duplicate completion races the reap and the slot's reuse: with
/// a reap that keeps the generation, the recycled slot's new token equals
/// the old one and the stale completion lands on the new request.
fn slab_scenario(reap_keeps_generation: bool) {
    let slab = Arc::new(MiniSlab::new(reap_keeps_generation));
    let old = slab.alloc();
    let complete_old = || {
        let slab = Arc::clone(&slab);
        spawn(move || slab.complete(old))
    };
    let (completer, duplicate) = (complete_old(), complete_old());
    let mut reaped = slab.try_reap(old);
    let first = completer.join();
    if reaped.is_none() {
        reaped = slab.try_reap(old);
    }
    assert_eq!(reaped, Some(true), "the finished request is reaped");
    let new = slab.alloc();
    let second = duplicate.join();
    assert!(
        first ^ second,
        "exactly one completion of the old request lands"
    );
    assert_eq!(
        slab.is_pending(new),
        Some(true),
        "a stale completion landed on the recycled slot"
    );
}

fn slab_reap_keeps_generation() {
    slab_scenario(true);
}

/// One thread pops a slot while another pops two and pushes the first
/// back; the main thread then empties the stack. Every slot handed out
/// must be distinct: with an untagged head the first pop can install the
/// second thread's still-live slot as the new top (ABA).
fn free_list_scenario(tagged: bool) {
    let list = Arc::new(MiniFreeList::new(3, tagged));
    let single = {
        let list = Arc::clone(&list);
        spawn(move || list.pop())
    };
    let double = {
        let list = Arc::clone(&list);
        spawn(move || {
            let first = list.pop();
            let second = list.pop();
            if let Some(first) = first {
                list.push(first);
            }
            second
        })
    };
    let mut live: Vec<u32> = [single.join(), double.join()]
        .into_iter()
        .flatten()
        .collect();
    while let Some(index) = list.pop() {
        assert!(
            !live.contains(&index),
            "slot {index} handed out twice: {live:?}"
        );
        live.push(index);
    }
    live.sort_unstable();
    assert_eq!(live, vec![0, 1, 2], "every slot handed out exactly once");
}

fn free_list_untagged_head() {
    free_list_scenario(false);
}

/// Producer 0 pushes three values and producer 1 one into a 2-slot ring
/// while the consumer drains with budgets of 1 and 2. Every value must
/// arrive once and each producer's values in order: without the
/// `tail == head` re-check the drain hands out producer 0's spilled value
/// while its older one waits in the ring behind producer 1's claimed but
/// unpublished ticket.
fn spill_queue_scenario(recheck: bool) {
    let queue = Arc::new(MiniSpillQueue::new(2, recheck));
    let producers: Vec<_> = [(0u64, 3u64), (1, 1)]
        .into_iter()
        .map(|(src, count)| {
            let queue = Arc::clone(&queue);
            spawn(move || {
                for seq in 0..count {
                    queue.push(src << 32 | seq);
                }
            })
        })
        .collect();
    let mut got = Vec::new();
    for budget in [1, 2, 1] {
        queue.drain(budget, &mut got);
        yield_now();
    }
    for p in producers {
        p.join();
    }
    while queue.drain(2, &mut got) > 0 {}
    let order = |src: u64| -> Vec<u64> {
        got.iter()
            .filter(|&&v| v >> 32 == src)
            .map(|&v| v & 0xffff_ffff)
            .collect()
    };
    assert_eq!(order(0), vec![0, 1, 2], "producer 0: in order, each once");
    assert_eq!(order(1), vec![0], "producer 1: delivered once");
}

fn spill_queue_without_recheck() {
    spill_queue_scenario(false);
}

// --- catchers: explore, then replay the counterexample verbatim ---

fn catch(what: &str, scenario: fn()) -> Counterexample {
    let checker = Checker::new();
    let outcome = checker.check(scenario);
    let ce = assert_reproducible_failure(&checker, &outcome, scenario, what);
    println!(
        "caught '{what}' after {} schedule(s)",
        ce.schedules_explored
    );
    ce
}

#[test]
fn mutant_ring_publish_before_write_caught() {
    catch("ring publish-before-write", ring_publish_before_write);
}

#[test]
fn mutant_ring_ticket_without_cas_caught() {
    catch("ring ticket-without-CAS", ring_ticket_without_cas);
}

#[test]
fn mutant_progress_lost_wakeup_caught() {
    catch("progress lost-wakeup", progress_lost_wakeup);
}

#[test]
fn mutant_dedup_check_then_insert_caught() {
    catch("dedup check-then-insert", dedup_check_then_insert);
}

#[test]
fn mutant_slab_reap_keeps_generation_caught() {
    catch("slab reap-keeps-generation", slab_reap_keeps_generation);
}

#[test]
fn mutant_free_list_untagged_head_caught() {
    catch("free list untagged head", free_list_untagged_head);
}

#[test]
fn mutant_spill_queue_without_recheck_caught() {
    catch(
        "spill hand-off without re-check",
        spill_queue_without_recheck,
    );
}

/// The gate ci.sh greps for: every seeded mutant produced a reproducible
/// counterexample.
#[test]
fn all_seeded_mutants_caught() {
    let mutants: [(&str, fn()); 7] = [
        ("ring publish-before-write", ring_publish_before_write),
        ("ring ticket-without-CAS", ring_ticket_without_cas),
        ("progress lost-wakeup", progress_lost_wakeup),
        ("dedup check-then-insert", dedup_check_then_insert),
        ("slab reap-keeps-generation", slab_reap_keeps_generation),
        ("free list untagged head", free_list_untagged_head),
        (
            "spill hand-off without re-check",
            spill_queue_without_recheck,
        ),
    ];
    for (what, scenario) in mutants {
        let ce = catch(what, scenario);
        assert!(!ce.schedule.is_empty(), "counterexample has a schedule");
    }
    println!("all 7 seeded mutants caught");
}

/// The miniature ring with no seeded bug upholds the same properties the
/// mutants violate — evidence the miniature (and not an artifact of it)
/// is what the mutants break.
#[test]
fn miniature_ring_correct_protocol_passes() {
    let checker = Checker::new();
    checker
        .check(|| {
            let ring = Arc::new(ModelRing::new(4, RingBug::None));
            let producers: Vec<_> = (1..=2u64)
                .map(|v| {
                    let ring = Arc::clone(&ring);
                    spawn(move || assert!(ring.try_push(v)))
                })
                .collect();
            let mut got = Vec::new();
            for _ in 0..3 {
                match ring.try_pop() {
                    Pop::Value(v) => got.push(v),
                    Pop::Torn => panic!("popped a published but unwritten slot"),
                    Pop::Empty => yield_now(),
                }
                if got.len() == 2 {
                    break;
                }
            }
            for p in producers {
                p.join();
            }
            loop {
                match ring.try_pop() {
                    Pop::Value(v) => got.push(v),
                    Pop::Torn => panic!("popped a published but unwritten slot"),
                    Pop::Empty => break,
                }
            }
            got.sort_unstable();
            assert_eq!(got, vec![1, 2]);
        })
        .assert_pass("miniature ring, correct protocol");
}

/// The miniature slab with the generation advanced at reap upholds the
/// property its mutant violates.
#[test]
fn miniature_slab_correct_protocol_passes() {
    Checker::new()
        .check(|| slab_scenario(false))
        .assert_pass("miniature slab, correct protocol");
}

/// The miniature free stack with a tagged head upholds the property its
/// mutant violates, over the whole bounded schedule space.
#[test]
fn miniature_free_list_correct_protocol_passes() {
    let outcome = Checker::new().check(|| free_list_scenario(true));
    fairmpi_check::assert_exhaustive(&outcome, "miniature free list, tagged head");
}

/// The miniature spill queue with the `tail == head` re-check keeps every
/// producer in order over the whole bounded schedule space.
#[test]
fn miniature_spill_queue_correct_protocol_passes() {
    let outcome = Checker::new().check(|| spill_queue_scenario(true));
    fairmpi_check::assert_exhaustive(&outcome, "miniature spill queue, with re-check");
}
