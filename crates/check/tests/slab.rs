//! Exhaustive interleaving checks of the real request slab
//! (`fairmpi::RequestTable`): completions, reaps and stale tokens racing.

use fairmpi::{Message, MpiError, RequestTable};
use fairmpi_check::{assert_exhaustive, spawn, Checker};
use std::sync::Arc;

/// Two waiters on clones of one receive handle race each other and the
/// completion: exactly one gets the message, the other `InvalidRequest`,
/// and the table ends empty.
#[test]
fn racing_reapers_get_the_outcome_once() {
    let outcome = Checker::new().check(|| {
        let table = Arc::new(RequestTable::new());
        let token = table.new_recv(8);
        let completer = {
            let table = Arc::clone(&table);
            spawn(move || {
                let msg = Message {
                    data: vec![7],
                    src: 0,
                    tag: 3,
                };
                assert_eq!(table.complete_recv(token, msg), Some(true));
            })
        };
        let reapers: Vec<_> = (0..2)
            .map(|_| {
                let table = Arc::clone(&table);
                spawn(move || table.try_reap(token))
            })
            .collect();
        completer.join();
        // A reaper that gave up before the completion retries now.
        let outcomes: Vec<_> = reapers
            .into_iter()
            .map(|r| r.join().or_else(|| table.try_reap(token)))
            .collect();
        let delivered = outcomes
            .iter()
            .filter(|o| matches!(o, Some(Ok(m)) if m.data == [7]))
            .count();
        let refused = outcomes
            .iter()
            .filter(|o| matches!(o, Some(Err(MpiError::InvalidRequest(t))) if *t == token))
            .count();
        assert_eq!((delivered, refused), (1, 1), "{outcomes:?}");
        assert!(table.is_empty(), "the reaped slot is free again");
    });
    let schedules = assert_exhaustive(&outcome, "request slab: racing reapers");
    println!("request slab: racing reapers: {schedules} schedules, exhaustive");
}

/// A late duplicate completion races the first completion, the reap and
/// the slot's reuse: exactly one completion lands, and never on the
/// slot's next occupant.
#[test]
fn stale_completion_never_lands_on_a_recycled_slot() {
    let outcome = Checker::new().check(|| {
        let table = Arc::new(RequestTable::new());
        let old = table.new_send(0, 5, None);
        let complete_old = || {
            let table = Arc::clone(&table);
            spawn(move || table.complete_send(old))
        };
        let (completer, duplicate) = (complete_old(), complete_old());
        let mut reaped = table.try_reap(old);
        let first = completer.join();
        if reaped.is_none() {
            reaped = table.try_reap(old);
        }
        assert!(matches!(reaped, Some(Ok(_))), "{reaped:?}");
        let new = table.new_send(0, 6, None);
        assert_eq!(old as u32, new as u32, "the slot is recycled");
        assert_ne!(old, new, "under a new generation");
        let second = duplicate.join();
        assert!(
            first ^ second,
            "exactly one completion of the old request lands"
        );
        assert_eq!(
            table.is_done(new),
            Some(false),
            "a stale completion landed on the recycled slot"
        );
        assert_eq!(
            table.try_reap(old),
            Some(Err(MpiError::InvalidRequest(old)))
        );
    });
    let schedules = assert_exhaustive(&outcome, "request slab: stale completion");
    println!("request slab: stale completion: {schedules} schedules, exhaustive");
}

/// Two threads each run allocate → complete → reap twice, so slots cycle
/// through the free stack while the other thread pops and pushes it: no
/// index is ever live in two places, every token reaps its own outcome,
/// and the table ends empty.
#[test]
fn free_stack_never_hands_one_slot_out_twice() {
    let outcome = Checker::new().check(|| {
        let table = Arc::new(RequestTable::new());
        let live = Arc::new(std::sync::Mutex::new(Vec::new()));
        let workers: Vec<_> = (0..2)
            .map(|tag| {
                let table = Arc::clone(&table);
                let live = Arc::clone(&live);
                spawn(move || {
                    for _ in 0..2 {
                        let token = table.new_send(0, tag, None);
                        let index = token as u32;
                        {
                            let mut live = live.lock().unwrap();
                            assert!(!live.contains(&index), "slot {index} handed out twice");
                            live.push(index);
                        }
                        assert!(table.complete_send(token));
                        live.lock().unwrap().retain(|&i| i != index);
                        let ack = table.try_reap(token).expect("completed").expect("an ack");
                        assert_eq!(ack.tag, tag, "reaped another request's outcome");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join();
        }
        assert!(table.is_empty(), "every reaped slot is back on the stack");
    });
    let schedules = assert_exhaustive(&outcome, "request slab: free stack");
    println!("request slab: free stack: {schedules} schedules, exhaustive");
}

/// Complete and reap a send request.
fn retire(table: &RequestTable, token: u64) {
    assert!(table.complete_send(token));
    assert!(matches!(table.try_reap(token), Some(Ok(_))));
}

/// The ABA shape on the real table: one thread's allocation reads the free
/// stack's head and the slot below it while another thread allocates both
/// and reaps the first, putting the old head back on top. The stale pop
/// must lose its compare-and-swap; a head without a tag lets it install a
/// slot that is still live. Afterwards every minted slot must be free and
/// hand out exactly once.
#[test]
fn stale_pop_loses_to_pop_pop_push() {
    let outcome = Checker::new().check(|| {
        let table = Arc::new(RequestTable::new());
        let warm: Vec<_> = (0..3).map(|_| table.new_send(0, 0, None)).collect();
        for &token in &warm {
            retire(&table, token);
        }
        let single = {
            let table = Arc::clone(&table);
            spawn(move || {
                let token = table.new_send(0, 1, None);
                retire(&table, token);
                token as u32
            })
        };
        let double = {
            let table = Arc::clone(&table);
            spawn(move || {
                let first = table.new_send(0, 2, None);
                let second = table.new_send(0, 3, None);
                retire(&table, first);
                assert_ne!(first as u32, second as u32, "one slot handed out twice");
                retire(&table, second);
            })
        };
        single.join();
        double.join();
        assert!(table.is_empty());
        let mut indices: Vec<u32> = (0..3).map(|_| table.new_send(0, 0, None) as u32).collect();
        indices.sort_unstable();
        assert_eq!(indices, [0, 1, 2], "the free stack lost or doubled a slot");
    });
    let schedules = assert_exhaustive(&outcome, "request slab: stale pop");
    println!("request slab: stale pop: {schedules} schedules, exhaustive");
}

/// A receive completion with a payload (claim, write, publish) races a
/// cancel and a reaper: exactly one of the two finishes the request, the
/// reaper never sees a half-written claim, and a request once seen
/// cancelled never yields a message.
#[test]
fn claimed_completion_races_cancel_and_reaper() {
    let outcome = Checker::new().check(|| {
        let table = Arc::new(RequestTable::new());
        let token = table.new_recv(8);
        let completer = {
            let table = Arc::clone(&table);
            spawn(move || {
                let msg = Message {
                    data: vec![7],
                    src: 1,
                    tag: 3,
                };
                table.complete_recv(token, msg)
            })
        };
        let canceller = {
            let table = Arc::clone(&table);
            spawn(move || table.cancel(token))
        };
        let mut reaped = table.try_reap(token);
        let completed = completer.join();
        let cancelled = canceller.join();
        if reaped.is_none() {
            reaped = table.try_reap(token);
        }
        assert!(
            (completed == Some(true)) ^ cancelled,
            "exactly one finisher wins: {completed:?} / {cancelled}"
        );
        let expected = if cancelled {
            Err(MpiError::Cancelled)
        } else {
            Ok(Message {
                data: vec![7],
                src: 1,
                tag: 3,
            })
        };
        assert_eq!(reaped, Some(expected));
        assert!(table.is_empty());
    });
    let schedules = assert_exhaustive(&outcome, "request slab: claim vs cancel");
    println!("request slab: claim vs cancel: {schedules} schedules, exhaustive");
}
