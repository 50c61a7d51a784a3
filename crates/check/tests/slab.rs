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
