//! Exhaustive interleaving check of the real send-side sequencer
//! (`fairmpi_matching::SendSequencer`), whose per-peer counters are
//! `fairmpi-sync` atomics.

use fairmpi_check::{spawn, Checker};
use fairmpi_matching::SendSequencer;
use std::sync::Arc;

/// Two threads racing a draw toward one peer get distinct, dense
/// sequence numbers in every schedule: a lost update would hand both the
/// same number and the matcher would wait forever for the missing one.
#[test]
fn racing_draws_toward_one_peer_are_distinct() {
    let checker = Checker::new();
    let outcome = checker.check(|| {
        let seq = Arc::new(SendSequencer::new(2));
        let other = {
            let seq = Arc::clone(&seq);
            spawn(move || seq.next(1))
        };
        let mine = seq.next(1);
        let mut drawn = [mine, other.join()];
        drawn.sort_unstable();
        assert_eq!(drawn, [0, 1], "each draw toward peer 1 is unique");
        assert_eq!(seq.issued(1), 2);
        assert_eq!(seq.issued(0), 0, "peers count independently");
    });
    outcome.assert_pass("SendSequencer racing draws");
    match outcome {
        fairmpi_check::Outcome::Pass {
            schedules,
            complete,
        } => {
            assert!(complete, "bounded schedule space was not exhausted");
            println!("SendSequencer draws: {schedules} schedules, exhaustive");
        }
        fairmpi_check::Outcome::Fail(_) => unreachable!(),
    }
}
