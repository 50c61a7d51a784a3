//! Exhaustive interleaving check of the offload command queue's shutdown
//! hand-off (`fairmpi_offload::CommandQueue`): a push racing the close is
//! either refused or executed before the worker stops.

use fairmpi_check::mutants::shutdown_handoff;
use fairmpi_check::{assert_exhaustive, Checker};
use fairmpi_offload::CommandQueue;

/// The real admission count: in every schedule within the preemption
/// bound, nothing is left queued once the worker has stopped.
#[test]
fn a_push_racing_the_close_is_refused_or_executed() {
    let outcome = Checker::new().check(|| shutdown_handoff(CommandQueue::with_capacity(2)));
    let schedules = assert_exhaustive(&outcome, "offload shutdown hand-off");
    println!("offload shutdown hand-off: {schedules} schedules, exhaustive");
}
