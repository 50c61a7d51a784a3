//! Exhaustive interleaving check of a real instance's completion queue:
//! completions posted under the instance lock race progress passes that
//! drain them, and the in-flight count, which only the lock holder
//! writes, must end where the queue does.

use std::cell::RefCell;
use std::sync::Arc;

use fairmpi_check::{assert_exhaustive, spawn, Checker};
use fairmpi_cri::{Assignment, CriPool};
use fairmpi_fabric::{Completion, CompletionKind, Fabric, FabricConfig, Packet};
use fairmpi_progress::{ProgressEngine, ProgressHandler, ProgressMode};
use fairmpi_spc::SpcSet;

/// Records the tokens of the completions a pass hands over.
#[derive(Default)]
struct Tokens(RefCell<Vec<u64>>);

impl ProgressHandler for Tokens {
    fn on_packet(&self, _: Packet) -> usize {
        unreachable!("nothing is delivered to the instance")
    }

    fn on_completion(&self, completion: Completion) -> usize {
        self.0.borrow_mut().push(completion.token);
        1
    }
}

/// One thread posts two completions, each under its own acquisition of
/// the instance, while the main thread runs two progress passes; a final
/// pass after the join drains what is left. Every completion is handled
/// exactly once and no operation is left counted in flight.
///
/// A post lands between a pass's pop and anything the pass does after
/// releasing the instance only after three forced switches (to the
/// poster, back to the pass, to the poster again), hence the bound of 3.
#[test]
fn completions_racing_progress_are_handled_once() {
    let outcome = Checker::new().preemption_bound(3).check(|| {
        let fabric = Fabric::new(1, 1, FabricConfig::test_default());
        let pool = Arc::new(CriPool::new(&fabric, 0, 1, Arc::new(SpcSet::new())));
        let engine = ProgressEngine::new(Arc::clone(&pool), ProgressMode::Concurrent, 0);
        let poster = {
            let pool = Arc::clone(&pool);
            spawn(move || {
                for token in 0..2 {
                    pool.instance(0)
                        .lock(pool.spc())
                        .post_completion(Completion {
                            token,
                            kind: CompletionKind::RmaDone,
                        });
                }
            })
        };
        let handler = Tokens::default();
        for _ in 0..2 {
            engine.progress(Assignment::RoundRobin, &handler);
        }
        poster.join();
        engine.progress(Assignment::RoundRobin, &handler);
        assert_eq!(
            *handler.0.borrow(),
            vec![0, 1],
            "each completion once, in order"
        );
        assert_eq!(pool.instance(0).pending_ops(), 0, "nothing left in flight");
    });
    let schedules = assert_exhaustive(&outcome, "completion queue: posts racing progress");
    println!("completion queue: posts racing progress: {schedules} schedules, exhaustive");
}
