//! Sampled wall-clock timing of matcher holds into `match_time_ns`.
//!
//! A clock pair costs more than a short matcher hold, and every `irecv`
//! and every delivered batch takes one hold. So each thread times one hold
//! in [`MEAN_GAP`] and charges it `MEAN_GAP` times over, which keeps the
//! counter an unbiased estimate of the total hold time. The gaps between
//! timed holds are drawn uniformly from `1..=2·MEAN_GAP−1`: a fixed period
//! would alias with the periodic post/deliver alternation of a ping-pong
//! and time only one kind of hold. A thread's first hold is always timed,
//! so any run that matches records nonzero time.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fairmpi_chaos::rng::Xoshiro256;
use fairmpi_spc::{Counter, SpcSet};

/// Mean number of holds per timed hold.
const MEAN_GAP: u32 = 16;

/// One thread's choice of which holds to time.
#[derive(Debug)]
struct Sampler {
    /// Holds left to skip before the next timed one.
    skip: u32,
    /// Gap generator; `None` until the thread's first hold seeds it.
    rng: Option<Xoshiro256>,
}

impl Sampler {
    const NEW: Self = Self { skip: 0, rng: None };

    /// Whether to time the next hold.
    #[inline]
    fn take(&mut self) -> bool {
        if self.skip > 0 {
            self.skip -= 1;
            return false;
        }
        let rng = self.rng.get_or_insert_with(|| {
            // A distinct seed for each thread.
            static THREADS: AtomicU64 = AtomicU64::new(0);
            Xoshiro256::seed_from_u64(THREADS.fetch_add(1, Ordering::Relaxed))
        });
        // Skipping 0..2·MEAN_GAP−1 holds makes the gap uniform in
        // 1..=2·MEAN_GAP−1, which has mean MEAN_GAP.
        self.skip = rng.below(u64::from(2 * MEAN_GAP - 1)) as u32;
        true
    }
}

thread_local! {
    static SAMPLER: RefCell<Sampler> = const { RefCell::new(Sampler::NEW) };
}

/// Run `hold`, timing it if this thread's sampler picks it, and charge
/// the estimate to `match_time_ns`.
#[inline]
pub(crate) fn sampled<R>(spc: &SpcSet, hold: impl FnOnce() -> R) -> R {
    let timed = SAMPLER.with_borrow_mut(Sampler::take);
    if !timed {
        return hold();
    }
    let start = Instant::now();
    let result = hold();
    let ns = start.elapsed().as_nanos() as u64;
    spc.add_saturating(
        Counter::MatchTimeNanos,
        ns.saturating_mul(u64::from(MEAN_GAP)),
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_threads_first_hold_is_timed() {
        let spc = SpcSet::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let before = spc.get(Counter::MatchTimeNanos);
                    sampled(&spc, || {
                        std::thread::sleep(std::time::Duration::from_micros(50))
                    });
                    assert!(spc.get(Counter::MatchTimeNanos) - before >= 50_000 * 16);
                });
            }
        });
        let mut fresh = Sampler::NEW;
        assert!(fresh.take());
    }

    #[test]
    fn gaps_average_the_mean_gap() {
        let mut sampler = Sampler::NEW;
        const HOLDS: u32 = 1_600_000;
        let timed = (0..HOLDS).filter(|_| sampler.take()).count() as f64;
        let mean_gap = f64::from(HOLDS) / timed;
        assert!(
            (mean_gap - f64::from(MEAN_GAP)).abs() < 0.02 * f64::from(MEAN_GAP),
            "mean gap {mean_gap}"
        );
    }

    /// Ping-pong alternates post and deliver holds; both kinds must be
    /// timed at the same rate, or the estimate charges one kind's cost to
    /// both.
    #[test]
    fn alternating_holds_are_sampled_evenly() {
        let mut sampler = Sampler::NEW;
        let mut timed = [0u32; 2];
        for i in 0..1_600_000usize {
            if sampler.take() {
                timed[i % 2] += 1;
            }
        }
        let (post, deliver) = (f64::from(timed[0]), f64::from(timed[1]));
        assert!(
            (post - deliver).abs() < 0.1 * post.min(deliver),
            "post {post} vs deliver {deliver}"
        );
    }
}
