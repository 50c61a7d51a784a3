//! The communication progress engine.
//!
//! Paper §II-B: the progress engine is "the central place where every
//! component in an MPI implementation registers its progressing routine".
//! This crate reproduces the two designs the paper contrasts:
//!
//! * [`ProgressMode::Serial`] — the original Open MPI behaviour: a global
//!   progress lock lets a single thread at a time drain *all* instances;
//!   other threads calling progress bail out immediately. "Such a
//!   coarse-grained protection under-utilizes the available thread
//!   parallelism, and limits the rate of message extraction to the power of
//!   a single thread" (§III-E).
//! * [`ProgressMode::Concurrent`] — paper Algorithm 2: every thread may
//!   progress. A thread try-locks its assigned instance first; if that
//!   yields no completions it sweeps each other instance once, cyclically
//!   from its own ([`Plan::From`]), try-locking each, until one completes
//!   something. That guarantees every instance is eventually
//!   progressed even if its dedicated thread is gone (the orphaned-CRI
//!   rule), while try-lock failures mean "someone else is already draining
//!   that instance, move on".
//!
//! Extraction happens under the instance lock (charging the fabric's
//! per-item extraction overhead); handling the extracted items — matching,
//! request completion — happens *after* the instance lock is released,
//! mirroring the paper's Fig. 1 pipeline where matching is its own
//! (serialized) stage downstream of extraction.

mod engine;

pub use engine::{ProgressEngine, ProgressHandler, ProgressMode};
pub use fairmpi_cri::{Plan, Sweep};

#[cfg(test)]
mod tests;
