//! Software-based Performance Counters (SPCs) for the `fairmpi` runtime.
//!
//! This crate reproduces the role of Open MPI's built-in SPC framework
//! (Eberius et al., EuroMPI'17, reference \[9\] in the paper): a set of very
//! low-overhead counters exposing internal MPI information — number of
//! messages sent/received, number of *unexpected* and *out-of-sequence*
//! messages, time spent in the matching engine, matching queue lengths, and
//! so on. The paper's Table II is produced entirely from two of these
//! counters (`OutOfSequenceMessages` and `MatchTime`).
//!
//! Counters are cache-line padded relaxed atomics so that updating them from
//! many threads never introduces the very contention the study measures.
//!
//! # Example
//!
//! ```
//! use fairmpi_spc::{SpcSet, Counter};
//!
//! let spc = SpcSet::new();
//! spc.inc(Counter::MessagesSent);
//! spc.add(Counter::BytesSent, 28); // a 0-byte message still carries its envelope
//! let snap = spc.snapshot();
//! assert_eq!(snap[Counter::MessagesSent], 1);
//! assert_eq!(snap[Counter::BytesSent], 28);
//! ```

mod counter;
mod histogram;
mod series;
mod set;
mod snapshot;
mod timer;
mod watermark;

pub use counter::Counter;
pub use histogram::{bucket_for, bucket_upper_bound, Histogram, HistogramCell, HISTOGRAM_BUCKETS};
pub use series::SpcSeries;
pub use set::SpcSet;
pub use snapshot::SpcSnapshot;
pub use timer::ScopedTimer;
pub use watermark::{Watermark, WatermarkCell};

#[cfg(test)]
mod tests;
