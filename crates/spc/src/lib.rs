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
//! The probes must not perturb what they measure, so an update shares
//! nothing with other threads. Each thread that updates a set writes its
//! own cache-aligned shard of the set's counters with a relaxed load and
//! store: no lock prefix, no cache line bounced between threads. Reads
//! ([`SpcSet::get`], [`SpcSet::snapshot`]) sum the shards, and
//! [`SpcSet::reset`] records a baseline instead of writing other threads'
//! shards. High-water-mark counters and [`Watermark`]s are shared slots
//! updated load-first, so an observation that moves nothing writes
//! nothing; [`Histogram`]s are shared cells. See [`SpcSet`] for the layout
//! and the reset contract.
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
mod set;
mod shard;
mod snapshot;
mod watermark;

pub use counter::Counter;
pub use histogram::{
    bucket_for, bucket_upper_bound, Histogram, HistogramCell, HistogramTally, HISTOGRAM_BUCKETS,
};
pub use set::SpcSet;
pub use snapshot::SpcSnapshot;
pub use watermark::{Watermark, WatermarkCell};

#[cfg(test)]
mod tests;
