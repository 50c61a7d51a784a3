//! # fairmpi-sync — the workspace's synchronization facade
//!
//! Every lock, atomic, and cache-line pad in the runtime goes through this
//! crate instead of reaching for `std` directly. The paper's
//! entire contribution lives in synchronization design — per-instance
//! try-locks (Algorithm 2), per-communicator matching locks, the offload
//! command ring, the reliability dedup window — so the primitives they are
//! built on need to be swappable as a unit:
//!
//! * **native** (default): thin wrappers over `std::sync` with
//!   parking-lot-style ergonomics (no poisoning, `try_lock → Option`).
//!   With no features enabled every method compiles down to the exact
//!   `std` call — zero overhead.
//! * **traced** (`--features traced`): locks constructed with
//!   [`Mutex::named`]/[`RwLock::named`] report acquire latency, hold time,
//!   and try-lock failures to `fairmpi-trace` whenever a trace session is
//!   armed. This replaces the hand-rolled contention hooks that used to
//!   live in `cri`.
//! * **model** (`--features model`): when the current thread belongs to a
//!   [`model`] execution, every operation becomes a scheduling decision
//!   point of a loom-style bounded-preemption DFS executor, so
//!   `fairmpi-check` can exhaustively explore interleavings and print a
//!   reproducible counterexample schedule when an assertion fails.
//!   Threads *outside* an execution (all production code) take the native
//!   path unchanged, which keeps the feature additive and safe under
//!   cargo feature unification.
//!
//! The three backends expose one API, so porting a crate is an import swap.
//!
//! The crate also carries the one lock-free queue built on these atomics,
//! [`TicketRing`]: the offload command queue and every network context's
//! receive ring.

mod cache_padded;
mod primitives;
mod ring;

pub mod atomic;
#[cfg(feature = "model")]
pub mod model;

pub use cache_padded::CachePadded;
pub use primitives::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLock,
};
pub use ring::{QueueFull, TicketRing};
