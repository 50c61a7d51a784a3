//! Event tracing for the runtime and the virtual-time simulator.
//!
//! The paper's analysis lives or dies on internal visibility: Table II's
//! out-of-sequence counts and match-time inflation are *why* each design
//! wins or collapses. This crate records what the end-of-run SPC totals
//! cannot show — lock convoys forming, progress polls starving. (Counters
//! over time are the MPI_T pvar scrape in `fairmpi-bench`'s `--pvars`.)
//!
//! # Architecture
//!
//! * A process-global recorder holds one ring buffer per **track** (a
//!   native thread or a simulated actor). Hot-path hooks check a single
//!   relaxed atomic and bail when the recorder is disarmed.
//! * Timestamps come from a [`Clock`]: [`WallClock`] for native threads,
//!   [`VirtualClock`] when `fairmpi-vsim` drives time.
//! * With the `enabled` cargo feature off, every hook is an empty
//!   `#[inline(always)]` function — instrumented crates compile to exactly
//!   the uninstrumented code.
//!
//! # Consumers
//!
//! * [`Trace::to_chrome_json`] — Chrome-trace-event JSON loadable in
//!   Perfetto (one track per thread/actor plus one per lock).
//! * [`Trace::contention_report`] — per-lock wait/hold statistics and a
//!   top-N contended ranking.
//!
//! # Usage
//!
//! ```
//! # use fairmpi_trace as trace;
//! trace::start(Box::new(trace::WallClock::new()));
//! {
//!     let _span = trace::span("work");
//!     trace::instant("tick");
//! }
//! let t = trace::stop();
//! let json = t.to_chrome_json();
//! assert!(json.contains("traceEvents"));
//! ```
//!
//! Arm the recorder (`start`) **before** constructing the simulator or
//! runtime you want to observe: track and lock names are registered at
//! construction time.

mod chrome;
mod clock;
mod contention;
mod event;
mod trace_data;

#[cfg(feature = "enabled")]
mod recorder;
#[cfg(feature = "enabled")]
mod ring;

#[cfg(not(feature = "enabled"))]
mod noop;

pub use clock::{Clock, VirtualClock, WallClock};
pub use contention::{ContentionReport, LockStats, WAIT_HIST_BUCKETS};
pub use event::{Event, EventKind, NameId, TrackId};
pub use trace_data::{Trace, TrackData};

#[cfg(feature = "enabled")]
pub use recorder::{
    counter, current_track, instant, intern, is_armed, lock_acquired, lock_acquired_at,
    lock_released, lock_released_at, lock_wait_at, now_ns, register_track, set_current_track,
    set_virtual_now, slice_at, span, start, start_with_capacity, stop, try_lock_fail,
    try_lock_fail_at, NameCache, SpanGuard,
};

#[cfg(not(feature = "enabled"))]
pub use noop::{
    counter, current_track, instant, intern, is_armed, lock_acquired, lock_acquired_at,
    lock_released, lock_released_at, lock_wait_at, now_ns, register_track, set_current_track,
    set_virtual_now, slice_at, span, start, start_with_capacity, stop, try_lock_fail,
    try_lock_fail_at, NameCache, SpanGuard,
};

/// Arm the recorder on wall-clock time (native threads).
pub fn start_wall() {
    start(Box::new(WallClock::new()));
}

/// Arm the recorder on virtual time (driven via [`set_virtual_now`] by the
/// simulator's event loop).
pub fn start_virtual() {
    start(Box::new(VirtualClock));
}
