//! `fairmpi-offload` — the software-offload design point.
//!
//! The paper's CRIs* design still trails process mode in Fig. 5 because
//! every application thread pays for shared runtime state on each call.
//! The established alternative (Yan/Snir/Guo's async-communication study;
//! Zhou et al.'s MPIxThreads) is to *offload*: application threads enqueue
//! communication descriptors to dedicated progress threads and never touch
//! the NIC or the matching locks at all. This crate is that fourth design
//! axis:
//!
//! * a bounded lock-free MPSC **command queue** — the workspace's
//!   [`fairmpi_sync::TicketRing`] (cache-padded slots, seqlock-style
//!   tickets) — with a configurable [`Backpressure`] policy (spin, yield,
//!   fail-fast `TryAgain`);
//! * [`Command`] — send/recv/put/flush descriptors carrying everything a
//!   worker needs, plus the per-thread [`CompletionQueue`] that
//!   `wait`/`test` poll without locks;
//! * [`OffloadEngine`] — worker threads that batch-drain commands, execute
//!   them through an [`OffloadBackend`] (the real CRI/matching/fabric
//!   engine in `fairmpi`; each worker ends up owning a dedicated CRI via
//!   the pool's thread-local assignment, so workers never contend), and
//!   notify completions.
//!
//! The four SPC probes — `offload_commands`, `offload_batches`,
//! `offload_queue_depth` (watermark), `offload_backpressure_stalls` — feed
//! the `fairmpi-mpit` pvar registry like every other counter.
//!
//! The virtual-time twin of this machinery (offload-worker actors and the
//! command-queue cost model) lives in `fairmpi-vsim`; the `fig_offload`
//! bench sweeps both against the paper's Fig. 5 design points.

mod command;
mod engine;
mod queue;

pub use command::{Command, CompletionQueue};
pub use engine::{OffloadBackend, OffloadConfig, OffloadEngine, SubmitError};
pub use queue::Backpressure;
