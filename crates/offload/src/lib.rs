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
//! * [`CommandQueue`] — a bounded lock-free MPSC queue of
//!   [`QUEUE_CAPACITY`] slots (the workspace's [`fairmpi_sync::TicketRing`]:
//!   cache-padded slots, seqlock-style tickets) whose producers yield and
//!   retry while it is full, and whose admission count lets shutdown
//!   close it without stranding a push;
//! * [`Command`] — send/recv/put/flush descriptors carrying everything a
//!   worker needs; the producer waits on the request's status word, which
//!   the worker's execution completes;
//! * [`OffloadEngine`] — worker threads that drain up to [`BATCH_LIMIT`]
//!   commands at a time and execute them through an [`OffloadBackend`]
//!   (the real CRI/matching/fabric engine in `fairmpi`; each worker ends up
//!   owning a dedicated CRI via the pool's thread-local assignment, so
//!   workers never contend).
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

pub use command::Command;
pub use engine::{OffloadBackend, OffloadEngine, BATCH_LIMIT, QUEUE_CAPACITY};
pub use queue::CommandQueue;
