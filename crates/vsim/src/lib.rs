//! A deterministic virtual-time (discrete-event) executor for contention
//! experiments.
//!
//! # Why this exists
//!
//! The paper's figures need 20-64 hardware threads genuinely contending on
//! locks — something a wall-clock benchmark cannot exhibit on an arbitrary
//! host (this reproduction's build machine has a single core). `fairmpi-vsim`
//! replaces *time* while keeping the *algorithms real*: simulated threads run
//! the actual matching engine, the actual sequence counters and the actual
//! assignment strategies, but every compute step, lock acquisition and wire
//! traversal advances a virtual clock instead of burning CPU.
//!
//! The executor models:
//!
//! * **cores** — at most `Machine::cores` simulated threads execute at once;
//!   the rest wait in a run queue (so 40 threads on 20 cores timeshare, as
//!   on the real testbed);
//! * **locks** — FIFO wait queues; acquisition costs grow with the number of
//!   waiters (cache-line bouncing), which is the mechanism behind the
//!   paper's contention collapses; `try_lock` fails instantly when held;
//! * **the wire** — per-message latency plus bounded random jitter, so
//!   packets injected back-to-back on different instances arrive reordered
//!   and the *real* matcher produces *real* out-of-sequence counts
//!   (Table II's numbers are measured, not modeled);
//! * **costs** — a calibrated [`CostModel`] charging injection, extraction,
//!   sequence validation, queue traversal and out-of-sequence buffering.
//!
//! Workloads (the paper's two benchmarks) are implemented as actor state
//! machines in [`workload`]; the generic machinery lives in [`engine`].

pub mod cost;
pub mod engine;
pub mod machine;
pub mod workload;

pub use cost::CostModel;
pub use engine::{Action, Actor, ActorId, LockId, Resume, SchedParams, Sim, WorldAccess};
pub use machine::{Machine, MachinePreset};
pub use workload::multirate::{
    MultirateResult, MultirateSim, RunHooks, ScrapeFn, SimDesign, SimMatchLayout,
};
pub use workload::rmamt::{RmamtResult, RmamtSim};
pub use workload::{SimAssignment, SimProgress};
