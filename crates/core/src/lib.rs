//! `fairmpi` — an MPI-like multithreaded message-passing runtime.
//!
//! This crate is the public face of the reproduction of *"Give MPI Threading
//! a Fair Chance: A Study of Multithreaded MPI Designs"* (CLUSTER 2019). It
//! assembles the substrates — the simulated fabric, the matching engine,
//! the CRI pool and the progress engine — into a runtime with a familiar
//! MPI-shaped API:
//!
//! * a [`World`] of simulated ranks connected by an in-memory fabric,
//! * two-sided point-to-point operations ([`Proc::send`], [`Proc::recv`],
//!   [`Proc::isend`], [`Proc::irecv`], [`Proc::wait`], probes, cancel) with
//!   the full MPI matching semantics (FIFO per (source, communicator),
//!   `ANY_SOURCE`/`ANY_TAG` wildcards, eager and rendezvous protocols),
//! * communicators ([`Communicator`]) with per-communicator matching and
//!   the `mpi_assert_allow_overtaking` info key,
//! * one-sided windows ([`Window`]) with put/get/accumulate and
//!   passive-target synchronization (`flush`), plus fence,
//! * simple collectives (barrier, broadcast, reductions) built on
//!   point-to-point,
//! * and — the point of the study — a configurable [`DesignConfig`]
//!   selecting the number of CRIs, the assignment strategy (round-robin or
//!   dedicated), the progress design (serial or concurrent), the matching
//!   layout (per-communicator or one global queue), and big-lock emulations
//!   of other MPI implementations' threading designs.
//!
//! Every rank can be driven by any number of OS threads concurrently
//! (`MPI_THREAD_MULTIPLE` is the default and the subject of the paper).
//!
//! # Quickstart
//!
//! ```
//! use fairmpi::{World, Tag};
//!
//! let world = World::builder().ranks(2).build();
//! let p0 = world.proc(0);
//! let p1 = world.proc(1);
//! let comm = world.comm_world();
//!
//! let sender = std::thread::spawn(move || {
//!     p0.send(b"hello", 1, 7 as Tag, comm).unwrap();
//! });
//! let msg = p1.recv(64, 0 as i32, 7 as Tag, comm).unwrap();
//! assert_eq!(&msg.data, b"hello");
//! assert_eq!(msg.src, 0);
//! sender.join().unwrap();
//! ```

mod collectives;
mod comm;
pub mod datatypes;
mod design;
pub mod env;
mod error;
mod handler;
mod match_time;
mod offload;
mod p2p;
mod proc;
mod reliability;
mod request;
mod rma;
pub mod tuning;
mod world;

#[cfg(test)]
mod tests;

pub use collectives::ReduceOp;
pub use comm::Communicator;
pub use design::{
    Assignment, DesignConfig, DesignConfigBuilder, DesignPreset, ErrorHandler, LockModel,
    MatchMode, ProgressMode,
};
pub use error::{MpiError, Result};
pub use proc::Proc;
#[doc(hidden)]
pub use request::RequestTable;
pub use request::{Message, Request};
pub use rma::{AccumulateOp, EpochGuard, Window, WindowId};
pub use world::{World, WorldBuilder};

// Re-export the vocabulary types users need.
pub use fairmpi_chaos::{FaultPlan, KillSpec};
pub use fairmpi_fabric::{CommId, FabricConfig, MachineKind, Rank, Tag, ANY_SOURCE, ANY_TAG};
pub use fairmpi_offload::{Backpressure, OffloadConfig};
pub use fairmpi_spc::{Counter, SpcSet, SpcSnapshot};
