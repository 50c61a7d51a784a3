//! A simulated interconnect for the `fairmpi` runtime.
//!
//! The paper's experiments run over InfiniBand EDR (`btl/uct`) and Cray Aries
//! (`btl/ugni`). This crate provides the synthetic equivalent: an in-memory
//! fabric exposing exactly the resources whose replication and protection the
//! study is about —
//!
//! * **network contexts** (the unit the paper replicates into CRIs; Aries
//!   imposes a hardware cap on how many can be created, which
//!   [`FabricConfig::max_contexts`] models),
//! * **completion queues** attached to a context, holding local completion
//!   events for outstanding sends and RMA operations,
//! * **receive rings** per context into which the wire deposits incoming
//!   packets (possibly out of order — real networks give no ordering
//!   guarantee, which is what forces MPI's sequence-number machinery),
//! * **endpoints** that route a packet from a source context to the matching
//!   context of the destination rank, and
//! * a **cost model** ([`FabricConfig`]) with per-message injection overhead
//!   and bandwidth, from which the theoretical peak message rate lines of
//!   paper Figs. 6 and 7 are computed.
//!
//! Like real NIC resources, a context is *not* safe for concurrent draining.
//! Each context carries one lock, which the CRI layer above takes as its
//! instance lock: the lock guards the completion queue, and injecting
//! completions and draining both go through the guard it hands out.

mod config;
mod context;
mod cost;
mod fabric;
mod packet;

pub use config::{FabricConfig, MachineKind};
pub use context::{Completion, CompletionKind, DrainGuard, NetworkContext};
pub use cost::{busy_wait_ns, calibrate_spin};
pub use fabric::Fabric;
pub use packet::{Envelope, Packet, PacketKind, RmaOp, Tag, ANY_SOURCE, ANY_TAG};

/// Rank of a simulated MPI process within a [`Fabric`].
pub type Rank = u32;

/// Identifier of a communicator; assigned by the runtime above.
pub type CommId = u32;

/// Per-(communicator, peer) message sequence number.
pub type SeqNo = u64;
