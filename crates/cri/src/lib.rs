//! Communication Resource Instances (CRIs).
//!
//! Paper §III-B: *"We use the concept of a Communication Resources Instance
//! (CRI) to encompass resources such as network contexts, network endpoints,
//! and CQs with per-instance level of protection to perform communication
//! operations."*
//!
//! A [`Cri`] bundles one fabric network context (which carries its rx ring
//! and completion queue) with the lock protecting it. A [`CriPool`] owns all
//! instances of one rank and implements the two assignment strategies of
//! paper Algorithm 1:
//!
//! * **round-robin** — a relaxed atomic counter hands out instances
//!   first-come first-served, trading possible sharing for a cheap atomic
//!   and natural load balancing;
//! * **dedicated** — thread-local storage pins each thread to the instance
//!   it first drew (via round-robin), eliminating lock contention whenever
//!   threads ≤ instances.
//!
//! Locks expose both blocking (`lock`) and **try-lock** acquisition; the
//! latter is the enabling primitive for the concurrent progress engine
//! (paper §III-C, §III-E). [`Sweep`] is the one cyclic walk over a pool's
//! instances: Algorithm 2's visit order and the failover scan for a
//! surviving instance.

mod instance;
mod pool;
mod sweep;

pub use instance::{Cri, CriGuard};
pub use pool::{Assignment, CriPool};
pub use sweep::{Plan, Sweep};

#[cfg(test)]
mod tests;
