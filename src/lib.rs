//! Umbrella crate for the *"Give MPI Threading a Fair Chance"* (CLUSTER
//! 2019) reproduction.
//!
//! Re-exports the public crates of the workspace so the examples and
//! integration tests have a single dependency root:
//!
//! * [`fairmpi`] — the MPI-like runtime (the paper's proposed design and
//!   every baseline design axis),
//! * [`fairmpi_multirate`] — the Multirate benchmark, one configuration
//!   on both the native runtime and the virtual-time executor,
//! * [`fairmpi_vsim`] — the deterministic virtual-time executor behind the
//!   figure harnesses,
//! * [`fairmpi_spc`] / [`fairmpi_fabric`] / [`fairmpi_matching`] /
//!   [`fairmpi_cri`] / [`fairmpi_progress`] — the substrates.
//!
//! See `README.md` for the quickstart, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for the paper-vs-measured record.

pub use fairmpi;
pub use fairmpi_cri;
pub use fairmpi_fabric;
pub use fairmpi_matching;
pub use fairmpi_multirate;
pub use fairmpi_progress;
pub use fairmpi_spc;
pub use fairmpi_vsim;
