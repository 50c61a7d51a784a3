//! The RMA-MT benchmark (Dosanjh et al., CCGrid'16 — reference \[7\] in
//! the paper): a multithreaded one-sided stress test.
//!
//! N threads of one rank each perform `ops_per_thread` RMA operations of a
//! given size toward a passive target rank, then synchronize with
//! `MPI_Win_flush` (`-o put -s flush` in the original benchmark, the
//! configuration of paper §IV-F). Like the Multirate crate, it offers a
//! native backend over the real runtime and a virtual-time backend for the
//! figure harnesses.

use std::sync::Arc;
use std::time::Instant;

use fairmpi::{Assignment, DesignConfig, ProgressMode, SpcSnapshot, World};
use fairmpi_vsim::{Machine, RmamtResult, RmamtSim, SimAssignment, SimProgress};

/// Which one-sided operation the threads issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmaOpKind {
    /// `MPI_Put` (the paper's headline configuration).
    Put,
    /// `MPI_Get`.
    Get,
    /// `MPI_Fetch_and_op(MPI_SUM)`.
    FetchAdd,
}

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct RmamtConfig {
    /// Origin-side threads.
    pub threads: usize,
    /// Payload bytes per operation.
    pub msg_size: usize,
    /// Operations per thread between flushes (paper: 1000).
    pub ops_per_thread: usize,
    /// Operation kind.
    pub op: RmaOpKind,
    /// Runtime design (instances, assignment, progress).
    pub design: DesignConfig,
    /// Fabric cost model for the native backend.
    pub fabric: fairmpi::FabricConfig,
}

impl Default for RmamtConfig {
    fn default() -> Self {
        Self {
            threads: 2,
            msg_size: 8,
            ops_per_thread: 100,
            op: RmaOpKind::Put,
            design: DesignConfig::default(),
            fabric: fairmpi::FabricConfig::test_default(),
        }
    }
}

impl RmamtConfig {
    /// Total operations across threads.
    pub fn total_ops(&self) -> u64 {
        (self.threads * self.ops_per_thread) as u64
    }
}

/// Result of a native run.
#[derive(Debug, Clone)]
pub struct RmamtReport {
    /// Aggregate operation rate (ops per wall-clock second).
    pub msg_rate_per_s: f64,
    /// Wall-clock duration in nanoseconds.
    pub elapsed_ns: u64,
    /// Operations performed.
    pub total_ops: u64,
    /// Origin-rank counters.
    pub spc: SpcSnapshot,
}

/// Execute on real threads over the real runtime: rank 0 hosts the
/// threads, rank 1 is the passive target (never entering the library, as
/// one-sided semantics allow).
pub fn run_native(cfg: &RmamtConfig) -> RmamtReport {
    assert!(cfg.threads >= 1 && cfg.ops_per_thread >= 1);
    // Each thread writes to a disjoint window region.
    let region = cfg.msg_size.max(8).next_multiple_of(8);
    let world = Arc::new(
        World::builder()
            .ranks(2)
            .fabric(cfg.fabric.clone())
            .design(cfg.design)
            .build(),
    );
    let win_id = world.allocate_window(region * cfg.threads);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..cfg.threads {
            let world = Arc::clone(&world);
            let cfg2 = cfg.clone();
            scope.spawn(move || {
                let proc = world.proc(0);
                let win = proc.window(win_id).expect("window");
                let payload = vec![t as u8; cfg2.msg_size];
                let offset = t * region;
                for i in 0..cfg2.ops_per_thread {
                    match cfg2.op {
                        RmaOpKind::Put => win.put(1, offset, &payload).expect("put"),
                        RmaOpKind::Get => {
                            let _ = win.get(1, offset, cfg2.msg_size).expect("get");
                        }
                        RmaOpKind::FetchAdd => {
                            let _ = win.fetch_add(1, offset, i as u64).expect("fetch_add");
                        }
                    }
                }
                win.flush(1).expect("flush");
            });
        }
    });
    let elapsed_ns = start.elapsed().as_nanos() as u64;

    let total = cfg.total_ops();
    RmamtReport {
        msg_rate_per_s: total as f64 / (elapsed_ns as f64 / 1e9),
        elapsed_ns,
        total_ops: total,
        spc: world.proc(0).spc_snapshot(),
    }
}

/// Execute under the virtual-time executor. Only the put/flush path is
/// simulated (the paper's configuration); get and fetch-add share its
/// timing profile at the origin.
pub fn run_virtual(cfg: &RmamtConfig, machine: &Machine, seed: u64) -> RmamtResult {
    RmamtSim {
        machine: machine.clone(),
        threads: cfg.threads,
        msg_size: cfg.msg_size,
        ops_per_thread: cfg.ops_per_thread,
        instances: cfg.design.num_instances,
        assignment: match cfg.design.assignment {
            Assignment::RoundRobin => SimAssignment::RoundRobin,
            Assignment::Dedicated => SimAssignment::Dedicated,
        },
        progress: match cfg.design.progress {
            ProgressMode::Serial => SimProgress::Serial,
            ProgressMode::Concurrent => SimProgress::Concurrent,
        },
        seed,
    }
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairmpi::Counter;
    use fairmpi_vsim::MachinePreset;

    #[test]
    fn native_put_flush_completes_and_data_lands() {
        let cfg = RmamtConfig {
            threads: 3,
            msg_size: 16,
            ops_per_thread: 20,
            design: DesignConfig::builder().proposed(3).build().unwrap(),
            ..RmamtConfig::default()
        };
        let report = run_native(&cfg);
        assert_eq!(report.total_ops, 60);
        assert_eq!(report.spc[Counter::RmaPuts], 60);
        assert!(report.spc[Counter::RmaFlushes] >= 3);
    }

    #[test]
    fn native_get_and_fetch_add() {
        for op in [RmaOpKind::Get, RmaOpKind::FetchAdd] {
            let cfg = RmamtConfig {
                threads: 2,
                ops_per_thread: 10,
                op,
                ..RmamtConfig::default()
            };
            let report = run_native(&cfg);
            assert_eq!(report.total_ops, 20, "{op:?}");
        }
    }

    #[test]
    fn virtual_backend_runs() {
        let cfg = RmamtConfig {
            threads: 4,
            ops_per_thread: 50,
            design: DesignConfig::builder().proposed(32).build().unwrap(),
            ..RmamtConfig::default()
        };
        let machine = Machine::preset(MachinePreset::TrinititeHaswell);
        let result = run_virtual(&cfg, &machine, 5);
        assert_eq!(result.total_ops, 200);
        assert!(result.msg_rate_per_s > 0.0);
        assert!(result.msg_rate_per_s <= result.theoretical_peak_per_s + 1.0);
    }
}
