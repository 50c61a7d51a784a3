//! The world: a set of ranks wired to one fabric under one design.

use fairmpi_sync::Mutex;
use std::sync::Arc;

use fairmpi_fabric::{CommId, Fabric, FabricConfig, MachineKind, Rank};
use fairmpi_spc::SpcSnapshot;

use crate::comm::{CommState, Communicator};
use crate::design::DesignConfig;
use crate::error::Result;
use crate::proc::{Proc, ProcState};
use crate::rma::{WindowId, WindowRegistry};

/// A running world of simulated MPI ranks.
///
/// Created through [`World::builder`]. Clone handles to individual ranks
/// with [`World::proc`] and hand them to as many OS threads as you like.
pub struct World {
    fabric: Arc<Fabric>,
    design: DesignConfig,
    procs: Vec<Arc<ProcState>>,
    /// The next communicator id, held while registering one so that every
    /// rank receives ids in order.
    next_comm: Mutex<CommId>,
    windows: Arc<WindowRegistry>,
}

/// Builder for [`World`].
pub struct WorldBuilder {
    ranks: usize,
    fabric: FabricConfig,
    design: DesignConfig,
}

impl WorldBuilder {
    /// Number of ranks (default 2).
    pub fn ranks(mut self, n: usize) -> Self {
        assert!(n >= 1, "a world needs at least one rank");
        self.ranks = n;
        self
    }

    /// Fabric cost model (default: zero-cost test fabric).
    pub fn fabric(mut self, config: FabricConfig) -> Self {
        self.fabric = config;
        self
    }

    /// Fabric preset for one of the paper's testbeds.
    pub fn machine(mut self, kind: MachineKind) -> Self {
        self.fabric = FabricConfig::for_machine(kind);
        self
    }

    /// Internal design configuration (default: the original Open MPI
    /// threaded design — 1 CRI, serial progress).
    pub fn design(mut self, design: DesignConfig) -> Self {
        self.design = design;
        self
    }

    /// Construct the world: fabric, per-rank pools/engines, and
    /// `COMM_WORLD` (communicator id 0).
    pub fn build(self) -> World {
        let mut design = self.design;
        // The fault plan comes from the design builder or, failing that,
        // the `FAIRMPI_CHAOS_*` environment; inert plans are treated as
        // chaos-off so the happy path stays bit-identical. The resolved
        // plan lives in the design — single source of truth downstream.
        design.chaos = design
            .chaos
            .or_else(crate::env::fault_plan_from_env)
            .filter(|p| p.is_active());
        // Surface any unparsable FAIRMPI_* keys exactly once, now that
        // every subsystem that reads the environment has been resolved.
        crate::env::report_parse_errors();
        let contexts = self.fabric.clamp_contexts(design.num_instances);
        let fabric = Arc::new(Fabric::new(self.ranks, contexts, self.fabric));
        if let Some(plan) = design.chaos {
            fabric.enable_chaos(plan);
        }
        let windows = Arc::new(WindowRegistry::default());
        let procs: Vec<Arc<ProcState>> = (0..self.ranks)
            .map(|r| {
                ProcState::new(
                    r as Rank,
                    self.ranks,
                    design,
                    Arc::clone(&fabric),
                    Arc::clone(&windows),
                )
            })
            .collect();
        let world = World {
            fabric,
            design,
            procs,
            next_comm: Mutex::new(0),
            windows,
        };
        // COMM_WORLD.
        world.new_comm_with(design.allow_overtaking);
        world
    }
}

impl World {
    /// Start building a world.
    pub fn builder() -> WorldBuilder {
        WorldBuilder {
            ranks: 2,
            fabric: FabricConfig::test_default(),
            design: DesignConfig::default(),
        }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.procs.len()
    }

    /// The design this world runs.
    pub fn design(&self) -> &DesignConfig {
        &self.design
    }

    /// The fabric cost model.
    pub fn fabric_config(&self) -> &FabricConfig {
        self.fabric.config()
    }

    /// Handle to one rank.
    pub fn proc(&self, rank: Rank) -> Proc {
        Proc {
            state: Arc::clone(&self.procs[rank as usize]),
        }
    }

    /// Handles to every rank.
    pub fn procs(&self) -> Vec<Proc> {
        (0..self.num_ranks() as Rank)
            .map(|r| self.proc(r))
            .collect()
    }

    /// `MPI_COMM_WORLD` (id 0, created at build time).
    pub fn comm_world(&self) -> Communicator {
        Communicator { id: 0 }
    }

    /// Create a new communicator spanning all ranks (`MPI_Comm_dup` of
    /// world), inheriting the design's default overtaking flag.
    pub fn new_comm(&self) -> Communicator {
        self.new_comm_with(self.design.allow_overtaking)
    }

    /// Create a new communicator with an explicit
    /// `mpi_assert_allow_overtaking` info value (paper §IV-D).
    pub fn new_comm_with(&self, allow_overtaking: bool) -> Communicator {
        let mut next_comm = self.next_comm.lock();
        let id = *next_comm;
        *next_comm += 1;
        for proc in &self.procs {
            proc.register_comm(Arc::new(CommState::new(
                id,
                self.num_ranks(),
                allow_overtaking,
                Arc::clone(&proc.spc),
            )));
        }
        Communicator { id }
    }

    /// Collectively allocate an RMA window of `len` bytes on every rank
    /// (`MPI_Win_allocate`). Resolve per-rank handles with
    /// [`Proc::window`].
    pub fn allocate_window(&self, len: usize) -> WindowId {
        self.windows.allocate(len, self.num_ranks())
    }

    /// Free a window (`MPI_Win_free`). Callers must have flushed.
    /// Freeing an id that is already free is `InvalidWindow`.
    pub fn free_window(&self, id: WindowId) -> Result<()> {
        self.windows.free(id)
    }

    /// Counters of every rank merged into one snapshot (sums, with maxes
    /// for high-water marks).
    pub fn spc_merged(&self) -> SpcSnapshot {
        let mut merged = SpcSnapshot::zero();
        for p in &self.procs {
            merged = merged.merged_with(&p.spc.snapshot());
        }
        merged
    }

    /// Reset every rank's counters (e.g. after warmup).
    pub fn spc_reset(&self) {
        for p in &self.procs {
            p.spc.reset();
        }
    }
}

impl Drop for World {
    /// Two-phase offload shutdown: first signal every rank's engine (so all
    /// workers enter their drain together and cross-rank traffic keeps
    /// being co-progressed), then join them. No accepted command is lost;
    /// `Proc` handles outliving the world fall back to the direct path.
    fn drop(&mut self) {
        for p in &self.procs {
            if let Some(rt) = p.offload.get() {
                rt.begin_shutdown();
            }
        }
        for p in &self.procs {
            if let Some(rt) = p.offload.get() {
                rt.join();
            }
        }
    }
}
