//! The design space of the study: every axis the paper varies.

use crate::error::{MpiError, Result};

pub use fairmpi_chaos::FaultPlan;
pub use fairmpi_cri::Assignment;
pub use fairmpi_progress::ProgressMode;

/// How matching state is laid out (the Fig. 3b vs Fig. 3c axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchMode {
    /// OB1-style: one matcher (and one matching lock) per communicator, so
    /// threads on different communicators match concurrently.
    PerCommunicator,
    /// MPICH/UCX-style: a single global matcher and lock for the whole
    /// process, regardless of communicator.
    Global,
}

/// Coarse locking model, used to emulate other implementations' threading
/// designs for the Fig. 5 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockModel {
    /// The paper's design: per-instance locks only.
    PerInstance,
    /// A process-wide critical section around every MPI call (send
    /// initiation and each progress pass) — the classic "big lock" of
    /// `MPI_THREAD_MULTIPLE` support in most implementations.
    GlobalCriticalSection,
}

/// What happens when an operation fails irrecoverably (retry budget
/// exhausted, every instance dead) — the MPI error-handler axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorHandler {
    /// `MPI_ERRORS_RETURN`: the failed request's `wait` returns the error
    /// and the rest of the world keeps running.
    ErrorsReturn,
    /// `MPI_ERRORS_ARE_FATAL`: the first irrecoverable failure panics the
    /// observing thread (the closest in-process analog of aborting the job).
    ErrorsAreFatal,
}

/// The complete internal design configuration of one [`crate::World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignConfig {
    /// Number of communication resources instances to allocate per rank
    /// (clamped by the fabric's hardware context limit).
    pub num_instances: usize,
    /// How threads are assigned an instance (Algorithm 1).
    pub assignment: Assignment,
    /// Serial or concurrent progress engine (Algorithm 2).
    pub progress: ProgressMode,
    /// Per-communicator or global matching.
    pub matching: MatchMode,
    /// Per-instance locks, or a global critical section emulating big-lock
    /// implementations.
    pub lock_model: LockModel,
    /// Default `mpi_assert_allow_overtaking` for new communicators.
    pub allow_overtaking: bool,
    /// Number of dedicated offload (communication) worker threads; 0
    /// disables offload and application threads drive the engine directly.
    /// With offload enabled, every `isend`/`irecv`/`put`/`flush` enqueues a
    /// descriptor on a lock-free command queue instead of touching the CRI
    /// and matching locks.
    pub offload_workers: usize,
    /// Optional deterministic fault plan. `None` (the default) leaves the
    /// fabric a perfect wire and the reliability layer entirely unbuilt —
    /// the happy path is bit-identical to a chaos-free build. A world also
    /// picks up a plan from `FAIRMPI_CHAOS_*` env keys when this is unset.
    pub chaos: Option<FaultPlan>,
    /// Error-handler semantics for irrecoverable transport failures.
    pub error_handler: ErrorHandler,
}

impl Default for DesignConfig {
    /// The *original* Open MPI multithreaded design the paper starts from:
    /// one shared instance, serialized progress, per-communicator (OB1)
    /// matching, ordering enforced.
    fn default() -> Self {
        Self {
            num_instances: 1,
            assignment: Assignment::RoundRobin,
            progress: ProgressMode::Serial,
            matching: MatchMode::PerCommunicator,
            lock_model: LockModel::PerInstance,
            allow_overtaking: false,
            offload_workers: 0,
            chaos: None,
            error_handler: ErrorHandler::ErrorsReturn,
        }
    }
}

impl DesignConfig {
    /// Start building a design from the baseline defaults. The builder is
    /// the only construction path that validates axis combinations; the
    /// plain struct stays `Copy`/public for preset-style updates of an
    /// already-validated config.
    pub fn builder() -> DesignConfigBuilder {
        DesignConfigBuilder {
            config: Self::default(),
        }
    }

    /// Reject the axis combinations the runtime cannot honor (listed on
    /// [`DesignConfigBuilder::build`]); the one check behind `build` and
    /// [`crate::tuning::Cvars::resolve`].
    pub(crate) fn check(&self) -> std::result::Result<(), Rejection> {
        if self.num_instances == 0 {
            return Err(Rejection {
                cvar: "num_instances",
                value: self.num_instances,
                reason: "at least one communication instance is required",
            });
        }
        if self.offload_workers > 0 && self.lock_model == LockModel::GlobalCriticalSection {
            return Err(Rejection {
                cvar: "offload_workers",
                value: self.offload_workers,
                reason: "offload workers under a global critical section",
            });
        }
        Ok(())
    }
}

/// Why [`DesignConfig::check`] rejected a design: the control variable of
/// the offending axis, that axis's value, and the reason.
pub(crate) struct Rejection {
    pub(crate) cvar: &'static str,
    pub(crate) value: usize,
    pub(crate) reason: &'static str,
}

/// Typed, validating builder for [`DesignConfig`], replacing the former
/// positional constructors (`proposed`, `offload`, `chaos`,
/// `error_handler`). Start from [`DesignConfig::builder`], optionally jump
/// to a named design point with [`DesignConfigBuilder::proposed`] /
/// [`DesignConfigBuilder::offload`], adjust individual axes, and finish
/// with [`DesignConfigBuilder::build`] — which rejects combinations the
/// runtime cannot honor instead of silently misbehaving.
#[derive(Debug, Clone, Copy)]
pub struct DesignConfigBuilder {
    config: DesignConfig,
}

impl DesignConfigBuilder {
    /// The paper's full proposal: `n` dedicated CRIs, concurrent progress.
    /// (Concurrent *matching* additionally requires the application to use
    /// one communicator per thread pair, as in Fig. 3c.)
    pub fn proposed(mut self, num_instances: usize) -> Self {
        self.config.num_instances = num_instances;
        self.config.assignment = Assignment::Dedicated;
        self.config.progress = ProgressMode::Concurrent;
        self
    }

    /// The software-offload design point: `workers` dedicated communication
    /// threads, each owning its own CRI (dedicated assignment, concurrent
    /// progress), fed by a lock-free command queue. Application threads
    /// never take the instance or matching locks on the fast path. Zero
    /// workers would be "offload to nobody" and clamps to one.
    pub fn offload(mut self, workers: usize) -> Self {
        let workers = workers.max(1);
        self.config.num_instances = workers;
        self.config.assignment = Assignment::Dedicated;
        self.config.progress = ProgressMode::Concurrent;
        self.config.offload_workers = workers;
        self
    }

    /// Number of communication resource instances per rank.
    pub fn num_instances(mut self, n: usize) -> Self {
        self.config.num_instances = n;
        self
    }

    /// Thread-to-instance assignment policy (Algorithm 1).
    pub fn assignment(mut self, assignment: Assignment) -> Self {
        self.config.assignment = assignment;
        self
    }

    /// Serial or concurrent progress engine (Algorithm 2).
    pub fn progress(mut self, progress: ProgressMode) -> Self {
        self.config.progress = progress;
        self
    }

    /// Per-communicator or global matching.
    pub fn matching(mut self, matching: MatchMode) -> Self {
        self.config.matching = matching;
        self
    }

    /// Per-instance locks or a global critical section.
    pub fn lock_model(mut self, lock_model: LockModel) -> Self {
        self.config.lock_model = lock_model;
        self
    }

    /// Default `mpi_assert_allow_overtaking` for new communicators.
    pub fn allow_overtaking(mut self, allow: bool) -> Self {
        self.config.allow_overtaking = allow;
        self
    }

    /// Number of dedicated offload worker threads (0 disables offload).
    /// Unlike [`DesignConfigBuilder::offload`], this sets only the worker
    /// count — combine with the other axes explicitly.
    pub fn offload_workers(mut self, workers: usize) -> Self {
        self.config.offload_workers = workers;
        self
    }

    /// Arm a deterministic fault plan on worlds built from this config.
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.config.chaos = Some(plan);
        self
    }

    /// Select the error-handler semantics for irrecoverable failures.
    pub fn error_handler(mut self, handler: ErrorHandler) -> Self {
        self.config.error_handler = handler;
        self
    }

    /// Validate and return the config.
    ///
    /// Rejected combinations:
    /// * `num_instances == 0` — the rank could never communicate;
    /// * `offload_workers > 0` with [`LockModel::GlobalCriticalSection`] —
    ///   offload exists precisely to keep application threads out of the
    ///   runtime's locks, while the big-lock emulation serializes every
    ///   call; a world honoring both would measure neither design.
    pub fn build(self) -> Result<DesignConfig> {
        self.config
            .check()
            .map_err(|r| MpiError::InvalidDesign(r.reason))?;
        Ok(self.config)
    }
}

/// Named design points used in the paper's Fig. 5 comparison.
///
/// The Intel MPI and MPICH entries are *emulations of those
/// implementations' documented threading designs* (a global critical
/// section protecting communication and progress), not their code; see
/// DESIGN.md §1. Process-mode entries use single-threaded ranks, where all
/// implementations behave alike up to constant factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignPreset {
    /// Open MPI in process mode (communication between processes).
    OmpiProcess,
    /// Open MPI 4.0 threaded baseline: 1 instance, serial progress.
    OmpiThread,
    /// Baseline plus multiple CRIs with dedicated assignment ("OMPI Thread
    /// + CRIs", dark red in Fig. 5).
    OmpiThreadCris,
    /// CRIs plus concurrent progress plus concurrent matching ("OMPI Thread
    /// + CRIs*", black dotted in Fig. 5). Requires a communicator per pair.
    OmpiThreadCrisStar,
    /// Intel-MPI-like threaded design: global critical section.
    ImpiThreadEmulated,
    /// MPICH-like threaded design: global critical section plus a single
    /// global matching queue.
    MpichThreadEmulated,
    /// Intel-MPI-like process mode (same machinery as `OmpiProcess`).
    ImpiProcessEmulated,
    /// MPICH-like process mode.
    MpichProcessEmulated,
}

impl DesignPreset {
    /// All presets, in the order Fig. 5's legend lists them.
    pub const ALL: [DesignPreset; 8] = [
        DesignPreset::OmpiProcess,
        DesignPreset::OmpiThread,
        DesignPreset::OmpiThreadCris,
        DesignPreset::OmpiThreadCrisStar,
        DesignPreset::ImpiProcessEmulated,
        DesignPreset::ImpiThreadEmulated,
        DesignPreset::MpichProcessEmulated,
        DesignPreset::MpichThreadEmulated,
    ];

    /// Whether this preset runs in process mode (pairs of single-threaded
    /// ranks) rather than thread mode (two ranks, many threads).
    pub fn is_process_mode(self) -> bool {
        matches!(
            self,
            DesignPreset::OmpiProcess
                | DesignPreset::ImpiProcessEmulated
                | DesignPreset::MpichProcessEmulated
        )
    }

    /// Series label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            DesignPreset::OmpiProcess => "OMPI Process",
            DesignPreset::OmpiThread => "OMPI Thread",
            DesignPreset::OmpiThreadCris => "OMPI Thread + CRIs",
            DesignPreset::OmpiThreadCrisStar => "OMPI Thread + CRIs*",
            DesignPreset::ImpiThreadEmulated => "IMPI Thread",
            DesignPreset::ImpiProcessEmulated => "IMPI Process",
            DesignPreset::MpichThreadEmulated => "MPICH Thread",
            DesignPreset::MpichProcessEmulated => "MPICH Process",
        }
    }

    /// The design configuration this preset denotes. `num_instances` scales
    /// resource-replicating presets (ignored by the fixed designs).
    pub fn config(self, num_instances: usize) -> DesignConfig {
        match self {
            DesignPreset::OmpiProcess
            | DesignPreset::ImpiProcessEmulated
            | DesignPreset::MpichProcessEmulated => DesignConfig {
                num_instances: 1,
                ..DesignConfig::default()
            },
            DesignPreset::OmpiThread => DesignConfig::default(),
            DesignPreset::OmpiThreadCris => DesignConfig {
                num_instances,
                assignment: Assignment::Dedicated,
                ..DesignConfig::default()
            },
            DesignPreset::OmpiThreadCrisStar => DesignConfig {
                num_instances,
                assignment: Assignment::Dedicated,
                progress: ProgressMode::Concurrent,
                ..DesignConfig::default()
            },
            DesignPreset::ImpiThreadEmulated => DesignConfig {
                lock_model: LockModel::GlobalCriticalSection,
                ..DesignConfig::default()
            },
            DesignPreset::MpichThreadEmulated => DesignConfig {
                lock_model: LockModel::GlobalCriticalSection,
                matching: MatchMode::Global,
                ..DesignConfig::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_original_ompi_design() {
        let d = DesignConfig::default();
        assert_eq!(d.num_instances, 1);
        assert_eq!(d.progress, ProgressMode::Serial);
        assert_eq!(d.matching, MatchMode::PerCommunicator);
        assert_eq!(d.lock_model, LockModel::PerInstance);
        assert!(!d.allow_overtaking);
        assert_eq!(d.chaos, None, "no fault plan by default");
        assert_eq!(d.error_handler, ErrorHandler::ErrorsReturn);
    }

    #[test]
    fn chaos_builder_arms_a_plan() {
        let plan = FaultPlan::seeded(7).drop(100);
        let d = DesignConfig::builder()
            .proposed(2)
            .chaos(plan)
            .error_handler(ErrorHandler::ErrorsAreFatal)
            .build()
            .unwrap();
        assert_eq!(d.chaos, Some(plan));
        assert_eq!(d.error_handler, ErrorHandler::ErrorsAreFatal);
        // The plan rides along through preset-style struct updates.
        let d2 = DesignConfig {
            chaos: Some(plan),
            ..DesignConfig::default()
        };
        assert_eq!(d2.chaos, Some(plan));
    }

    #[test]
    fn proposed_design_enables_the_papers_machinery() {
        let d = DesignConfig::builder().proposed(20).build().unwrap();
        assert_eq!(d.num_instances, 20);
        assert_eq!(d.assignment, Assignment::Dedicated);
        assert_eq!(d.progress, ProgressMode::Concurrent);
        assert_eq!(d.offload_workers, 0, "proposed design is not offload");
    }

    #[test]
    fn offload_design_dedicates_one_cri_per_worker() {
        let d = DesignConfig::builder().offload(4).build().unwrap();
        assert_eq!(d.offload_workers, 4);
        assert_eq!(d.num_instances, 4);
        assert_eq!(d.assignment, Assignment::Dedicated);
        assert_eq!(d.progress, ProgressMode::Concurrent);
        // Zero workers would be "offload to nobody"; clamp to one.
        let clamped = DesignConfig::builder().offload(0).build().unwrap();
        assert_eq!(clamped.offload_workers, 1);
    }

    #[test]
    fn builder_setters_cover_every_axis() {
        let d = DesignConfig::builder()
            .num_instances(3)
            .assignment(Assignment::RoundRobin)
            .progress(ProgressMode::Concurrent)
            .matching(MatchMode::Global)
            .lock_model(LockModel::GlobalCriticalSection)
            .allow_overtaking(true)
            .build()
            .unwrap();
        assert_eq!(d.num_instances, 3);
        assert_eq!(d.assignment, Assignment::RoundRobin);
        assert_eq!(d.progress, ProgressMode::Concurrent);
        assert_eq!(d.matching, MatchMode::Global);
        assert_eq!(d.lock_model, LockModel::GlobalCriticalSection);
        assert!(d.allow_overtaking);
    }

    #[test]
    fn builder_rejects_incompatible_combinations() {
        // Offload's whole point is keeping app threads out of the locks; a
        // global critical section would serialize everything anyway.
        let err = DesignConfig::builder()
            .offload(2)
            .lock_model(LockModel::GlobalCriticalSection)
            .build()
            .unwrap_err();
        assert_eq!(err.error_class(), 13, "MPI_ERR_ARG");
        assert!(err.to_string().contains("global critical section"));

        let err = DesignConfig::builder()
            .num_instances(0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("at least one"));

        // offload_workers() alone does not imply the rest of the offload
        // preset, but still trips the same validation.
        assert!(DesignConfig::builder()
            .offload_workers(1)
            .lock_model(LockModel::GlobalCriticalSection)
            .build()
            .is_err());
    }

    #[test]
    fn presets_cover_fig5_series() {
        assert_eq!(DesignPreset::ALL.len(), 8);
        let labels: Vec<_> = DesignPreset::ALL.iter().map(|p| p.label()).collect();
        assert!(labels.contains(&"OMPI Thread + CRIs*"));
        // Process presets are single-instance.
        for p in DesignPreset::ALL {
            if p.is_process_mode() {
                assert_eq!(p.config(20).num_instances, 1);
            }
        }
        // MPICH emulation uses the global queue.
        assert_eq!(
            DesignPreset::MpichThreadEmulated.config(1).matching,
            MatchMode::Global
        );
    }
}
