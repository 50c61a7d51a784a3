//! Control variables — the `MPI_T` cvar / MCA-parameter surface.
//!
//! Paper §III-B: *"an implementation can provide the user with a way to
//! give a hint via environment variable(s), MPI info key(s), or other
//! means (MCA parameters for Open MPI or the new MPI control variables
//! MPI_T_cvar) to let the implementation know how many threads the
//! application intend to use"*. This module is that surface: a typed
//! registry of control variables, settable programmatically or through
//! `FAIRMPI_*` environment variables, resolving to a [`DesignConfig`].

use std::collections::BTreeMap;
use std::fmt;

use crate::design::{Assignment, DesignConfig, LockModel, MatchMode, ProgressMode};

/// One control variable's description (an `MPI_T_cvar_get_info` analogue).
#[derive(Debug, Clone)]
pub struct CvarInfo {
    /// Variable name (also the `FAIRMPI_<NAME>` environment key).
    pub name: &'static str,
    /// Human-readable description.
    pub description: &'static str,
    /// Allowed values, for enumerated variables.
    pub values: &'static [&'static str],
}

/// The control variables this runtime exposes.
pub const CVARS: &[CvarInfo] = &[
    CvarInfo {
        name: "num_instances",
        description: "Number of communication resources instances (CRIs) \
                      to allocate per rank; clamp: hardware context limit. \
                      The paper's hint for the expected thread count.",
        values: &[],
    },
    CvarInfo {
        name: "assignment",
        description: "CRI assignment strategy (paper Algorithm 1).",
        values: &["round_robin", "dedicated"],
    },
    CvarInfo {
        name: "progress",
        description: "Progress engine design (paper Algorithm 2 vs the \
                      original serialized engine).",
        values: &["serial", "concurrent"],
    },
    CvarInfo {
        name: "matching",
        description: "Matching layout: OB1-style per-communicator queues \
                      or a single global queue.",
        values: &["per_communicator", "global"],
    },
    CvarInfo {
        name: "lock_model",
        description: "Per-instance locks, or one global critical section \
                      (big-lock emulation).",
        values: &["per_instance", "global_critical_section"],
    },
    CvarInfo {
        name: "allow_overtaking",
        description: "Default mpi_assert_allow_overtaking for new \
                      communicators (skips sequence validation).",
        values: &["true", "false"],
    },
    CvarInfo {
        name: "offload_workers",
        description: "Dedicated communication (offload) worker threads per \
                      rank; 0 disables offload. Application threads then \
                      enqueue descriptors on a 1024-slot command queue, \
                      yielding while it is full.",
        values: &[],
    },
];

/// Error from parsing a control variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CvarError {
    /// Variable that failed to parse.
    pub name: String,
    /// Offending value.
    pub value: String,
}

impl fmt::Display for CvarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid value {:?} for control variable {:?}",
            self.value, self.name
        )
    }
}

impl std::error::Error for CvarError {}

/// A set of control-variable assignments resolving to a [`DesignConfig`].
///
/// ```
/// use fairmpi::tuning::Cvars;
/// use fairmpi::{Assignment, ProgressMode};
///
/// let design = Cvars::new()
///     .set("num_instances", "16").unwrap()
///     .set("assignment", "dedicated").unwrap()
///     .set("progress", "concurrent").unwrap()
///     .resolve().unwrap();
/// assert_eq!(design.num_instances, 16);
/// assert_eq!(design.assignment, Assignment::Dedicated);
/// assert_eq!(design.progress, ProgressMode::Concurrent);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cvars {
    values: BTreeMap<String, String>,
}

impl Cvars {
    /// An empty assignment set (resolves to [`DesignConfig::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Read every `FAIRMPI_<NAME>` environment variable that matches a
    /// known cvar.
    pub fn from_env() -> Self {
        let mut out = Self::new();
        for cvar in CVARS {
            let key = format!("FAIRMPI_{}", cvar.name.to_uppercase());
            if let Some(v) = crate::env::raw(&key) {
                out.values.insert(cvar.name.to_string(), v);
            }
        }
        out
    }

    /// Set one variable by name. Unknown names are rejected; values are
    /// validated at [`Cvars::resolve`] time (as with `MPI_T`, writing and
    /// binding are separate steps).
    pub fn set(mut self, name: &str, value: &str) -> Result<Self, CvarError> {
        if !CVARS.iter().any(|c| c.name == name) {
            return Err(CvarError {
                name: name.to_string(),
                value: value.to_string(),
            });
        }
        self.values.insert(name.to_string(), value.to_string());
        Ok(self)
    }

    /// Currently assigned raw value of a variable.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(|s| s.as_str())
    }

    /// Resolve into a design configuration, starting from the default
    /// (original Open MPI) design. A design the runtime cannot honor (the
    /// combinations [`crate::DesignConfigBuilder::build`] rejects) is an
    /// error naming the offending variable.
    pub fn resolve(&self) -> Result<DesignConfig, CvarError> {
        self.resolve_over(DesignConfig::default())
    }

    /// Resolve on top of an explicit base design.
    pub fn resolve_over(&self, mut design: DesignConfig) -> Result<DesignConfig, CvarError> {
        let err = |name: &str, value: &str| CvarError {
            name: name.to_string(),
            value: value.to_string(),
        };
        for (name, value) in &self.values {
            match name.as_str() {
                "num_instances" => {
                    design.num_instances = value.parse().map_err(|_| err(name, value))?;
                }
                "assignment" => {
                    design.assignment = match value.as_str() {
                        "round_robin" => Assignment::RoundRobin,
                        "dedicated" => Assignment::Dedicated,
                        _ => return Err(err(name, value)),
                    };
                }
                "progress" => {
                    design.progress = match value.as_str() {
                        "serial" => ProgressMode::Serial,
                        "concurrent" => ProgressMode::Concurrent,
                        _ => return Err(err(name, value)),
                    };
                }
                "matching" => {
                    design.matching = match value.as_str() {
                        "per_communicator" => MatchMode::PerCommunicator,
                        "global" => MatchMode::Global,
                        _ => return Err(err(name, value)),
                    };
                }
                "lock_model" => {
                    design.lock_model = match value.as_str() {
                        "per_instance" => LockModel::PerInstance,
                        "global_critical_section" => LockModel::GlobalCriticalSection,
                        _ => return Err(err(name, value)),
                    };
                }
                "allow_overtaking" => {
                    design.allow_overtaking = match value.as_str() {
                        "true" | "1" => true,
                        "false" | "0" => false,
                        _ => return Err(err(name, value)),
                    };
                }
                "offload_workers" => {
                    design.offload_workers = value.parse().map_err(|_| err(name, value))?;
                }
                _ => return Err(err(name, value)),
            }
        }
        design
            .check()
            .map_err(|r| err(r.cvar, &r.value.to_string()))?;
        Ok(design)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_resolves_to_default() {
        assert_eq!(Cvars::new().resolve().unwrap(), DesignConfig::default());
    }

    #[test]
    fn full_assignment_round_trips() {
        let d = Cvars::new()
            .set("num_instances", "20")
            .unwrap()
            .set("assignment", "dedicated")
            .unwrap()
            .set("progress", "concurrent")
            .unwrap()
            .set("matching", "global")
            .unwrap()
            .set("lock_model", "global_critical_section")
            .unwrap()
            .set("allow_overtaking", "true")
            .unwrap()
            .resolve()
            .unwrap();
        assert_eq!(d.num_instances, 20);
        assert_eq!(d.assignment, Assignment::Dedicated);
        assert_eq!(d.progress, ProgressMode::Concurrent);
        assert_eq!(d.matching, MatchMode::Global);
        assert_eq!(d.lock_model, LockModel::GlobalCriticalSection);
        assert!(d.allow_overtaking);
    }

    #[test]
    fn unknown_name_and_bad_values_are_rejected() {
        assert!(Cvars::new().set("btl_uct_magic", "1").is_err());
        let bad = Cvars::new().set("progress", "sideways").unwrap();
        assert!(bad.resolve().is_err());
        let bad = Cvars::new().set("num_instances", "many").unwrap();
        assert!(bad.resolve().is_err());
    }

    #[test]
    fn designs_the_builder_rejects_are_rejected() {
        let err = Cvars::new()
            .set("num_instances", "0")
            .unwrap()
            .resolve()
            .unwrap_err();
        assert_eq!(err.name, "num_instances");
        assert_eq!(err.value, "0");

        let err = Cvars::new()
            .set("offload_workers", "2")
            .unwrap()
            .set("lock_model", "global_critical_section")
            .unwrap()
            .resolve()
            .unwrap_err();
        assert_eq!(err.name, "offload_workers");
        assert_eq!(err.value, "2");
    }

    #[test]
    fn resolve_over_preserves_unset_fields() {
        let base = DesignConfig::builder().proposed(8).build().unwrap();
        let d = Cvars::new()
            .set("num_instances", "4")
            .unwrap()
            .resolve_over(base)
            .unwrap();
        assert_eq!(d.num_instances, 4);
        assert_eq!(d.assignment, base.assignment, "untouched");
        assert_eq!(d.progress, base.progress, "untouched");
    }

    #[test]
    fn cvar_table_is_consistent() {
        // Every enumerated cvar's listed values parse successfully.
        for cvar in CVARS {
            for v in cvar.values {
                let set = Cvars::new().set(cvar.name, v).unwrap();
                assert!(set.resolve().is_ok(), "{}={v} must resolve", cvar.name);
            }
        }
    }

    #[test]
    fn env_parsing_smoke() {
        // SAFETY/testing note: set_var in tests is fine single-threaded;
        // use a unique name to avoid interference.
        std::env::set_var("FAIRMPI_NUM_INSTANCES", "7");
        let cv = Cvars::from_env();
        assert_eq!(cv.get("num_instances"), Some("7"));
        std::env::remove_var("FAIRMPI_NUM_INSTANCES");
        assert_eq!(cv.resolve().unwrap().num_instances, 7);
    }
}
