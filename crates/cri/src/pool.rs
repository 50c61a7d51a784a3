//! The instance pool and the two assignment strategies of Algorithm 1.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use fairmpi_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use fairmpi_fabric::{Fabric, Rank};
use fairmpi_spc::{Counter, SpcSet};

use crate::{Cri, Plan, Sweep};

/// Strategy for assigning a CRI to a calling thread (paper §III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Assignment {
    /// `GET-INSTANCE-ID–ROUND-ROBIN`: a fresh instance per call from a
    /// circular counter. No permanent binding; cheap atomic; spreads load.
    RoundRobin,
    /// `GET-INSTANCE-ID–DEDICATED`: the first call stores a round-robin
    /// assignment in thread-local storage and every later call reuses it.
    /// Zero contention while threads ≤ instances.
    Dedicated,
}

/// Unique pool ids so thread-local dedicated assignments never leak between
/// pools (each simulated rank owns its own pool, and tests build many).
/// Ids are never reused, so a stale thread-local entry can only miss.
static POOL_IDS: AtomicU64 = AtomicU64::new(0);

/// A pool id no pool has: marks the one-entry cache empty.
const NO_POOL: u64 = u64::MAX;

thread_local! {
    /// This thread's dedicated instance per pool — the moral equivalent of
    /// the paper's `static thread_local my_id`, keyed because one OS thread
    /// may drive several simulated ranks in one process.
    static DEDICATED: RefCell<HashMap<u64, usize>> = RefCell::new(HashMap::new());
    /// The last `(pool id, instance)` binding this thread used, checked
    /// before [`DEDICATED`]: a thread driving one rank never hashes.
    static LAST_DEDICATED: Cell<(u64, usize)> = const { Cell::new((NO_POOL, 0)) };
}

/// All communication resources instances of one rank.
#[derive(Debug)]
pub struct CriPool {
    pool_id: u64,
    rank: Rank,
    instances: Vec<Arc<Cri>>,
    round_robin: AtomicUsize,
    /// One flag per instance so a permanent death is counted as exactly one
    /// `cri_failovers` event no matter how many threads hit the corpse.
    failed_over: Vec<AtomicBool>,
    spc: Arc<SpcSet>,
}

impl CriPool {
    /// Build a pool of `num_instances` CRIs over `rank`'s fabric contexts.
    ///
    /// The count is clamped to the number of contexts the fabric actually
    /// granted (the Aries hardware limit may have reduced it — paper
    /// §III-B's "the design must also accommodate for cases where the number
    /// of CRIs is less than the number of threads").
    pub fn new(fabric: &Fabric, rank: Rank, num_instances: usize, spc: Arc<SpcSet>) -> Self {
        let available = fabric.num_contexts(rank);
        let n = num_instances.clamp(1, available);
        let instances: Vec<_> = (0..n)
            .map(|i| Arc::new(Cri::new(i, Arc::clone(fabric.context(rank, i)))))
            .collect();
        let failed_over = (0..instances.len())
            .map(|_| AtomicBool::new(false))
            .collect();
        Self {
            pool_id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            rank,
            instances,
            round_robin: AtomicUsize::new(0),
            failed_over,
            spc,
        }
    }

    /// Owning rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of instances allocated.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True if the pool holds a single instance (the original Open MPI
    /// design the paper calls the "base performance").
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Instance by id.
    pub fn instance(&self, id: usize) -> &Arc<Cri> {
        &self.instances[id]
    }

    /// The counter sink.
    pub fn spc(&self) -> &Arc<SpcSet> {
        &self.spc
    }

    /// Algorithm 1 `GET-INSTANCE-ID–ROUND-ROBIN`. A one-instance pool (the
    /// original design) has nothing to choose, so it skips the shared
    /// rotation counter.
    pub fn round_robin_id(&self) -> usize {
        self.spc.inc(Counter::CriRoundRobinAssignments);
        match self.instances.len() {
            1 => 0,
            n => self.round_robin.fetch_add(1, Ordering::Relaxed) % n,
        }
    }

    /// Algorithm 1 `GET-INSTANCE-ID–DEDICATED`.
    pub fn dedicated_id(&self) -> usize {
        let (pool_id, id) = LAST_DEDICATED.get();
        if pool_id == self.pool_id && id < self.instances.len() {
            self.spc.inc(Counter::CriDedicatedHits);
            return id;
        }
        let id = DEDICATED.with(|map| {
            let mut map = map.borrow_mut();
            match map.get(&self.pool_id) {
                Some(&id) if id < self.instances.len() => {
                    self.spc.inc(Counter::CriDedicatedHits);
                    id
                }
                _ => {
                    let id = self.round_robin_id();
                    map.insert(self.pool_id, id);
                    id
                }
            }
        });
        LAST_DEDICATED.set((self.pool_id, id));
        id
    }

    /// `GET-INSTANCE-ID` under the configured strategy.
    pub fn instance_id(&self, assignment: Assignment) -> usize {
        match assignment {
            Assignment::RoundRobin => self.round_robin_id(),
            Assignment::Dedicated => self.dedicated_id(),
        }
    }

    /// `GET-INSTANCE-ID` with failover — the robustness extension of
    /// Algorithm 1. When the selected instance has been permanently killed,
    /// the corpse is quarantined (counted once as `cri_failovers`), a
    /// dedicated thread's binding is moved to a survivor, and the call
    /// falls back to scanning for the next living instance. Returns `None`
    /// only when every instance of the rank is dead — the caller surfaces
    /// that as `InstanceFailed`.
    pub fn alive_instance_id(&self, assignment: Assignment) -> Option<usize> {
        let id = self.instance_id(assignment);
        if self.instances[id].is_alive() {
            return Some(id);
        }
        if !self.failed_over[id].swap(true, Ordering::Relaxed) {
            self.spc.inc(Counter::CriFailovers);
        }
        let mut sweep = Sweep::new(self.instances.len(), Plan::From(id));
        let survivor =
            std::iter::from_fn(|| sweep.next(false)).find(|&k| self.instances[k].is_alive())?;
        if assignment == Assignment::Dedicated {
            // Rebind the thread-local assignment so later calls go straight
            // to the survivor instead of re-tripping over the corpse.
            DEDICATED.with(|map| map.borrow_mut().insert(self.pool_id, survivor));
            LAST_DEDICATED.set((self.pool_id, survivor));
        }
        Some(survivor)
    }

    /// Drop this thread's dedicated binding for this pool, as when the user
    /// destroys a thread (paper §III-E's orphaned-instance scenario).
    pub fn forget_dedicated(&self) {
        DEDICATED.with(|map| map.borrow_mut().remove(&self.pool_id));
        if LAST_DEDICATED.get().0 == self.pool_id {
            LAST_DEDICATED.set((NO_POOL, 0));
        }
    }
}
