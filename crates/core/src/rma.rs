//! One-sided (RMA) communication.
//!
//! Paper §II-D: one-sided communication separates data movement from
//! synchronization and needs no matching, which removes the multithreaded
//! bottleneck the two-sided path suffers from — at the price of putting the
//! synchronization burden on the user. The paper's Figs. 6 and 7 stress
//! exactly this path (`MPI_Put` + `MPI_Win_flush`) through the RMA-MT
//! benchmark.
//!
//! Mirroring RDMA offload, an origin thread performs the remote access
//! *directly against the target's window memory* while holding only its own
//! CRI — the target process never participates. Completion events land on
//! the origin's completion queue; `flush` progresses the origin until its
//! pending count toward the target drains.

use fairmpi_sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use fairmpi_sync::{Mutex, RwLock};
use std::sync::Arc;

use fairmpi_fabric::Rank;

use crate::error::{MpiError, Result};
use crate::proc::Proc;

/// Identifier of a window, valid on every rank of its world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowId(pub(crate) u32);

/// Element-wise atomic update operations (`MPI_Accumulate` reductions), on
/// little-endian u64 lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccumulateOp {
    /// `MPI_SUM`
    Sum,
    /// `MPI_REPLACE`
    Replace,
    /// `MPI_MAX`
    Max,
    /// `MPI_MIN`
    Min,
}

impl AccumulateOp {
    fn apply(self, target: u64, origin: u64) -> u64 {
        match self {
            AccumulateOp::Sum => target.wrapping_add(origin),
            AccumulateOp::Replace => origin,
            AccumulateOp::Max => target.max(origin),
            AccumulateOp::Min => target.min(origin),
        }
    }
}

/// Sense-reversing barrier used by `fence` (active-target synchronization).
#[derive(Debug)]
pub(crate) struct FenceBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    size: usize,
}

impl FenceBarrier {
    fn new(size: usize) -> Self {
        Self {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            size,
        }
    }

    pub(crate) fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.size {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            while self.generation.load(Ordering::Acquire) == gen {
                std::thread::yield_now();
            }
        }
    }
}

/// Shared state of one window across all ranks.
#[derive(Debug)]
pub(crate) struct WindowState {
    pub(crate) id: WindowId,
    pub(crate) len: usize,
    num_ranks: usize,
    /// One exposed buffer per rank. `AtomicU8` keeps concurrent one-sided
    /// byte access well-defined without claiming more atomicity than MPI's
    /// separate memory model does.
    buffers: Vec<Box<[AtomicU8]>>,
    /// Per-target lock making accumulate element-updates atomic w.r.t. each
    /// other, as MPI requires for accumulates (but not for put/get).
    acc_locks: Vec<Mutex<()>>,
    /// Outstanding (injected, undrained) operations per (origin, target).
    pending: Vec<AtomicU64>,
    /// Passive-target exposure epochs (`MPI_Win_lock`): one RwLock per
    /// target rank; exclusive == `MPI_LOCK_EXCLUSIVE`.
    epochs: Vec<RwLock<()>>,
    /// Active-target fence barrier.
    fence: FenceBarrier,
}

impl WindowState {
    pub(crate) fn new(id: WindowId, len: usize, num_ranks: usize) -> Self {
        Self {
            id,
            len,
            num_ranks,
            buffers: (0..num_ranks)
                .map(|_| (0..len).map(|_| AtomicU8::new(0)).collect())
                .collect(),
            acc_locks: (0..num_ranks).map(|_| Mutex::new(())).collect(),
            pending: (0..num_ranks * num_ranks)
                .map(|_| AtomicU64::new(0))
                .collect(),
            epochs: (0..num_ranks).map(|_| RwLock::new(())).collect(),
            fence: FenceBarrier::new(num_ranks),
        }
    }

    fn check_range(&self, offset: usize, len: usize) -> Result<()> {
        if offset.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(MpiError::WindowOutOfRange {
                offset,
                len,
                window_len: self.len,
            });
        }
        Ok(())
    }

    fn pending_slot(&self, origin: Rank, target: Rank) -> &AtomicU64 {
        &self.pending[origin as usize * self.num_ranks + target as usize]
    }

    pub(crate) fn pending_inc(&self, origin: Rank, target: Rank) {
        self.pending_slot(origin, target)
            .fetch_add(1, Ordering::AcqRel);
    }

    /// Retire `n` completed operations of `origin` toward `target`.
    pub(crate) fn pending_sub(&self, origin: Rank, target: Rank, n: u64) {
        let prev = self
            .pending_slot(origin, target)
            .fetch_sub(n, Ordering::AcqRel);
        debug_assert!(prev >= n, "RMA completion without a pending op");
    }

    pub(crate) fn pending_toward(&self, origin: Rank, target: Rank) -> u64 {
        self.pending_slot(origin, target).load(Ordering::Acquire)
    }

    pub(crate) fn pending_total(&self, origin: Rank) -> u64 {
        (0..self.num_ranks)
            .map(|t| self.pending_toward(origin, t as Rank))
            .sum()
    }

    /// Raw byte store into a target buffer (caller already validated).
    pub(crate) fn store_bytes(&self, target: Rank, offset: usize, data: &[u8]) {
        let buf = &self.buffers[target as usize];
        for (i, &b) in data.iter().enumerate() {
            buf[offset + i].store(b, Ordering::Relaxed);
        }
    }

    /// Raw byte load from a target buffer.
    pub(crate) fn load_bytes(&self, target: Rank, offset: usize, len: usize) -> Vec<u8> {
        let buf = &self.buffers[target as usize];
        (0..len)
            .map(|i| buf[offset + i].load(Ordering::Relaxed))
            .collect()
    }

    fn load_u64(&self, target: Rank, offset: usize) -> u64 {
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.buffers[target as usize][offset + i].load(Ordering::Relaxed);
        }
        u64::from_le_bytes(bytes)
    }

    fn store_u64(&self, target: Rank, offset: usize, value: u64) {
        for (i, &b) in value.to_le_bytes().iter().enumerate() {
            self.buffers[target as usize][offset + i].store(b, Ordering::Relaxed);
        }
    }

    /// Element-atomic accumulate over u64 lanes; returns the previous value
    /// of the first lane (for fetch-style ops).
    pub(crate) fn accumulate_u64(
        &self,
        target: Rank,
        offset: usize,
        lanes: &[u64],
        op: AccumulateOp,
    ) -> u64 {
        let _atomic = self.acc_locks[target as usize].lock();
        let mut first_prev = 0;
        for (i, &lane) in lanes.iter().enumerate() {
            let off = offset + i * 8;
            let prev = self.load_u64(target, off);
            if i == 0 {
                first_prev = prev;
            }
            self.store_u64(target, off, op.apply(prev, lane));
        }
        first_prev
    }

    /// Element-atomic compare-and-swap on one u64 lane; returns the
    /// previous value.
    pub(crate) fn compare_swap_u64(
        &self,
        target: Rank,
        offset: usize,
        compare: u64,
        swap: u64,
    ) -> u64 {
        let _atomic = self.acc_locks[target as usize].lock();
        let prev = self.load_u64(target, offset);
        if prev == compare {
            self.store_u64(target, offset, swap);
        }
        prev
    }

    pub(crate) fn epoch(&self, target: Rank) -> &RwLock<()> {
        &self.epochs[target as usize]
    }

    pub(crate) fn fence_wait(&self) {
        self.fence.wait();
    }

    fn validate_atomic(&self, offset: usize, len: usize) -> Result<()> {
        self.check_range(offset, len)?;
        if !offset.is_multiple_of(8) || !len.is_multiple_of(8) {
            return Err(MpiError::MisalignedAtomic(offset));
        }
        Ok(())
    }
}

/// Registry of all windows of a world, shared by every rank: a dense
/// table indexed by window id. Ids are never reused, so a freed window
/// leaves an empty slot behind.
#[derive(Debug, Default)]
pub(crate) struct WindowRegistry {
    table: RwLock<Vec<Option<Arc<WindowState>>>>,
}

impl WindowRegistry {
    pub(crate) fn allocate(&self, len: usize, num_ranks: usize) -> WindowId {
        // The id is the slot index, so it is drawn under the write lock.
        let mut table = self.table.write();
        let id = WindowId(u32::try_from(table.len()).expect("fewer than 2^32 windows"));
        table.push(Some(Arc::new(WindowState::new(id, len, num_ranks))));
        id
    }

    pub(crate) fn get(&self, id: WindowId) -> Result<Arc<WindowState>> {
        self.table
            .read()
            .get(id.0 as usize)
            .and_then(Option::clone)
            .ok_or(MpiError::InvalidWindow(id.0 as u64))
    }

    /// Empty the window's slot. Exactly one of several racing frees of the
    /// same id succeeds.
    pub(crate) fn free(&self, id: WindowId) -> Result<()> {
        self.table
            .write()
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .map(drop)
            .ok_or(MpiError::InvalidWindow(id.0 as u64))
    }
}

/// RAII passive-target epoch, returned by [`Window::lock_exclusive`] /
/// [`Window::lock_shared`]. Dropping the guard is `MPI_Win_unlock`.
#[must_use = "dropping the guard immediately ends the epoch"]
pub struct EpochGuard<'a> {
    _guard: EpochGuardInner<'a>,
}

// The guards are held purely for their Drop behavior (ending the epoch).
#[allow(dead_code)]
enum EpochGuardInner<'a> {
    Exclusive(fairmpi_sync::RwLockWriteGuard<'a, ()>),
    Shared(fairmpi_sync::RwLockReadGuard<'a, ()>),
}

/// A window handle bound to one rank (the origin of the operations issued
/// through it).
#[derive(Clone)]
pub struct Window {
    pub(crate) state: Arc<WindowState>,
    pub(crate) proc: Proc,
}

impl Window {
    /// Window id.
    pub fn id(&self) -> WindowId {
        self.state.id
    }

    /// Window size in bytes (identical on every rank).
    pub fn len(&self) -> usize {
        self.state.len
    }

    /// True for zero-byte windows.
    pub fn is_empty(&self) -> bool {
        self.state.len == 0
    }

    /// Remote write (`MPI_Put`). Completes locally at the next
    /// [`Window::flush`]/[`Window::flush_all`] toward `target`.
    pub fn put(&self, target: Rank, offset: usize, data: &[u8]) -> Result<()> {
        self.proc.state.validate_rank(target)?;
        self.state.check_range(offset, data.len())?;
        self.proc.state.rma_put(&self.state, target, offset, data);
        Ok(())
    }

    /// Remote read (`MPI_Get`). The returned bytes are valid after
    /// [`Window::flush`] toward `target` (this implementation also makes
    /// them available immediately, which is a legal strengthening).
    pub fn get(&self, target: Rank, offset: usize, len: usize) -> Result<Vec<u8>> {
        self.proc.state.validate_rank(target)?;
        self.state.check_range(offset, len)?;
        Ok(self.proc.state.rma_get(&self.state, target, offset, len))
    }

    /// Remote accumulate (`MPI_Accumulate`) over u64 lanes. Element-atomic
    /// with respect to other accumulates on the same target.
    pub fn accumulate(
        &self,
        target: Rank,
        offset: usize,
        lanes: &[u64],
        op: AccumulateOp,
    ) -> Result<()> {
        self.proc.state.validate_rank(target)?;
        self.state.validate_atomic(offset, lanes.len() * 8)?;
        self.proc
            .state
            .rma_accumulate(&self.state, target, offset, lanes, op);
        Ok(())
    }

    /// Atomic fetch-and-add on one u64 lane (`MPI_Fetch_and_op` with
    /// `MPI_SUM`); returns the previous value.
    pub fn fetch_add(&self, target: Rank, offset: usize, value: u64) -> Result<u64> {
        self.proc.state.validate_rank(target)?;
        self.state.validate_atomic(offset, 8)?;
        Ok(self
            .proc
            .state
            .rma_fetch_op(&self.state, target, offset, value))
    }

    /// Atomic compare-and-swap on one u64 lane (`MPI_Compare_and_swap`);
    /// returns the previous value.
    pub fn compare_swap(
        &self,
        target: Rank,
        offset: usize,
        compare: u64,
        swap: u64,
    ) -> Result<u64> {
        self.proc.state.validate_rank(target)?;
        self.state.validate_atomic(offset, 8)?;
        Ok(self
            .proc
            .state
            .rma_compare_swap(&self.state, target, offset, compare, swap))
    }

    /// Passive-target flush (`MPI_Win_flush`): progress until every
    /// operation this rank issued toward `target` has completed.
    pub fn flush(&self, target: Rank) -> Result<()> {
        self.proc.state.validate_rank(target)?;
        self.proc.state.rma_flush(&self.state, Some(target));
        Ok(())
    }

    /// Flush toward every target (`MPI_Win_flush_all`).
    pub fn flush_all(&self) {
        self.proc.state.rma_flush(&self.state, None);
    }

    /// Begin an exclusive passive-target epoch on `target`
    /// (`MPI_Win_lock(MPI_LOCK_EXCLUSIVE)`); ends when the guard drops.
    pub fn lock_exclusive(&self, target: Rank) -> Result<EpochGuard<'_>> {
        self.proc.state.validate_rank(target)?;
        Ok(EpochGuard {
            _guard: EpochGuardInner::Exclusive(self.state.epoch(target).write()),
        })
    }

    /// Begin a shared passive-target epoch on `target`
    /// (`MPI_Win_lock(MPI_LOCK_SHARED)`).
    pub fn lock_shared(&self, target: Rank) -> Result<EpochGuard<'_>> {
        self.proc.state.validate_rank(target)?;
        Ok(EpochGuard {
            _guard: EpochGuardInner::Shared(self.state.epoch(target).read()),
        })
    }

    /// Active-target fence (`MPI_Win_fence`): flush everything, then
    /// barrier with every other rank of the window.
    pub fn fence(&self) {
        self.flush_all();
        self.state.fence_wait();
    }

    /// Read this rank's own exposed region (local load).
    pub fn read_local(&self, offset: usize, len: usize) -> Result<Vec<u8>> {
        self.state.check_range(offset, len)?;
        Ok(self.state.load_bytes(self.proc.rank(), offset, len))
    }

    /// Write this rank's own exposed region (local store).
    pub fn write_local(&self, offset: usize, data: &[u8]) -> Result<()> {
        self.state.check_range(offset, data.len())?;
        self.state.store_bytes(self.proc.rank(), offset, data);
        Ok(())
    }

    /// Outstanding operations this rank has toward `target`.
    pub fn pending_toward(&self, target: Rank) -> u64 {
        self.state.pending_toward(self.proc.rank(), target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_ops_apply() {
        assert_eq!(AccumulateOp::Sum.apply(3, 4), 7);
        assert_eq!(AccumulateOp::Replace.apply(3, 4), 4);
        assert_eq!(AccumulateOp::Max.apply(3, 4), 4);
        assert_eq!(AccumulateOp::Min.apply(3, 4), 3);
        assert_eq!(AccumulateOp::Sum.apply(u64::MAX, 1), 0, "wrapping");
    }

    #[test]
    fn window_state_bounds_checks() {
        let w = WindowState::new(WindowId(0), 64, 2);
        assert!(w.check_range(0, 64).is_ok());
        assert!(w.check_range(60, 5).is_err());
        assert!(w.check_range(usize::MAX, 2).is_err(), "overflow guarded");
        assert!(w.validate_atomic(8, 16).is_ok());
        assert!(matches!(
            w.validate_atomic(4, 8),
            Err(MpiError::MisalignedAtomic(4))
        ));
    }

    #[test]
    fn store_load_round_trip() {
        let w = WindowState::new(WindowId(0), 16, 2);
        w.store_bytes(1, 4, &[1, 2, 3]);
        assert_eq!(w.load_bytes(1, 4, 3), vec![1, 2, 3]);
        assert_eq!(w.load_bytes(0, 4, 3), vec![0, 0, 0], "per-rank buffers");
    }

    #[test]
    fn accumulate_and_cas_semantics() {
        let w = WindowState::new(WindowId(0), 32, 1);
        let prev = w.accumulate_u64(0, 0, &[5, 7], AccumulateOp::Sum);
        assert_eq!(prev, 0);
        let prev = w.accumulate_u64(0, 0, &[10, 10], AccumulateOp::Sum);
        assert_eq!(prev, 5);
        assert_eq!(w.load_u64(0, 0), 15);
        assert_eq!(w.load_u64(0, 8), 17);
        // CAS hits then misses.
        assert_eq!(w.compare_swap_u64(0, 0, 15, 99), 15);
        assert_eq!(w.load_u64(0, 0), 99);
        assert_eq!(w.compare_swap_u64(0, 0, 15, 1), 99, "miss returns prev");
        assert_eq!(w.load_u64(0, 0), 99, "miss leaves value");
    }

    #[test]
    fn pending_accounting() {
        let w = WindowState::new(WindowId(0), 8, 3);
        w.pending_inc(0, 2);
        w.pending_inc(0, 2);
        w.pending_inc(0, 1);
        assert_eq!(w.pending_toward(0, 2), 2);
        assert_eq!(w.pending_total(0), 3);
        assert_eq!(w.pending_total(1), 0);
        w.pending_sub(0, 2, 1);
        assert_eq!(w.pending_total(0), 2);
        w.pending_sub(0, 2, 1);
        w.pending_sub(0, 1, 1);
        assert_eq!(w.pending_total(0), 0);
    }

    #[test]
    #[should_panic(expected = "RMA completion without a pending op")]
    #[cfg(debug_assertions)]
    fn retiring_more_than_pending_is_detected() {
        let w = WindowState::new(WindowId(0), 8, 2);
        w.pending_inc(0, 1);
        w.pending_sub(0, 1, 2);
    }

    #[test]
    fn registry_lifecycle() {
        let reg = WindowRegistry::default();
        let id = reg.allocate(128, 2);
        assert_eq!(reg.get(id).unwrap().len, 128);
        reg.free(id).unwrap();
        assert!(matches!(reg.get(id), Err(MpiError::InvalidWindow(0))));
        assert!(matches!(reg.free(id), Err(MpiError::InvalidWindow(0))));
        assert!(reg.free(WindowId(7)).is_err(), "never allocated");
    }

    #[test]
    fn registry_ids_stay_dense_after_a_free() {
        let reg = WindowRegistry::default();
        let a = reg.allocate(8, 1);
        let b = reg.allocate(16, 1);
        reg.free(a).unwrap();
        let c = reg.allocate(24, 1);
        assert_eq!((a.0, b.0, c.0), (0, 1, 2), "id == slot index, never reused");
        assert_eq!(reg.get(b).unwrap().len, 16);
        assert_eq!(reg.get(c).unwrap().len, 24);
    }

    #[test]
    fn racing_frees_of_one_window_succeed_once() {
        let reg = Arc::new(WindowRegistry::default());
        let id = reg.allocate(8, 1);
        let start = Arc::new(std::sync::Barrier::new(4));
        let frees: Vec<_> = (0..4)
            .map(|_| {
                let (reg, start) = (Arc::clone(&reg), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    reg.free(id).is_ok()
                })
            })
            .collect();
        let joined = frees.into_iter().map(|h| h.join().unwrap());
        let won = joined.filter(|&ok| ok).count();
        assert_eq!(won, 1);
    }

    #[test]
    fn fence_barrier_releases_all() {
        let b = Arc::new(FenceBarrier::new(3));
        let hs: Vec<_> = (0..3)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..5 {
                        b.wait();
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
    }
}
