//! Deliberately-broken miniatures of the runtime's concurrency kernels.
//!
//! Each type here mirrors the *shape* of a real fairmpi algorithm —
//! small enough for exhaustive schedule exploration, faithful enough
//! that the seeded bug is the same bug a regression in the real code
//! would introduce. The test suite asserts that [`crate::Checker`]
//! produces a reproducible counterexample for every mutant, which is the
//! evidence that the checker would catch the corresponding real
//! regression. **Nothing in this module is used by the runtime.**
//!
//! The five seeded bugs:
//!
//! 1. [`RingBug::PublishBeforeWrite`] — the MPSC ring publishes a slot's
//!    sequence number before storing the value, so a concurrent consumer
//!    can pop an unwritten slot ([`Pop::Torn`]).
//! 2. [`RingBug::TicketWithoutCas`] — the producer claims its ticket with
//!    a load + store instead of a compare-exchange, so two producers can
//!    claim the same slot and one value is lost.
//! 3. [`MiniPool`] with `lost_wakeup = true` — Algorithm 2's fallback
//!    sweep is gated on a pending flag that the poster raises *before*
//!    inserting the completion; a sweep in the window consumes the flag,
//!    finds nothing, and the completion is stranded forever.
//! 4. [`RacyDedup`] — receiver-side duplicate suppression as a
//!    check-then-insert across two lock acquisitions, so two racing
//!    deliveries of the same `tseq` are both accepted.
//! 5. [`MiniSlab`] with `reap_keeps_generation = true` — reaping a
//!    finished request recycles its slot without advancing the slot's
//!    generation, so the next occupant's token equals the old one and a
//!    late completion of the old request lands on the new one.

use fairmpi_sync::atomic::{AtomicU64, Ordering};
use fairmpi_sync::Mutex;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Miniature MPSC ticket ring (mirrors fairmpi_offload::TicketRing)
// ---------------------------------------------------------------------------

/// Which bug, if any, to seed into [`ModelRing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingBug {
    /// Correct protocol (used to validate the miniature itself).
    None,
    /// Publish the slot sequence before writing the value.
    PublishBeforeWrite,
    /// Claim the producer ticket with load + store instead of CAS.
    TicketWithoutCas,
}

/// Result of [`ModelRing::try_pop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pop {
    /// Ring empty (slot not yet published).
    Empty,
    /// A published value.
    Value(u64),
    /// The slot was published but its value was never written — the
    /// observable symptom of [`RingBug::PublishBeforeWrite`]. The real
    /// ring stores through an `UnsafeCell`, where this is a read of
    /// uninitialized memory; the miniature keeps it safe (and visible)
    /// with an `Option`.
    Torn,
}

struct Slot {
    seq: AtomicU64,
    value: Mutex<Option<u64>>,
}

/// Single-consumer miniature of the Vyukov-style command ring, with an
/// optional seeded bug. Capacity must be a power of two and at least the
/// total number of pushes in the test (no wraparound paths — the mutants
/// live in the claim/publish protocol, not in index arithmetic).
pub struct ModelRing {
    bug: RingBug,
    mask: u64,
    capacity: u64,
    tail: AtomicU64,
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl ModelRing {
    /// New ring with `capacity` slots (power of two).
    pub fn new(capacity: usize, bug: RingBug) -> Self {
        assert!(capacity.is_power_of_two());
        Self {
            bug,
            mask: capacity as u64 - 1,
            capacity: capacity as u64,
            tail: AtomicU64::new(0),
            head: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|i| Slot {
                    seq: AtomicU64::new(i as u64),
                    value: Mutex::new(None),
                })
                .collect(),
        }
    }

    /// Push from any producer thread. Returns `false` when full.
    pub fn try_push(&self, value: u64) -> bool {
        loop {
            let ticket = self.tail.load(Ordering::Acquire);
            let slot = &self.slots[(ticket & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == ticket {
                let claimed = match self.bug {
                    RingBug::TicketWithoutCas => {
                        // Seeded bug: non-atomic claim. Two producers can
                        // both read the same ticket and both "win" it.
                        self.tail.store(ticket + 1, Ordering::Release);
                        true
                    }
                    _ => self
                        .tail
                        .compare_exchange(ticket, ticket + 1, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok(),
                };
                if !claimed {
                    continue;
                }
                if self.bug == RingBug::PublishBeforeWrite {
                    // Seeded bug: the consumer may observe seq == ticket+1
                    // while the value below is still unwritten.
                    slot.seq.store(ticket + 1, Ordering::Release);
                    *slot.value.lock() = Some(value);
                } else {
                    *slot.value.lock() = Some(value);
                    slot.seq.store(ticket + 1, Ordering::Release);
                }
                return true;
            }
            if seq < ticket {
                return false;
            }
            // seq > ticket: another producer advanced tail; retry.
        }
    }

    /// Pop from the single consumer thread.
    pub fn try_pop(&self) -> Pop {
        let head = self.head.load(Ordering::Acquire);
        let slot = &self.slots[(head & self.mask) as usize];
        if slot.seq.load(Ordering::Acquire) != head + 1 {
            return Pop::Empty;
        }
        let taken = slot.value.lock().take();
        slot.seq.store(head + self.capacity, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
        match taken {
            Some(v) => Pop::Value(v),
            None => Pop::Torn,
        }
    }
}

// ---------------------------------------------------------------------------
// Miniature Algorithm 2 progress loop (mirrors fairmpi_progress)
// ---------------------------------------------------------------------------

/// Miniature of the paper's Algorithm 2: each progress pass drains the
/// caller's dedicated instance first and, when that produced nothing,
/// sweeps every instance round-robin so a completion stranded on an
/// unattended instance is still extracted.
///
/// With `lost_wakeup = true` the sweep is gated on a pending flag that
/// posters raise *before* inserting (a classic lost-wakeup window): a
/// sweep between the flag store and the insert consumes the signal, finds
/// nothing, and every later pass skips the sweep — the completion is
/// stranded. The correct design runs the sweep unconditionally, which is
/// exactly why Algorithm 2 does not rely on cross-thread signaling.
pub struct MiniPool {
    lost_wakeup: bool,
    has_pending: AtomicU64,
    round_robin: AtomicU64,
    instances: Vec<Mutex<Vec<u64>>>,
}

impl MiniPool {
    /// `n` instances; `lost_wakeup` seeds the mutant.
    pub fn new(n: usize, lost_wakeup: bool) -> Self {
        Self {
            lost_wakeup,
            has_pending: AtomicU64::new(0),
            round_robin: AtomicU64::new(0),
            instances: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Deliver a completion to instance `k` (fabric side).
    pub fn post(&self, k: usize, completion: u64) {
        if self.lost_wakeup {
            // Seeded bug: signal before the completion is visible.
            self.has_pending.store(1, Ordering::SeqCst);
            self.instances[k].lock().push(completion);
        } else {
            self.instances[k].lock().push(completion);
            self.has_pending.store(1, Ordering::SeqCst);
        }
    }

    fn drain_one(&self, k: usize, out: &mut Vec<u64>) -> usize {
        let Some(mut q) = self.instances[k].try_lock() else {
            // Another thread is working this instance (paper §III-C).
            return 0;
        };
        let n = q.len();
        out.append(&mut q);
        n
    }

    /// One progress pass by the thread assigned to instance `assigned`.
    /// Returns the number of completions extracted into `out`.
    pub fn pass(&self, assigned: usize, out: &mut Vec<u64>) -> usize {
        let mut count = self.drain_one(assigned, out);
        if count == 0 {
            if self.lost_wakeup && self.has_pending.swap(0, Ordering::SeqCst) == 0 {
                // Seeded bug: no signal, skip the fallback sweep.
                return 0;
            }
            for _ in 0..self.instances.len() {
                let k = self.round_robin.fetch_add(1, Ordering::Relaxed) as usize
                    % self.instances.len();
                count += self.drain_one(k, out);
                if count > 0 {
                    break;
                }
            }
        }
        count
    }
}

// ---------------------------------------------------------------------------
// Racy duplicate suppression (mirrors fairmpi::DedupWindow misuse)
// ---------------------------------------------------------------------------

/// Receiver-side duplicate suppression with a seeded check-then-insert
/// race: membership is tested under one lock acquisition and recorded
/// under a second, so two racing deliveries of the same `tseq` can both
/// observe "new" and both be accepted. The correct design (the runtime's
/// `Reliability::accept`) holds one lock across the whole
/// [`fairmpi::DedupWindow::accept`] test-and-record.
pub struct RacyDedup {
    seen: Mutex<BTreeSet<u64>>,
}

impl RacyDedup {
    /// Empty window.
    pub fn new() -> Self {
        Self {
            seen: Mutex::new(BTreeSet::new()),
        }
    }

    /// `true` if this `tseq` is (apparently) new.
    pub fn accept(&self, tseq: u64) -> bool {
        if self.seen.lock().contains(&tseq) {
            return false;
        }
        // Seeded bug: the lock was dropped — another delivery of the same
        // tseq can pass the check above before the insert below lands.
        self.seen.lock().insert(tseq);
        true
    }
}

impl Default for RacyDedup {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Request slab slot (mirrors fairmpi::RequestTable)
// ---------------------------------------------------------------------------

const SLAB_PENDING: u64 = 0;
const SLAB_COMPLETE: u64 = 1;

/// One slot of the request slab: a state word `generation << 2 | status`,
/// completions that compare-and-swap from `(generation, PENDING)`, and a
/// reap that claims a finished request by moving the word to the next
/// generation. A token is the generation (the miniature has one slot, so
/// no index). With `reap_keeps_generation` the reap resets the status but
/// keeps the generation: the seeded bug.
pub struct MiniSlab {
    state: AtomicU64,
    reap_keeps_generation: bool,
}

impl MiniSlab {
    /// A slot whose first occupant has generation 1.
    pub fn new(reap_keeps_generation: bool) -> Self {
        Self {
            state: AtomicU64::new(1 << 2 | SLAB_PENDING),
            reap_keeps_generation,
        }
    }

    /// Hand the slot out: the token of its current (pending) generation.
    pub fn alloc(&self) -> u64 {
        self.state.load(Ordering::SeqCst) >> 2
    }

    /// Complete the request `token`; false if it is stale or finished.
    pub fn complete(&self, token: u64) -> bool {
        self.state
            .compare_exchange(
                token << 2 | SLAB_PENDING,
                token << 2 | SLAB_COMPLETE,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    /// `None` while `token` is pending, `Some(true)` when this call reaped
    /// it, `Some(false)` when the token is stale.
    pub fn try_reap(&self, token: u64) -> Option<bool> {
        let state = self.state.load(Ordering::SeqCst);
        if state >> 2 != token {
            return Some(false);
        }
        if state & 0b11 == SLAB_PENDING {
            return None;
        }
        let next = if self.reap_keeps_generation {
            token
        } else {
            token + 1
        };
        Some(
            self.state
                .compare_exchange(
                    state,
                    next << 2 | SLAB_PENDING,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok(),
        )
    }

    /// Whether `token` is still pending (`None` once it is stale).
    pub fn is_pending(&self, token: u64) -> Option<bool> {
        let state = self.state.load(Ordering::SeqCst);
        (state >> 2 == token).then_some(state & 0b11 == SLAB_PENDING)
    }
}
