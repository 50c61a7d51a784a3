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
//! The eight seeded bugs:
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
//! 6. [`MiniFreeList`] with `tagged = false` — the request slab's free
//!    stack without the tag in its head word: a pop that read the head and
//!    the slot below it, then lost the processor while another thread
//!    popped both and pushed the first back, installs a slot that is still
//!    live, and the next pop hands it out a second time (ABA).
//! 7. [`MiniSpillQueue`] with `recheck = false` — a network context's
//!    receive queue (the real [`TicketRing`] plus a locked overflow list)
//!    whose drain takes the overflow list as soon as a ring pop comes up
//!    short. An empty pop can also mean another producer claimed a ticket
//!    and has not published it; a packet queued behind that ticket then
//!    loses to a later packet its own producer spilled.
//! 8. [`UncountedQueue`] — the offload command queue's shutdown hand-off
//!    without the admission count: a producer checks the closed flag and
//!    then pushes, and a worker stops once the queue is closed and empty.
//!    A push that passed the check before the close can land after the
//!    worker stopped, and nothing ever executes it.

use crate::{spawn, yield_now};
use fairmpi_offload::CommandQueue;
use fairmpi_progress::{Plan, Sweep};
use fairmpi_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use fairmpi_sync::{Mutex, TicketRing};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Miniature MPSC ticket ring (mirrors fairmpi_sync::TicketRing)
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
// Miniature Algorithm 2 progress loop (walks fairmpi_progress::Sweep)
// ---------------------------------------------------------------------------

/// Miniature of the paper's Algorithm 2: each progress pass walks the
/// runtime's own [`Sweep`] — the caller's dedicated instance first and,
/// when that produced nothing, each other instance once — so a completion
/// stranded on an unattended instance is still extracted.
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
    instances: Vec<Mutex<Vec<u64>>>,
}

impl MiniPool {
    /// `n` instances; `lost_wakeup` seeds the mutant.
    pub fn new(n: usize, lost_wakeup: bool) -> Self {
        Self {
            lost_wakeup,
            has_pending: AtomicU64::new(0),
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
        let mut sweep = Sweep::new(self.instances.len(), Plan::From(assigned));
        let mut count = 0;
        let mut k = sweep.current();
        loop {
            count += self.drain_one(k, out);
            match sweep.next(count > 0) {
                Some(next) => k = next,
                None => return count,
            }
            if sweep.falls_back()
                && self.lost_wakeup
                && self.has_pending.swap(0, Ordering::SeqCst) == 0
            {
                // Seeded bug: no signal, skip the fallback sweep.
                return 0;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Racy duplicate suppression (mirrors fairmpi_chaos::DedupWindow misuse)
// ---------------------------------------------------------------------------

/// Receiver-side duplicate suppression with a seeded check-then-insert
/// race: membership is tested under one lock acquisition and recorded
/// under a second, so two racing deliveries of the same `tseq` can both
/// observe "new" and both be accepted. The correct design (the runtime's
/// `Reliability::accept`) holds one lock across the whole
/// [`fairmpi_chaos::DedupWindow::accept`] test-and-record.
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

// ---------------------------------------------------------------------------
// Request slab free stack (mirrors fairmpi::RequestTable's Treiber stack)
// ---------------------------------------------------------------------------

/// The request slab's free stack in miniature: a head word
/// `tag << 32 | (index + 1)` (0 in the low half = empty) and one `next`
/// link per slot, each pop and push a single compare-and-swap. With
/// `tagged = false` the head's tag never advances, so a compare-and-swap
/// against a head that was popped and pushed back in between succeeds:
/// the seeded bug.
pub struct MiniFreeList {
    head: AtomicU64,
    next: Vec<AtomicU64>,
    tagged: bool,
}

impl MiniFreeList {
    /// A stack holding slots `0..n`, slot 0 on top.
    pub fn new(n: u32, tagged: bool) -> Self {
        Self {
            head: AtomicU64::new(u64::from(n > 0)),
            next: (0..n)
                .map(|i| AtomicU64::new(if i + 1 < n { u64::from(i) + 2 } else { 0 }))
                .collect(),
            tagged,
        }
    }

    fn next_head(&self, head: u64, link: u64) -> u64 {
        let tag = if self.tagged {
            (head >> 32).wrapping_add(1)
        } else {
            head >> 32
        };
        tag << 32 | link
    }

    /// Take the top slot; `None` when the stack is empty.
    pub fn pop(&self) -> Option<u32> {
        let mut head = self.head.load(Ordering::SeqCst);
        loop {
            let top = head & 0xffff_ffff;
            if top == 0 {
                return None;
            }
            let below = self.next[top as usize - 1].load(Ordering::SeqCst);
            match self.head.compare_exchange(
                head,
                self.next_head(head, below),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Some(top as u32 - 1),
                Err(now) => head = now,
            }
        }
    }

    /// Give slot `index` back.
    pub fn push(&self, index: u32) {
        let mut head = self.head.load(Ordering::SeqCst);
        loop {
            self.next[index as usize].store(head & 0xffff_ffff, Ordering::SeqCst);
            match self.head.compare_exchange(
                head,
                self.next_head(head, u64::from(index) + 1),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return,
                Err(now) => head = now,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Receive ring with overflow list (mirrors fairmpi_fabric::NetworkContext)
// ---------------------------------------------------------------------------

/// A network context's receive queue in miniature: the real [`TicketRing`]
/// plus a locked overflow list that producers append to once the ring is
/// full or earlier values are already spilled, drained by a single
/// consumer. With `recheck = false` the drain hands the list over as soon
/// as a ring pop comes up short instead of only once the ring is empty by
/// `tail == head`: the seeded bug.
pub struct MiniSpillQueue {
    ring: TicketRing<u64>,
    overflow: Mutex<VecDeque<u64>>,
    spilled: AtomicBool,
    recheck: bool,
}

impl MiniSpillQueue {
    /// A queue whose ring has `slots` slots.
    pub fn new(slots: usize, recheck: bool) -> Self {
        Self {
            ring: TicketRing::with_capacity(slots),
            overflow: Mutex::new(VecDeque::new()),
            spilled: AtomicBool::new(false),
            recheck,
        }
    }

    /// Deliver `value` from any producer thread.
    pub fn push(&self, value: u64) {
        let value = if self.spilled.load(Ordering::SeqCst) {
            value
        } else {
            match self.ring.try_push(value) {
                Ok(()) => return,
                Err(full) => full.0,
            }
        };
        let mut overflow = self.overflow.lock();
        self.spilled.store(true, Ordering::SeqCst);
        overflow.push_back(value);
    }

    /// Move up to `max` values onto `out` (single consumer); returns how
    /// many moved.
    pub fn drain(&self, max: usize, out: &mut Vec<u64>) -> usize {
        let n = self.ring.pop_batch(out, max);
        if n == max || !self.spilled.load(Ordering::SeqCst) {
            return n;
        }
        let mut overflow = self.overflow.lock();
        if self.recheck && !self.ring.is_empty() {
            return n;
        }
        let take = (max - n).min(overflow.len());
        out.extend(overflow.drain(..take));
        if overflow.is_empty() {
            self.spilled.store(false, Ordering::SeqCst);
        }
        n + take
    }
}

// ---------------------------------------------------------------------------
// Offload command queue shutdown hand-off (mirrors fairmpi_offload::CommandQueue)
// ---------------------------------------------------------------------------

/// The command queue as [`shutdown_handoff`] drives it, implemented by the
/// real [`CommandQueue`] and by its [`UncountedQueue`] mutant.
pub trait Handoff: Send + Sync + 'static {
    /// Push `value` unless the queue is closed; `false` when refused.
    fn submit(&self, value: u64) -> bool;
    /// Move up to `max` values onto `out`; returns how many moved.
    fn take(&self, out: &mut Vec<u64>, max: usize) -> usize;
    /// Refuse every push from now on.
    fn close(&self);
    /// Whether the worker may stop.
    fn drained(&self) -> bool;
}

impl Handoff for CommandQueue<u64> {
    fn submit(&self, value: u64) -> bool {
        self.push(value).is_ok()
    }

    fn take(&self, out: &mut Vec<u64>, max: usize) -> usize {
        self.pop_batch(out, max)
    }

    fn close(&self) {
        CommandQueue::close(self);
    }

    fn drained(&self) -> bool {
        CommandQueue::drained(self)
    }
}

/// The command queue without its admission count: `submit` checks the
/// closed flag, then pushes; the worker may stop once the queue is closed
/// and the ring empty. The seeded bug.
pub struct UncountedQueue {
    ring: TicketRing<u64>,
    closed: AtomicBool,
}

impl UncountedQueue {
    /// An open queue of `slots` slots.
    pub fn new(slots: usize) -> Self {
        Self {
            ring: TicketRing::with_capacity(slots),
            closed: AtomicBool::new(false),
        }
    }
}

impl Handoff for UncountedQueue {
    fn submit(&self, value: u64) -> bool {
        if self.closed.load(Ordering::SeqCst) {
            return false;
        }
        // Seeded bug: nothing tells the worker a push is on its way.
        self.ring.try_push(value).is_ok()
    }

    fn take(&self, out: &mut Vec<u64>, max: usize) -> usize {
        self.ring.pop_batch(out, max)
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    fn drained(&self) -> bool {
        self.closed.load(Ordering::SeqCst) && self.ring.is_empty()
    }
}

/// One submitter, one closer (the `World` drop) and a worker that steps
/// as the offload worker loop does: drain a batch, and stop when it found
/// nothing and the queue says it may. Whatever the submitter had accepted
/// must have been taken by the worker before it stopped, and nothing may
/// be left queued after.
pub fn shutdown_handoff(queue: impl Handoff) {
    let queue = Arc::new(queue);
    let submitter = {
        let queue = Arc::clone(&queue);
        spawn(move || queue.submit(7))
    };
    let closer = {
        let queue = Arc::clone(&queue);
        spawn(move || queue.close())
    };
    let mut executed = Vec::new();
    let step = |executed: &mut Vec<u64>| queue.take(executed, 2) == 0 && queue.drained();
    let mut stopped = false;
    for _ in 0..3 {
        if step(&mut executed) {
            stopped = true;
            break;
        }
        yield_now();
    }
    let accepted = submitter.join();
    closer.join();
    while !stopped {
        stopped = step(&mut executed);
    }
    let mut stranded = Vec::new();
    queue.take(&mut stranded, 2);
    assert!(
        stranded.is_empty(),
        "command {stranded:?} was queued after the worker stopped"
    );
    let expected: &[u64] = if accepted { &[7] } else { &[] };
    assert_eq!(executed, expected, "an accepted command runs exactly once");
}
