//! Requests: the handles behind nonblocking operations, and the slab of
//! recycled slots that holds their state.
//!
//! A request lives in one slot of a [`RequestTable`]. Its token is
//! `generation << 32 | index`: the index locates the slot, the generation
//! tells this occupant of the slot apart from every earlier and later one.
//! Each slot carries one atomic word, `generation << 3 | status`. Every
//! completion is a compare-and-swap from `(generation, PENDING)`, so only
//! the first completion of the token's own occupant lands. A completion
//! with fields to write (a receive, a failure) first claims the request
//! (`PENDING → CLAIMED`), writes them, and then publishes its final status
//! with a release store: until then waiters read the request as pending
//! and racing completions read it as finished. Reaping a finished request
//! is one compare-and-swap that claims the outcome and advances the
//! generation in the same step: a racing second reaper, a clone of the
//! handle, or a late completion of the old token then finds a generation
//! that is no longer its own and resolves to [`MpiError::InvalidRequest`]
//! instead of touching the slot's next occupant.
//!
//! Free slots form a Treiber stack linked through the slots themselves.
//! Its head word carries a tag that advances on every push and pop, so a
//! pop that read a head which has since been popped and pushed back
//! cannot win its compare-and-swap (ABA).

use std::sync::OnceLock;

use fairmpi_sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use fairmpi_sync::Mutex;

use fairmpi_fabric::{Rank, Tag};

use crate::error::MpiError;

/// A completed point-to-point message, as returned by [`crate::Proc::recv`]
/// and [`crate::Proc::wait`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Payload bytes.
    pub data: Vec<u8>,
    /// Sending rank (useful with `ANY_SOURCE`).
    pub src: Rank,
    /// Message tag (useful with `ANY_TAG`).
    pub tag: Tag,
}

/// Opaque handle to a pending nonblocking operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Request {
    pub(crate) token: u64,
}

const PENDING: u64 = 0;
const COMPLETE: u64 = 1;
const CANCELLED: u64 = 2;
const FAILED: u64 = 3;
/// A completion won the request and is writing its outcome.
const CLAIMED: u64 = 4;
const STATUS_BITS: u32 = 3;
const STATUS_MASK: u64 = (1 << STATUS_BITS) - 1;

/// `flags`: a rendezvous payload is parked in the slot's `Extra`.
const STASHED: u64 = 1;
/// `flags`: the completed receive's bytes are in the slot's `Extra`.
const PAYLOAD: u64 = 2;

fn state_word(generation: u64, status: u64) -> u64 {
    generation << STATUS_BITS | status
}

/// The generation after `generation`, skipping 0 so that no token is ever
/// 0 (token 0 means "no request" on control packets).
fn next_generation(generation: u64) -> u64 {
    if generation >= u32::MAX as u64 {
        1
    } else {
        generation + 1
    }
}

/// `src << 32 | tag`: the identity a request's outcome reports.
fn ident(src: Rank, tag: Tag) -> u64 {
    (src as u64) << 32 | tag as u32 as u64
}

/// What does not fit in an atomic word. Only a receive's bytes, a
/// rendezvous stash and an error live here, so a zero-byte message is
/// allocated, completed and reaped without taking this lock.
#[derive(Debug, Default)]
struct Extra {
    /// Bytes of a completed receive (`PAYLOAD`).
    payload: Option<Vec<u8>>,
    /// Rendezvous send payload parked until the CTS arrives (`STASHED`).
    stash: Option<Vec<u8>>,
    /// Failure cause: written by the failure that won.
    error: Option<MpiError>,
}

/// One request slot. The fields beside `state` are accessed relaxed: a
/// completion's writes are published by its release store (or release
/// compare-and-swap) of `state` and acquired by the reaper's load of it;
/// allocation's writes reach other threads with the token, which only
/// travels through a lock or queue hand-off (the matcher, the offload
/// ring, the wire); a free slot's link is published by the release push
/// and acquired by the pop.
#[derive(Debug)]
struct Slot {
    /// `generation << 3 | status`.
    state: AtomicU64,
    /// `STASHED` / `PAYLOAD`: which parts of `extra` the reaper must visit.
    flags: AtomicU64,
    /// Receive-buffer capacity (receive requests only).
    capacity: AtomicUsize,
    /// `src << 32 | tag`: the requester for a send, the matched message's
    /// sender for a receive (written by the completion that won).
    ident: AtomicU64,
    /// While the slot is free: `index + 1` of the slot below it on the free
    /// stack, 0 at the bottom.
    next_free: AtomicU32,
    extra: Mutex<Extra>,
}

impl Slot {
    fn new() -> Self {
        Self {
            state: AtomicU64::new(state_word(1, PENDING)),
            flags: AtomicU64::new(0),
            capacity: AtomicUsize::new(0),
            ident: AtomicU64::new(0),
            next_free: AtomicU32::new(0),
            extra: Mutex::new(Extra::default()),
        }
    }

    /// Move the occupant of `generation` from pending to `status`. Fails
    /// when the request already finished, is claimed, or the slot moved on.
    fn finish(&self, generation: u64, status: u64, order: Ordering) -> bool {
        self.state
            .compare_exchange(
                state_word(generation, PENDING),
                state_word(generation, status),
                order,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Publish the outcome a claim of `generation` wrote.
    fn publish(&self, generation: u64, status: u64) {
        self.state
            .store(state_word(generation, status), Ordering::Release);
    }
}

/// Slots in the first segment; segment `k` holds `FIRST_SEGMENT << k`.
const FIRST_SEGMENT: usize = 64;
/// Enough doubling segments to address every `u32` index but the last few.
const SEGMENTS: usize = 26;

/// Segment and offset of slot `index`.
fn locate(index: u32) -> (usize, usize) {
    let biased = index as usize + FIRST_SEGMENT;
    let segment = (biased.ilog2() - FIRST_SEGMENT.ilog2()) as usize;
    (segment, biased - (FIRST_SEGMENT << segment))
}

/// Free-stack head word: `tag << 32 | (index + 1)`; low half 0 = empty.
const LINK_MASK: u64 = u32::MAX as u64;
const TAG_ONE: u64 = 1 << 32;

/// The head word after `head`, with `link` on top and the tag advanced.
fn next_head(head: u64, link: u32) -> u64 {
    (head.wrapping_add(TAG_ONE) & !LINK_MASK) | link as u64
}

/// The per-rank table of live requests: a slab of recycled slots.
///
/// Slots live in append-only segments of doubling size, so a token
/// resolves to its slot with an index computation and one atomic load —
/// no lock, no hash, no reference count. A tagged free stack hands indices
/// out and takes them back at reap, one compare-and-swap each; the mutex
/// that mints new indices is only reached when the stack is empty. See the
/// module documentation for the token format and the generation rule.
#[doc(hidden)]
#[derive(Debug)]
pub struct RequestTable {
    segments: [OnceLock<Box<[Slot]>>; SEGMENTS],
    /// Top of the free stack: `tag << 32 | (index + 1)`.
    free_head: AtomicU64,
    /// Indices handed out at least once: `0..minted`.
    minted: Mutex<u32>,
}

impl Default for RequestTable {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestTable {
    /// An empty table.
    pub fn new() -> Self {
        Self {
            segments: std::array::from_fn(|_| OnceLock::new()),
            free_head: AtomicU64::new(0),
            minted: Mutex::new(0),
        }
    }

    fn slot_at(&self, index: u32) -> Option<&Slot> {
        let (segment, offset) = locate(index);
        self.segments.get(segment)?.get()?.get(offset)
    }

    /// The slot a token names, with the token's generation. `None` for a
    /// token that names no slot ever handed out.
    fn slot(&self, token: u64) -> Option<(&Slot, u64)> {
        Some((self.slot_at(token as u32)?, token >> 32))
    }

    /// Take a free slot: pop the free stack, or mint a new index when it
    /// is empty. Returns the slot and the token of its pending generation.
    fn alloc(&self) -> (&Slot, u64) {
        let mut head = self.free_head.load(Ordering::Acquire);
        let (slot, index) = loop {
            let Some(index) = (head as u32).checked_sub(1) else {
                let index = self.mint();
                break (self.slot_at(index).expect("minted slots exist"), index);
            };
            let slot = self.slot_at(index).expect("free slots exist");
            let below = slot.next_free.load(Ordering::Relaxed);
            match self.free_head.compare_exchange(
                head,
                next_head(head, below),
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => break (slot, index),
                Err(now) => head = now,
            }
        };
        let generation = slot.state.load(Ordering::Relaxed) >> STATUS_BITS;
        (slot, generation << 32 | index as u64)
    }

    fn mint(&self) -> u32 {
        let mut minted = self.minted.lock();
        let index = *minted;
        let (segment, _) = locate(index);
        assert!(segment < SEGMENTS, "request table exhausted");
        // Segments only grow under the mint lock, so at most one thread
        // ever initialises a segment.
        self.segments[segment]
            .get_or_init(|| (0..FIRST_SEGMENT << segment).map(|_| Slot::new()).collect());
        *minted += 1;
        index
    }

    /// Return a reaped slot to the free stack.
    fn release(&self, slot: &Slot, index: u32) {
        let mut head = self.free_head.load(Ordering::Relaxed);
        loop {
            slot.next_free.store(head as u32, Ordering::Relaxed);
            match self.free_head.compare_exchange(
                head,
                next_head(head, index + 1),
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => head = now,
            }
        }
    }

    /// Register a new send request; `stash` carries the payload for
    /// rendezvous sends (None for eager).
    pub fn new_send(&self, src: Rank, tag: Tag, stash: Option<Vec<u8>>) -> u64 {
        let (slot, token) = self.alloc();
        let flags = match stash {
            Some(stash) => {
                slot.extra.lock().stash = Some(stash);
                STASHED
            }
            None => 0,
        };
        slot.flags.store(flags, Ordering::Relaxed);
        slot.ident.store(ident(src, tag), Ordering::Relaxed);
        token
    }

    /// Register a new receive request with the given buffer capacity.
    pub fn new_recv(&self, capacity: usize) -> u64 {
        let (slot, token) = self.alloc();
        slot.flags.store(0, Ordering::Relaxed);
        slot.capacity.store(capacity, Ordering::Relaxed);
        token
    }

    /// Whether the request has finished: `Some(false)` while pending,
    /// `None` once the token is stale (reaped, or never issued).
    pub fn is_done(&self, token: u64) -> Option<bool> {
        let (slot, generation) = self.slot(token)?;
        let state = slot.state.load(Ordering::Acquire);
        (state >> STATUS_BITS == generation)
            .then_some(!matches!(state & STATUS_MASK, PENDING | CLAIMED))
    }

    /// Whether the request was cancelled (and not yet reaped).
    pub(crate) fn is_cancelled(&self, token: u64) -> bool {
        self.slot(token).is_some_and(|(slot, generation)| {
            slot.state.load(Ordering::Acquire) == state_word(generation, CANCELLED)
        })
    }

    /// Complete a send (or flush) request. False when the token is stale
    /// or the request already finished.
    pub fn complete_send(&self, token: u64) -> bool {
        self.slot(token)
            .is_some_and(|(slot, generation)| slot.finish(generation, COMPLETE, Ordering::Release))
    }

    /// Cancel a pending request.
    pub fn cancel(&self, token: u64) -> bool {
        self.slot(token)
            .is_some_and(|(slot, generation)| slot.finish(generation, CANCELLED, Ordering::Release))
    }

    /// Claim the pending request `token` for a completion that writes
    /// fields. Only the winner of the claim touches the slot, so a stale
    /// token never writes into the slot's next occupant.
    fn claim(&self, token: u64) -> Option<(&Slot, u64)> {
        let (slot, generation) = self.slot(token)?;
        slot.finish(generation, CLAIMED, Ordering::Acquire)
            .then_some((slot, generation))
    }

    /// Fail a pending request with `err`.
    pub(crate) fn fail(&self, token: u64, err: MpiError) -> bool {
        let Some((slot, generation)) = self.claim(token) else {
            return false;
        };
        slot.extra.lock().error = Some(err);
        slot.publish(generation, FAILED);
        true
    }

    /// Complete a receive request with `msg`. `Some(true)` when the
    /// message fit and completed the request; `Some(false)` when it did
    /// not fit and failed the request with [`MpiError::Truncated`]; `None`
    /// when the token is stale or the request already finished.
    pub fn complete_recv(&self, token: u64, msg: Message) -> Option<bool> {
        let (slot, generation) = self.claim(token)?;
        let capacity = slot.capacity.load(Ordering::Relaxed);
        let fits = msg.data.len() <= capacity;
        if fits {
            slot.ident.store(ident(msg.src, msg.tag), Ordering::Relaxed);
            if !msg.data.is_empty() {
                slot.extra.lock().payload = Some(msg.data);
                let flags = slot.flags.load(Ordering::Relaxed);
                slot.flags.store(flags | PAYLOAD, Ordering::Relaxed);
            }
            slot.publish(generation, COMPLETE);
        } else {
            slot.extra.lock().error = Some(MpiError::Truncated {
                message_len: msg.data.len(),
                capacity,
            });
            slot.publish(generation, FAILED);
        }
        Some(fits)
    }

    /// Take a rendezvous send's parked payload (once). `None` when the
    /// token is stale.
    pub(crate) fn take_stash(&self, token: u64) -> Option<Vec<u8>> {
        let (slot, generation) = self.slot(token)?;
        // Checked under the lock: a slot's next occupant parks its stash
        // under the same lock, after the generation has moved on.
        let mut extra = slot.extra.lock();
        if slot.state.load(Ordering::Acquire) >> STATUS_BITS != generation {
            return None;
        }
        Some(extra.stash.take().unwrap_or_default())
    }

    /// Retire a request nobody will wait on, freeing its slot.
    pub(crate) fn discard(&self, token: u64) {
        self.cancel(token);
        let _ = self.try_reap(token);
    }

    /// Reap a finished request: `None` while it is pending; otherwise its
    /// outcome, after which the token is stale. Exactly one of any number
    /// of racing reapers gets the outcome; the others, and every later
    /// call, get [`MpiError::InvalidRequest`].
    pub fn try_reap(&self, token: u64) -> Option<Result<Message, MpiError>> {
        let stale = Some(Err(MpiError::InvalidRequest(token)));
        let Some((slot, generation)) = self.slot(token) else {
            return stale;
        };
        let state = slot.state.load(Ordering::Acquire);
        if state >> STATUS_BITS != generation {
            return stale;
        }
        let status = state & STATUS_MASK;
        if matches!(status, PENDING | CLAIMED) {
            return None;
        }
        // The claim: advancing the generation ends this token's life, so
        // nothing can complete, fail or reap it after this point.
        if slot
            .state
            .compare_exchange(
                state,
                state_word(next_generation(generation), PENDING),
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return stale;
        }
        let flags = slot.flags.load(Ordering::Relaxed);
        let ident = slot.ident.load(Ordering::Relaxed);
        let (src, tag) = ((ident >> 32) as Rank, ident as u32 as Tag);
        let outcome = if flags == 0 && status != FAILED {
            match status {
                COMPLETE => Ok(Message {
                    data: Vec::new(),
                    src,
                    tag,
                }),
                _ => Err(MpiError::Cancelled),
            }
        } else {
            let mut extra = slot.extra.lock();
            extra.stash = None;
            match status {
                COMPLETE => Ok(Message {
                    data: extra.payload.take().unwrap_or_default(),
                    src,
                    tag,
                }),
                CANCELLED => Err(MpiError::Cancelled),
                _ => Err(extra
                    .error
                    .take()
                    .expect("a failed request carries its error")),
            }
        };
        self.release(slot, token as u32);
        Some(outcome)
    }

    /// Number of live requests (diagnostics): the minted indices less the
    /// free stack's depth. Exact when no thread is allocating or reaping.
    pub fn len(&self) -> usize {
        let minted = *self.minted.lock();
        let mut free = 0;
        let mut link = self.free_head.load(Ordering::Acquire) as u32;
        while link != 0 && free < minted {
            free += 1;
            link = self
                .slot_at(link - 1)
                .expect("free slots exist")
                .next_free
                .load(Ordering::Relaxed);
        }
        (minted - free) as usize
    }

    /// Whether no request is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(data: Vec<u8>) -> Message {
        Message {
            data,
            src: 3,
            tag: 4,
        }
    }

    #[test]
    fn tokens_are_nonzero_and_distinct() {
        let t = RequestTable::new();
        let a = t.new_send(0, 0, None);
        let b = t.new_recv(10);
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn slots_span_segments() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        let t = RequestTable::new();
        let tokens: Vec<_> = (0..300).map(|_| t.new_recv(0)).collect();
        for &token in &tokens {
            assert!(t.complete_recv(token, msg(Vec::new())).unwrap());
        }
        for &token in &tokens {
            assert!(t.try_reap(token).unwrap().is_ok());
        }
        assert!(t.is_empty());
    }

    #[test]
    fn recv_lifecycle() {
        let t = RequestTable::new();
        let r = t.new_recv(16);
        assert_eq!(t.is_done(r), Some(false));
        assert!(t.try_reap(r).is_none(), "pending requests are not reaped");
        assert_eq!(t.complete_recv(r, msg(vec![1, 2])), Some(true));
        assert_eq!(t.is_done(r), Some(true));
        let got = t.try_reap(r).unwrap().unwrap();
        assert_eq!(got.data, vec![1, 2]);
        assert_eq!(got.src, 3);
        assert_eq!(t.is_done(r), None, "reaped tokens are stale");
        assert!(t.is_empty());
    }

    #[test]
    fn bare_and_payload_receives_report_their_message() {
        let t = RequestTable::new();
        let bare = t.new_recv(0);
        let full = t.new_recv(8);
        let negative_tag = Message {
            data: Vec::new(),
            src: u32::MAX,
            tag: -7,
        };
        assert_eq!(t.complete_recv(bare, negative_tag.clone()), Some(true));
        assert_eq!(t.complete_recv(full, msg(vec![5; 8])), Some(true));
        assert_eq!(t.try_reap(bare), Some(Ok(negative_tag)));
        assert_eq!(t.try_reap(full), Some(Ok(msg(vec![5; 8]))));
        // The recycled slots forget the payload: a bare receive that
        // lands on either reports empty data.
        let again: Vec<_> = (0..2).map(|_| t.new_recv(0)).collect();
        for &r in &again {
            assert_eq!(t.complete_recv(r, msg(Vec::new())), Some(true));
            assert_eq!(t.try_reap(r), Some(Ok(msg(Vec::new()))));
        }
    }

    #[test]
    fn send_outcome_is_an_ack() {
        let t = RequestTable::new();
        let r = t.new_send(7, 9, None);
        assert!(t.complete_send(r));
        assert!(!t.complete_send(r), "completes once");
        let ack = t.try_reap(r).unwrap().unwrap();
        assert!(ack.data.is_empty());
        assert_eq!((ack.src, ack.tag), (7, 9));
    }

    #[test]
    fn cancel_fail_and_truncation_propagate() {
        let t = RequestTable::new();
        let r = t.new_recv(4);
        assert!(t.cancel(r));
        assert!(t.is_cancelled(r));
        assert_eq!(t.try_reap(r).unwrap().unwrap_err(), MpiError::Cancelled);
        let r = t.new_recv(4);
        assert!(t.fail(r, MpiError::InstanceFailed));
        assert!(!t.fail(r, MpiError::Cancelled), "the first failure wins");
        assert_eq!(
            t.try_reap(r).unwrap().unwrap_err(),
            MpiError::InstanceFailed
        );
        let r = t.new_recv(4);
        assert_eq!(t.complete_recv(r, msg(vec![0; 8])), Some(false));
        assert_eq!(t.is_done(r), Some(true), "truncation finishes the request");
        assert!(!t.cancel(r), "a truncated receive is no longer pending");
        assert_eq!(
            t.try_reap(r).unwrap().unwrap_err(),
            MpiError::Truncated {
                message_len: 8,
                capacity: 4
            }
        );
        assert!(t.is_empty());
    }

    #[test]
    fn claimed_completions_read_as_pending_to_waiters_and_finished_to_rivals() {
        let t = RequestTable::new();
        let r = t.new_recv(4);
        let (slot, generation) = t.claim(r).expect("a pending request is claimable");
        assert_eq!(t.is_done(r), Some(false), "claimed is not yet done");
        assert!(t.try_reap(r).is_none(), "claimed is not yet reapable");
        assert!(!t.complete_send(r));
        assert!(!t.cancel(r));
        assert!(!t.fail(r, MpiError::InstanceFailed));
        assert_eq!(t.complete_recv(r, msg(Vec::new())), None);
        assert!(!t.is_cancelled(r));
        slot.ident.store(ident(3, 4), Ordering::Relaxed);
        slot.publish(generation, COMPLETE);
        assert_eq!(t.is_done(r), Some(true));
        assert_eq!(t.try_reap(r), Some(Ok(msg(Vec::new()))));
    }

    #[test]
    fn stash_holds_rendezvous_payload() {
        let t = RequestTable::new();
        let r = t.new_send(0, 0, Some(vec![9; 100]));
        assert_eq!(t.take_stash(r).unwrap().len(), 100);
        assert!(t.take_stash(r).unwrap().is_empty(), "stash consumed once");
    }

    #[test]
    fn reaping_drops_an_untaken_stash() {
        let t = RequestTable::new();
        let r = t.new_send(0, 0, Some(vec![9; 100]));
        assert!(t.fail(r, MpiError::InstanceFailed));
        assert_eq!(t.try_reap(r), Some(Err(MpiError::InstanceFailed)));
        let next = t.new_send(0, 0, None);
        assert_eq!(r as u32, next as u32, "the slot is recycled");
        assert_eq!(t.take_stash(next), Some(Vec::new()));
    }

    #[test]
    fn stale_tokens_never_touch_the_next_occupant() {
        let t = RequestTable::new();
        let old = t.new_send(0, 0, None);
        assert!(t.complete_send(old));
        t.try_reap(old).unwrap().unwrap();
        let new = t.new_send(1, 2, Some(vec![5]));
        assert_eq!(old as u32, new as u32, "the slot is recycled");
        assert_ne!(old, new, "under a new generation");
        assert!(!t.complete_send(old));
        assert!(!t.cancel(old));
        assert!(!t.fail(old, MpiError::Cancelled));
        assert_eq!(t.complete_recv(old, msg(Vec::new())), None);
        assert_eq!(t.take_stash(old), None);
        assert_eq!(t.try_reap(old), Some(Err(MpiError::InvalidRequest(old))));
        assert_eq!(t.is_done(new), Some(false));
        assert_eq!(t.take_stash(new), Some(vec![5]));
    }

    #[test]
    fn stale_receive_completion_leaves_the_next_occupant_intact() {
        let t = RequestTable::new();
        let old = t.new_recv(64);
        assert!(t.cancel(old));
        assert_eq!(t.try_reap(old), Some(Err(MpiError::Cancelled)));
        let new = t.new_send(11, 12, None);
        assert_eq!(old as u32, new as u32, "the slot is recycled");
        let slot = t.slot_at(new as u32).unwrap();
        let before = (
            slot.ident.load(Ordering::Relaxed),
            slot.flags.load(Ordering::Relaxed),
        );
        assert_eq!(t.complete_recv(old, msg(vec![1; 32])), None);
        assert_eq!(t.complete_recv(old, msg(Vec::new())), None);
        assert_eq!(
            (
                slot.ident.load(Ordering::Relaxed),
                slot.flags.load(Ordering::Relaxed)
            ),
            before
        );
        assert!(t.complete_send(new));
        let ack = t.try_reap(new).unwrap().unwrap();
        assert_eq!((ack.data.len(), ack.src, ack.tag), (0, 11, 12));
    }

    #[test]
    fn len_is_exact_across_a_segment_boundary() {
        let t = RequestTable::new();
        let mut live: Vec<u64> = (0..FIRST_SEGMENT + 10).map(|_| t.new_recv(0)).collect();
        assert_eq!(t.len(), FIRST_SEGMENT + 10);
        // Reap every third request, straddling both segments.
        let mut kept = Vec::new();
        for (i, token) in live.drain(..).enumerate() {
            if i % 3 == 0 {
                assert!(t.cancel(token));
                assert!(t.try_reap(token).unwrap().is_err());
            } else {
                kept.push(token);
            }
        }
        assert_eq!(t.len(), kept.len());
        // Reallocate half of the freed slots, then reap the rest.
        let freed = FIRST_SEGMENT + 10 - kept.len();
        kept.extend((0..freed / 2).map(|_| t.new_send(0, 0, None)));
        assert_eq!(t.len(), kept.len());
        for (n, &token) in kept.iter().enumerate() {
            t.discard(token);
            assert_eq!(t.len(), kept.len() - n - 1);
        }
        assert!(t.is_empty());
        // Every slot is recycled before a new index is minted.
        let again: Vec<_> = (0..FIRST_SEGMENT + 10).map(|_| t.new_recv(0)).collect();
        assert_eq!(*t.minted.lock() as usize, FIRST_SEGMENT + 10);
        assert_eq!(t.len(), again.len());
    }

    #[test]
    fn free_stack_tag_advances_on_every_push_and_pop() {
        let t = RequestTable::new();
        let a = t.new_recv(0);
        assert_eq!(
            t.free_head.load(Ordering::Relaxed),
            0,
            "minting pushes nothing"
        );
        t.discard(a);
        let pushed = t.free_head.load(Ordering::Relaxed);
        assert_eq!(pushed, TAG_ONE | (a as u32 as u64 + 1));
        let b = t.new_recv(0);
        assert_eq!(a as u32, b as u32);
        assert_eq!(t.free_head.load(Ordering::Relaxed), 2 * TAG_ONE);
        // The tag wraps without disturbing the link.
        assert_eq!(next_head(!LINK_MASK, 5), 5);
    }

    #[test]
    fn unissued_tokens_are_invalid() {
        let t = RequestTable::new();
        assert_eq!(t.is_done(1 << 32), None);
        assert_eq!(
            t.try_reap(u64::MAX),
            Some(Err(MpiError::InvalidRequest(u64::MAX)))
        );
    }

    #[test]
    fn generations_wrap_past_zero() {
        assert_eq!(next_generation(1), 2);
        assert_eq!(next_generation(u32::MAX as u64), 1);
        let word = state_word(u32::MAX as u64, CLAIMED);
        assert_eq!(word >> STATUS_BITS, u32::MAX as u64);
        assert_eq!(word & STATUS_MASK, CLAIMED);
    }
}
