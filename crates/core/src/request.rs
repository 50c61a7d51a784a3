//! Requests: the handles behind nonblocking operations, and the slab of
//! recycled slots that holds their state.
//!
//! A request lives in one slot of a [`RequestTable`]. Its token is
//! `generation << 32 | index`: the index locates the slot, the generation
//! tells this occupant of the slot apart from every earlier and later one.
//! Each slot carries one atomic word, `generation << 2 | status`. Every
//! completion is a compare-and-swap from `(generation, PENDING)`, so only
//! the first completion of the token's own occupant lands. Reaping a
//! finished request is one compare-and-swap that claims the outcome and
//! advances the generation in the same step: a racing second reaper, a
//! clone of the handle, or a late completion of the old token then finds a
//! generation that is no longer its own and resolves to
//! [`MpiError::InvalidRequest`] instead of touching the slot's next
//! occupant.

use std::sync::OnceLock;

use fairmpi_sync::atomic::{AtomicU64, Ordering};
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

impl Message {
    /// The acknowledgment returned when waiting on a *send* request.
    pub(crate) fn send_ack(src: Rank, tag: Tag) -> Self {
        Self {
            data: Vec::new(),
            src,
            tag,
        }
    }
}

/// Opaque handle to a pending nonblocking operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Request {
    pub(crate) token: u64,
}

/// What a request is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqKind {
    Send,
    Recv,
}

const PENDING: u64 = 0;
const COMPLETE: u64 = 1;
const CANCELLED: u64 = 2;
const FAILED: u64 = 3;
const STATUS_MASK: u64 = 0b11;

fn state_word(generation: u64, status: u64) -> u64 {
    generation << 2 | status
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

/// Everything about a request except its status word. Written at
/// allocation, at completion and at reap, each under the slot's lock.
#[derive(Debug)]
struct Body {
    kind: ReqKind,
    /// Receive-buffer capacity (recv requests only).
    capacity: usize,
    /// Identity of the requester, for send acks.
    src: Rank,
    tag: Tag,
    /// Completed message (recv): written by the completion that won.
    payload: Option<Message>,
    /// Rendezvous send payload parked until the CTS arrives.
    stash: Option<Vec<u8>>,
    /// Failure cause: written by the failure that won.
    error: Option<MpiError>,
}

#[derive(Debug)]
struct Slot {
    /// `generation << 2 | status`.
    state: AtomicU64,
    body: Mutex<Body>,
}

impl Slot {
    fn new() -> Self {
        Self {
            state: AtomicU64::new(state_word(1, PENDING)),
            body: Mutex::new(Body {
                kind: ReqKind::Send,
                capacity: 0,
                src: 0,
                tag: 0,
                payload: None,
                stash: None,
                error: None,
            }),
        }
    }

    /// Move the occupant of `generation` from pending to `status`. Fails
    /// when the request already finished or the slot moved on.
    fn finish(&self, generation: u64, status: u64) -> bool {
        self.state
            .compare_exchange(
                state_word(generation, PENDING),
                state_word(generation, status),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
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

/// Slot indices not currently handed out.
#[derive(Debug, Default)]
struct FreeList {
    recycled: Vec<u32>,
    /// Indices handed out at least once: `0..minted`.
    minted: u32,
}

/// The per-rank table of live requests: a slab of recycled slots.
///
/// Slots live in append-only segments of doubling size, so a token
/// resolves to its slot with an index computation and one atomic load —
/// no lock, no hash, no reference count. A free list hands indices out
/// and takes them back at reap. See the module documentation for the
/// token format and the generation rule.
#[doc(hidden)]
#[derive(Debug)]
pub struct RequestTable {
    segments: [OnceLock<Box<[Slot]>>; SEGMENTS],
    free: Mutex<FreeList>,
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
            free: Mutex::new(FreeList::default()),
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

    /// Take a free slot, fill in its body and return the token of its
    /// current (pending) generation.
    fn alloc(&self, fill: impl FnOnce(&mut Body)) -> u64 {
        let index = {
            let mut free = self.free.lock();
            match free.recycled.pop() {
                Some(index) => index,
                None => {
                    let index = free.minted;
                    let (segment, _) = locate(index);
                    assert!(segment < SEGMENTS, "request table exhausted");
                    // Segments only grow under the free-list lock, so at
                    // most one thread ever initialises a segment.
                    self.segments[segment].get_or_init(|| {
                        (0..FIRST_SEGMENT << segment).map(|_| Slot::new()).collect()
                    });
                    free.minted += 1;
                    index
                }
            }
        };
        let slot = self.slot_at(index).expect("allocated slots exist");
        fill(&mut slot.body.lock());
        let generation = slot.state.load(Ordering::Acquire) >> 2;
        generation << 32 | index as u64
    }

    /// Register a new send request; `stash` carries the payload for
    /// rendezvous sends (None for eager).
    pub fn new_send(&self, src: Rank, tag: Tag, stash: Option<Vec<u8>>) -> u64 {
        self.alloc(|body| {
            body.kind = ReqKind::Send;
            body.capacity = 0;
            body.src = src;
            body.tag = tag;
            body.stash = stash;
        })
    }

    /// Register a new receive request with the given buffer capacity.
    pub fn new_recv(&self, capacity: usize) -> u64 {
        self.alloc(|body| {
            body.kind = ReqKind::Recv;
            body.capacity = capacity;
        })
    }

    /// Whether the request has finished: `Some(false)` while pending,
    /// `None` once the token is stale (reaped, or never issued).
    pub fn is_done(&self, token: u64) -> Option<bool> {
        let (slot, generation) = self.slot(token)?;
        let state = slot.state.load(Ordering::Acquire);
        (state >> 2 == generation).then_some(state & STATUS_MASK != PENDING)
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
            .is_some_and(|(slot, generation)| slot.finish(generation, COMPLETE))
    }

    /// Cancel a pending request.
    pub(crate) fn cancel(&self, token: u64) -> bool {
        self.slot(token)
            .is_some_and(|(slot, generation)| slot.finish(generation, CANCELLED))
    }

    /// Fail a pending request with `err`.
    pub(crate) fn fail(&self, token: u64, err: MpiError) -> bool {
        let Some((slot, generation)) = self.slot(token) else {
            return false;
        };
        // The status flips under the body lock, so a reaper that saw it
        // finds the error in place once it gets the lock.
        let mut body = slot.body.lock();
        let won = slot.finish(generation, FAILED);
        if won {
            body.error = Some(err);
        }
        won
    }

    /// Complete a receive request with `msg`. `Some(true)` when the
    /// message fit and completed the request; `Some(false)` when it did
    /// not fit and failed the request with [`MpiError::Truncated`]; `None`
    /// when the token is stale or the request already finished.
    pub fn complete_recv(&self, token: u64, msg: Message) -> Option<bool> {
        let (slot, generation) = self.slot(token)?;
        let mut body = slot.body.lock();
        let fits = msg.data.len() <= body.capacity;
        let status = if fits { COMPLETE } else { FAILED };
        if !slot.finish(generation, status) {
            return None;
        }
        if fits {
            body.payload = Some(msg);
        } else {
            body.error = Some(MpiError::Truncated {
                message_len: msg.data.len(),
                capacity: body.capacity,
            });
        }
        Some(fits)
    }

    /// Take a rendezvous send's parked payload (once). `None` when the
    /// token is stale.
    pub(crate) fn take_stash(&self, token: u64) -> Option<Vec<u8>> {
        let (slot, generation) = self.slot(token)?;
        let mut body = slot.body.lock();
        if slot.state.load(Ordering::Acquire) >> 2 != generation {
            return None;
        }
        Some(body.stash.take().unwrap_or_default())
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
        if state >> 2 != generation {
            return stale;
        }
        let status = state & STATUS_MASK;
        if status == PENDING {
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
                Ordering::Acquire,
            )
            .is_err()
        {
            return stale;
        }
        let outcome = {
            let mut body = slot.body.lock();
            body.stash = None;
            let payload = body.payload.take();
            let error = body.error.take();
            match (status, body.kind) {
                (COMPLETE, ReqKind::Recv) => {
                    Ok(payload.expect("a completed recv carries its message"))
                }
                (COMPLETE, ReqKind::Send) => Ok(Message::send_ack(body.src, body.tag)),
                (CANCELLED, _) => Err(MpiError::Cancelled),
                _ => Err(error.expect("a failed request carries its error")),
            }
        };
        self.free.lock().recycled.push(token as u32);
        Some(outcome)
    }

    /// Number of live requests (diagnostics).
    pub fn len(&self) -> usize {
        let free = self.free.lock();
        free.minted as usize - free.recycled.len()
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
        assert_eq!(
            t.try_reap(r).unwrap().unwrap_err(),
            MpiError::Truncated {
                message_len: 8,
                capacity: 4
            }
        );
    }

    #[test]
    fn stash_holds_rendezvous_payload() {
        let t = RequestTable::new();
        let r = t.new_send(0, 0, Some(vec![9; 100]));
        assert_eq!(t.take_stash(r).unwrap().len(), 100);
        assert!(t.take_stash(r).unwrap().is_empty(), "stash consumed once");
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
    }
}
