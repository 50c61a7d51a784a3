//! Per-thread counter shards and the thread-local cache that finds them.
//!
//! Every thread that updates an [`crate::SpcSet`] owns one [`Shard`]: a
//! cache-aligned block holding one value per [`Counter`]. Only the owning
//! thread writes its block, so an update is a relaxed load and a relaxed
//! store with no lock prefix, and no two threads ever write the same line.
//! Readers sum every shard of the set.
//!
//! A set keeps its shards in an append-only, lock-free list; a shard lives
//! until its set drops, so the counts of exited threads keep counting.
//! Each thread remembers the shards it owns in a small cache keyed by the
//! list's id. A list draws its id at its first registration, so building
//! a set touches no shared state, and ids are never reused, so a cache
//! entry left behind by a dropped set can never match again.

use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use crate::Counter;

/// One thread's private block of counter values.
#[repr(align(128))]
pub(crate) struct Shard {
    values: [AtomicU64; Counter::COUNT],
    /// Token of the one thread that writes `values`.
    owner: u64,
    /// The shard registered before this one; fixed before publication.
    next: *mut Shard,
}

impl Shard {
    /// Add `delta`, wrapping like `fetch_add`. Owner thread only.
    #[inline]
    pub(crate) fn add(&self, counter: Counter, delta: u64) {
        let v = &self.values[counter.index()];
        v.store(
            v.load(Ordering::Relaxed).wrapping_add(delta),
            Ordering::Relaxed,
        );
    }

    /// Add `delta`, pinning at `u64::MAX`. Owner thread only.
    #[inline]
    pub(crate) fn add_saturating(&self, counter: Counter, delta: u64) {
        let v = &self.values[counter.index()];
        v.store(
            v.load(Ordering::Relaxed).saturating_add(delta),
            Ordering::Relaxed,
        );
    }
}

/// The shards of one set, newest first.
pub(crate) struct ShardList {
    /// Key of this list in every thread's cache, drawn at the first
    /// registration (0 until then) and never reused.
    id: AtomicU64,
    head: AtomicPtr<Shard>,
}

impl ShardList {
    /// An empty list. Touches no shared state: the id and the shards
    /// appear on the first update.
    pub(crate) const fn new() -> Self {
        Self {
            id: AtomicU64::new(0),
            head: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// The calling thread's shard, registered on the thread's first update.
    #[inline]
    pub(crate) fn local(&self) -> &Shard {
        let id = self.id.load(Ordering::Relaxed);
        let cached = CACHE.with(|c| {
            c.ways.iter().find_map(|way| {
                let (list, shard) = way.get();
                (list == id).then_some(shard)
            })
        });
        match cached {
            // SAFETY: only `register` fills a way, with this list's drawn
            // id (never 0, never reused, never `EMPTY`) and a shard of this
            // list, which lives as long as `&self`.
            Some(shard) => unsafe { &*shard },
            None => self.register(),
        }
    }

    /// Slow path of [`local`](Self::local): find this thread's shard (the
    /// cache may have evicted it) or publish a new one, then cache it.
    #[cold]
    #[inline(never)]
    fn register(&self) -> &Shard {
        #[cfg(test)]
        REGISTRATIONS.with(|n| n.set(n.get() + 1));
        let id = match self.id.load(Ordering::Relaxed) {
            0 => {
                let fresh = NEXT_ID.fetch_add(1, Ordering::Relaxed);
                match self
                    .id
                    .compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => fresh,
                    Err(drawn) => drawn,
                }
            }
            id => id,
        };
        CACHE.with(|c| {
            let thread = match c.thread.get() {
                0 => {
                    let token = NEXT_ID.fetch_add(1, Ordering::Relaxed);
                    c.thread.set(token);
                    token
                }
                token => token,
            };
            let shard = match self.iter().find(|s| s.owner == thread) {
                Some(s) => s as *const Shard,
                None => self.push(thread),
            };
            for i in (1..CACHE_WAYS).rev() {
                c.ways[i].set(c.ways[i - 1].get());
            }
            c.ways[0].set((id, shard));
            // SAFETY: `shard` is in this list, which outlives the borrow.
            unsafe { &*shard }
        })
    }

    /// Number of shards registered so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.iter().count()
    }

    /// One counter summed over every shard, saturating.
    pub(crate) fn sum(&self, counter: usize) -> u64 {
        self.iter().fold(0, |sum: u64, shard| {
            sum.saturating_add(shard.values[counter].load(Ordering::Relaxed))
        })
    }

    /// Every counter summed over every shard, saturating.
    pub(crate) fn sums(&self) -> [u64; Counter::COUNT] {
        let mut sums = [0u64; Counter::COUNT];
        for shard in self.iter() {
            for (sum, v) in sums.iter_mut().zip(&shard.values) {
                *sum = sum.saturating_add(v.load(Ordering::Relaxed));
            }
        }
        sums
    }

    /// Every shard registered so far.
    fn iter(&self) -> impl Iterator<Item = &Shard> {
        let mut next = self.head.load(Ordering::Acquire);
        std::iter::from_fn(move || {
            // SAFETY: a published shard is fully initialised (the Release
            // CAS in `push` pairs with the Acquire load above) and stays
            // allocated until the list drops, which `&self` rules out.
            let shard = unsafe { next.as_ref() }?;
            next = shard.next;
            Some(shard)
        })
    }

    /// Publish a zeroed shard owned by `owner`.
    fn push(&self, owner: u64) -> *const Shard {
        let shard = Box::into_raw(Box::new(Shard {
            values: [const { AtomicU64::new(0) }; Counter::COUNT],
            owner,
            next: ptr::null_mut(),
        }));
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: `shard` is unpublished, so this thread owns it.
            unsafe { (*shard).next = head };
            match self
                .head
                .compare_exchange_weak(head, shard, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return shard,
                Err(current) => head = current,
            }
        }
    }
}

impl Drop for ShardList {
    fn drop(&mut self) {
        let mut next = *self.head.get_mut();
        while !next.is_null() {
            // SAFETY: every shard came from `Box::into_raw` in `push`, and
            // `&mut self` means no thread still reads it.
            let shard = unsafe { Box::from_raw(next) };
            next = shard.next;
        }
    }
}

/// Lists a thread remembers at once: enough for one thread that drives a
/// few ranks of a multi-rank world in turn.
const CACHE_WAYS: usize = 4;

/// A thread's map from list id to the shard it owns in that list.
struct ShardCache {
    /// This thread's token; 0 until its first registration.
    thread: Cell<u64>,
    /// `(list id, shard)`, most recently registered first. An empty way
    /// holds `EMPTY`, which no list id ever equals (an unregistered list's
    /// 0 included).
    ways: [Cell<(u64, *const Shard)>; CACHE_WAYS],
}

thread_local! {
    static CACHE: ShardCache = const {
        ShardCache {
            thread: Cell::new(0),
            ways: [const { Cell::new((EMPTY, ptr::null())) }; CACHE_WAYS],
        }
    };
}

/// Source of list ids and thread tokens, from 1 up.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The id of an empty cache way.
const EMPTY: u64 = u64::MAX;

#[cfg(test)]
thread_local! {
    /// Slow-path entries on this thread, for the fast-path tests.
    pub(crate) static REGISTRATIONS: Cell<u64> = const { Cell::new(0) };
}
