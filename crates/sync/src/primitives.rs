//! Locks and condition variables with native, traced, and model backends.
//!
//! The native path is `std::sync` with parking-lot ergonomics: poisoning
//! is swallowed (a panicking holder does not wedge the runtime) and
//! `try_lock` returns an `Option`. The traced path adds latency/hold
//! bookkeeping for locks that were given a name. The model path routes
//! acquire/release through the deterministic scheduler in [`crate::model`]
//! whenever the current thread belongs to a model execution.

use std::sync::PoisonError;

#[cfg(feature = "traced")]
use fairmpi_trace as trace;

fn unpoison<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(|e| e.into_inner())
}

/// Per-lock name storage: a user-supplied label plus the per-session
/// interned trace id. Compiled to a ZST when tracing is off.
#[cfg(feature = "traced")]
#[derive(Debug, Default)]
struct TraceName {
    name: Option<String>,
    cache: trace::NameCache,
}

#[cfg(not(feature = "traced"))]
#[derive(Debug, Default)]
struct TraceName;

impl TraceName {
    #[cfg(feature = "traced")]
    fn anon() -> Self {
        Self::default()
    }

    #[cfg(not(feature = "traced"))]
    fn anon() -> Self {
        Self
    }

    #[cfg(feature = "traced")]
    fn named(make: impl FnOnce() -> String) -> Self {
        Self {
            name: Some(make()),
            cache: trace::NameCache::new(),
        }
    }

    #[cfg(not(feature = "traced"))]
    fn named(_make: impl FnOnce() -> String) -> Self {
        Self
    }

    #[cfg(feature = "traced")]
    fn id(&self) -> Option<trace::NameId> {
        let name = self.name.as_ref()?;
        self.cache.get(|| name.clone())
    }
}

/// `(name, acquired_at)` carried by a guard so its drop can report hold
/// time. `()` when tracing is compiled out.
#[cfg(feature = "traced")]
type TraceAcquired = Option<(trace::NameId, u64)>;
#[cfg(not(feature = "traced"))]
type TraceAcquired = ();

#[cfg(feature = "traced")]
fn no_acquired() -> TraceAcquired {
    None
}
#[cfg(not(feature = "traced"))]
fn no_acquired() -> TraceAcquired {}

#[cfg(feature = "traced")]
fn release_trace(acquired: &mut TraceAcquired) {
    if let Some((name, at)) = acquired.take() {
        trace::lock_released(name, trace::now_ns().saturating_sub(at));
    }
}
#[cfg(not(feature = "traced"))]
fn release_trace(_acquired: &mut TraceAcquired) {}

/// Non-blocking acquisition, implemented by [`Mutex`] (its guard) and
/// [`RwLock`] (its write guard). Algorithm 2's "if a try-lock fails, some
/// other thread is already progressing that path" idiom is written once
/// against this trait.
pub trait TryLock {
    /// Guard proving the acquisition.
    type Guard<'a>
    where
        Self: 'a;

    /// Attempt the acquisition without blocking.
    fn try_lock(&self) -> Option<Self::Guard<'_>>;
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Mutual exclusion with facade semantics (no poisoning, optional trace
/// name, model-checkable).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    #[cfg_attr(not(feature = "traced"), allow(dead_code))]
    name: TraceName,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// New unnamed mutex. Unnamed locks never appear in traces.
    pub fn new(value: T) -> Self {
        Self {
            name: TraceName::anon(),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// New named mutex. Under the `traced` backend the name labels this
    /// lock's acquire/contention events; the closure is only evaluated
    /// when tracing is compiled in.
    pub fn named(value: T, name: impl FnOnce() -> String) -> Self {
        Self {
            name: TraceName::named(name),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the value.
    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    #[cfg_attr(not(feature = "model"), allow(dead_code))]
    fn addr(&self) -> usize {
        self as *const Self as *const () as usize
    }

    /// Acquire, blocking on contention.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "model")]
        if crate::model::mutex_lock(self.addr()) {
            return MutexGuard {
                lock: self,
                inner: Some(unpoison(self.inner.lock())),
                acquired: no_acquired(),
                modeled: true,
            };
        }
        #[cfg(feature = "traced")]
        if let Some(name) = self.name.id() {
            let from = trace::now_ns();
            let inner = unpoison(self.inner.lock());
            let at = trace::now_ns();
            trace::lock_acquired(name, at.saturating_sub(from));
            return MutexGuard {
                lock: self,
                inner: Some(inner),
                acquired: Some((name, at)),
                modeled: false,
            };
        }
        MutexGuard {
            lock: self,
            inner: Some(unpoison(self.inner.lock())),
            acquired: no_acquired(),
            modeled: false,
        }
    }

    /// Attempt to acquire without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        #[cfg(feature = "model")]
        if let Some(granted) = crate::model::mutex_try_lock(self.addr()) {
            if !granted {
                return None;
            }
            return Some(MutexGuard {
                lock: self,
                inner: Some(unpoison(self.inner.lock())),
                acquired: no_acquired(),
                modeled: true,
            });
        }
        match self.inner.try_lock() {
            Ok(inner) => {
                #[cfg(feature = "traced")]
                if let Some(name) = self.name.id() {
                    trace::lock_acquired(name, 0);
                    return Some(MutexGuard {
                        lock: self,
                        inner: Some(inner),
                        acquired: Some((name, trace::now_ns())),
                        modeled: false,
                    });
                }
                Some(MutexGuard {
                    lock: self,
                    inner: Some(inner),
                    acquired: no_acquired(),
                    modeled: false,
                })
            }
            Err(std::sync::TryLockError::Poisoned(poisoned)) => Some(MutexGuard {
                lock: self,
                inner: Some(poisoned.into_inner()),
                acquired: no_acquired(),
                modeled: false,
            }),
            Err(std::sync::TryLockError::WouldBlock) => {
                #[cfg(feature = "traced")]
                if let Some(name) = self.name.id() {
                    trace::try_lock_fail(name);
                }
                None
            }
        }
    }

    /// Direct access through an exclusive borrow.
    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.inner.get_mut())
    }
}

impl<T: ?Sized> TryLock for Mutex<T> {
    type Guard<'a>
        = MutexGuard<'a, T>
    where
        T: 'a;

    fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        Mutex::try_lock(self)
    }
}

/// Guard for [`Mutex`]; releases (and reports, and notifies the model
/// scheduler) on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    acquired: TraceAcquired,
    #[cfg_attr(not(feature = "model"), allow(dead_code))]
    modeled: bool,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard still holds the lock")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard still holds the lock")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        release_trace(&mut self.acquired);
        let _ = self.inner.take();
        #[cfg(feature = "model")]
        if self.modeled {
            crate::model::mutex_release(self.lock.addr());
        }
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// Reader-writer lock with facade semantics.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    #[cfg_attr(not(feature = "traced"), allow(dead_code))]
    name: TraceName,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// New unnamed rwlock.
    pub fn new(value: T) -> Self {
        Self {
            name: TraceName::anon(),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// New named rwlock (see [`Mutex::named`]).
    pub fn named(value: T, name: impl FnOnce() -> String) -> Self {
        Self {
            name: TraceName::named(name),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    #[cfg_attr(not(feature = "model"), allow(dead_code))]
    fn addr(&self) -> usize {
        self as *const Self as *const () as usize
    }

    /// Acquire shared access, blocking on a writer.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(feature = "model")]
        if crate::model::rw_read(self.addr()) {
            return RwLockReadGuard {
                lock: self,
                inner: Some(unpoison(self.inner.read())),
                acquired: no_acquired(),
                modeled: true,
            };
        }
        #[cfg(feature = "traced")]
        if let Some(name) = self.name.id() {
            let from = trace::now_ns();
            let inner = unpoison(self.inner.read());
            let at = trace::now_ns();
            trace::lock_acquired(name, at.saturating_sub(from));
            return RwLockReadGuard {
                lock: self,
                inner: Some(inner),
                acquired: Some((name, at)),
                modeled: false,
            };
        }
        RwLockReadGuard {
            lock: self,
            inner: Some(unpoison(self.inner.read())),
            acquired: no_acquired(),
            modeled: false,
        }
    }

    /// Acquire exclusive access, blocking on any holder.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(feature = "model")]
        if crate::model::rw_write(self.addr()) {
            return RwLockWriteGuard {
                lock: self,
                inner: Some(unpoison(self.inner.write())),
                acquired: no_acquired(),
                modeled: true,
            };
        }
        #[cfg(feature = "traced")]
        if let Some(name) = self.name.id() {
            let from = trace::now_ns();
            let inner = unpoison(self.inner.write());
            let at = trace::now_ns();
            trace::lock_acquired(name, at.saturating_sub(from));
            return RwLockWriteGuard {
                lock: self,
                inner: Some(inner),
                acquired: Some((name, at)),
                modeled: false,
            };
        }
        RwLockWriteGuard {
            lock: self,
            inner: Some(unpoison(self.inner.write())),
            acquired: no_acquired(),
            modeled: false,
        }
    }

    /// Attempt shared access without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        #[cfg(feature = "model")]
        if let Some(granted) = crate::model::rw_try_read(self.addr()) {
            if !granted {
                return None;
            }
            return Some(RwLockReadGuard {
                lock: self,
                inner: Some(unpoison(self.inner.read())),
                acquired: no_acquired(),
                modeled: true,
            });
        }
        match self.inner.try_read() {
            Ok(inner) => Some(RwLockReadGuard {
                lock: self,
                inner: Some(inner),
                acquired: no_acquired(),
                modeled: false,
            }),
            Err(std::sync::TryLockError::Poisoned(poisoned)) => Some(RwLockReadGuard {
                lock: self,
                inner: Some(poisoned.into_inner()),
                acquired: no_acquired(),
                modeled: false,
            }),
            Err(std::sync::TryLockError::WouldBlock) => {
                #[cfg(feature = "traced")]
                if let Some(name) = self.name.id() {
                    trace::try_lock_fail(name);
                }
                None
            }
        }
    }

    /// Attempt exclusive access without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        #[cfg(feature = "model")]
        if let Some(granted) = crate::model::rw_try_write(self.addr()) {
            if !granted {
                return None;
            }
            return Some(RwLockWriteGuard {
                lock: self,
                inner: Some(unpoison(self.inner.write())),
                acquired: no_acquired(),
                modeled: true,
            });
        }
        match self.inner.try_write() {
            Ok(inner) => Some(RwLockWriteGuard {
                lock: self,
                inner: Some(inner),
                acquired: no_acquired(),
                modeled: false,
            }),
            Err(std::sync::TryLockError::Poisoned(poisoned)) => Some(RwLockWriteGuard {
                lock: self,
                inner: Some(poisoned.into_inner()),
                acquired: no_acquired(),
                modeled: false,
            }),
            Err(std::sync::TryLockError::WouldBlock) => {
                #[cfg(feature = "traced")]
                if let Some(name) = self.name.id() {
                    trace::try_lock_fail(name);
                }
                None
            }
        }
    }

    /// Direct access through an exclusive borrow.
    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.inner.get_mut())
    }
}

impl<T: ?Sized> TryLock for RwLock<T> {
    type Guard<'a>
        = RwLockWriteGuard<'a, T>
    where
        T: 'a;

    fn try_lock(&self) -> Option<RwLockWriteGuard<'_, T>> {
        self.try_write()
    }
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    #[cfg_attr(not(feature = "model"), allow(dead_code))]
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    acquired: TraceAcquired,
    #[cfg_attr(not(feature = "model"), allow(dead_code))]
    modeled: bool,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard still holds the lock")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        release_trace(&mut self.acquired);
        let _ = self.inner.take();
        #[cfg(feature = "model")]
        if self.modeled {
            crate::model::rw_release_read(self.lock.addr());
        }
    }
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    #[cfg_attr(not(feature = "model"), allow(dead_code))]
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    acquired: TraceAcquired,
    #[cfg_attr(not(feature = "model"), allow(dead_code))]
    modeled: bool,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard still holds the lock")
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard still holds the lock")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        release_trace(&mut self.acquired);
        let _ = self.inner.take();
        #[cfg(feature = "model")]
        if self.modeled {
            crate::model::rw_release_write(self.lock.addr());
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Condition variable paired with [`Mutex`].
///
/// The model backend implements atomic release-and-wait with no spurious
/// wakeups, so a lost-notify bug manifests as a deterministic deadlock
/// rather than a flaky hang.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// New condition variable.
    pub fn new() -> Self {
        Self::default()
    }

    #[cfg(feature = "model")]
    fn addr(&self) -> usize {
        self as *const Self as usize
    }

    /// Atomically release the guard and wait for a notification, then
    /// re-acquire before returning.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let lock = guard.lock;
        #[cfg(feature = "model")]
        if guard.modeled {
            let _ = guard.inner.take();
            guard.modeled = false; // the model release is folded into cond_wait
            drop(guard);
            crate::model::cond_wait(self.addr(), lock.addr());
            return MutexGuard {
                lock,
                inner: Some(unpoison(lock.inner.lock())),
                acquired: no_acquired(),
                modeled: true,
            };
        }
        let std_guard = guard.inner.take().expect("guard still holds the lock");
        release_trace(&mut guard.acquired);
        drop(guard);
        let reacquired = unpoison(self.inner.wait(std_guard));
        #[cfg(feature = "traced")]
        if let Some(name) = lock.name.id() {
            trace::lock_acquired(name, 0);
            return MutexGuard {
                lock,
                inner: Some(reacquired),
                acquired: Some((name, trace::now_ns())),
                modeled: false,
            };
        }
        MutexGuard {
            lock,
            inner: Some(reacquired),
            acquired: no_acquired(),
            modeled: false,
        }
    }

    /// Wait until `condition` returns false (mirrors
    /// `std::sync::Condvar::wait_while`).
    pub fn wait_while<'a, T, F>(
        &self,
        mut guard: MutexGuard<'a, T>,
        mut condition: F,
    ) -> MutexGuard<'a, T>
    where
        F: FnMut(&mut T) -> bool,
    {
        while condition(&mut guard) {
            guard = self.wait(guard);
        }
        guard
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        #[cfg(feature = "model")]
        if crate::model::cond_notify(self.addr(), false) {
            return;
        }
        self.inner.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        #[cfg(feature = "model")]
        if crate::model::cond_notify(self.addr(), true) {
            return;
        }
        self.inner.notify_all();
    }
}
