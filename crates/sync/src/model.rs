//! Deterministic interleaving exploration for the facade primitives.
//!
//! A *model execution* runs a test closure on real OS threads that are
//! **serialized** by a cooperative scheduler: at every facade operation
//! (lock, try-lock, unlock-wakeup, condvar, atomic access, spawn, join,
//! [`yield_now`]) the running thread hands control to the scheduler,
//! which decides who runs next. A whole execution is therefore described
//! by the sequence of thread ids chosen at each decision point — the
//! *schedule* — and re-running the closure under the same schedule
//! reproduces the same interleaving exactly (closures must be
//! deterministic apart from scheduling: no wall-clock, no OS entropy).
//!
//! [`Checker::check`] explores schedules depth-first under a *preemption
//! bound* à la CHESS: a context switch taken while the previously running
//! thread was still runnable counts as a preemption, and only schedules
//! with at most `preemption_bound` of them are enumerated. Empirically a
//! tiny bound (the default is 2) exposes almost all interleaving bugs
//! while keeping the schedule count polynomial instead of exponential.
//!
//! The model is **sequentially consistent**: serialized threads perform
//! the real operations in schedule order, so `Ordering` arguments are
//! ignored. Algorithmic races (lost wakeups, check-then-act, ticket
//! races) are in scope; weak-memory reorderings are not.
//!
//! On an assertion failure or deadlock the checker reports a
//! [`Counterexample`] carrying the exact schedule, which
//! [`Checker::replay`] re-executes for debugging.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, Once};

/// Panic payload used to unwind threads out of an aborted execution.
/// Never observed outside this module.
struct ModelAbort;

fn abort_panic() -> ! {
    std::panic::panic_any(ModelAbort)
}

// ---------------------------------------------------------------------------
// Thread-local execution context
// ---------------------------------------------------------------------------

thread_local! {
    static CONTEXT: std::cell::RefCell<Option<(Arc<Execution>, usize)>> =
        const { std::cell::RefCell::new(None) };
    /// Marks threads owned by a model execution so the panic hook can
    /// silence their (expected, captured) unwinds.
    static IN_MODEL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn context() -> Option<(Arc<Execution>, usize)> {
    CONTEXT.with(|c| c.borrow().clone())
}

fn set_context(exec: Arc<Execution>, id: usize) {
    CONTEXT.with(|c| *c.borrow_mut() = Some((exec, id)));
    IN_MODEL.with(|f| f.set(true));
}

/// Install (once per process) a panic hook that suppresses the default
/// stderr spew for panics on model threads: those panics are expected —
/// they are either [`ModelAbort`] teardown or assertion failures whose
/// message is captured into the [`Counterexample`].
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if IN_MODEL.with(|f| f.get()) {
                return;
            }
            previous(info);
        }));
    });
}

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Block {
    /// Waiting for exclusive acquisition of the lock at this address.
    Excl(usize),
    /// Waiting for shared acquisition of the lock at this address.
    Shared(usize),
    /// Waiting on the condition variable at this address.
    Cond(usize),
    /// Waiting for the thread with this id to finish.
    Join(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ThreadState {
    Runnable,
    Blocked(Block),
    Finished,
}

#[derive(Default)]
struct LockState {
    writer: bool,
    readers: usize,
}

/// One scheduling decision: which thread the `maker` handed control to,
/// out of which runnable set. The runnable set is recorded (sorted
/// ascending by construction) so the DFS can enumerate the untaken
/// branches later.
#[derive(Clone, Debug)]
struct Step {
    maker: usize,
    runnable: Vec<usize>,
    chosen: usize,
}

fn is_preemption(step: &Step, chosen: usize) -> bool {
    chosen != step.maker && step.runnable.contains(&step.maker)
}

/// Branch enumeration order at a decision point: continuing the current
/// thread first (zero preemptions), then the others by ascending id.
fn canonical_order(step: &Step) -> Vec<usize> {
    let mut order = Vec::with_capacity(step.runnable.len());
    if step.runnable.contains(&step.maker) {
        order.push(step.maker);
    }
    order.extend(step.runnable.iter().copied().filter(|&t| t != step.maker));
    order
}

struct ExecInner {
    threads: Vec<ThreadState>,
    /// The single thread currently granted the right to run.
    current: Option<usize>,
    abort: bool,
    failure: Option<String>,
    steps: Vec<Step>,
    /// Forced choices replayed from a previous execution (DFS prefix or
    /// an explicit schedule).
    prefix: Vec<usize>,
    max_depth: usize,
    locks: HashMap<usize, LockState>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ExecInner {
    /// Record a scheduling decision made by `maker` and grant the chosen
    /// thread. Returns `None` when no thread is runnable.
    fn decide(&mut self, maker: usize) -> Option<usize> {
        let runnable: Vec<usize> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, ThreadState::Runnable))
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            self.current = None;
            return None;
        }
        let step_idx = self.steps.len();
        let chosen = if step_idx < self.prefix.len() && runnable.contains(&self.prefix[step_idx]) {
            self.prefix[step_idx]
        } else if runnable.contains(&maker) {
            maker
        } else {
            runnable[0]
        };
        let step = Step {
            maker,
            runnable,
            chosen,
        };
        self.steps.push(step);
        self.current = Some(chosen);
        Some(chosen)
    }

    fn describe_blocked(&self) -> String {
        self.threads
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                ThreadState::Blocked(b) => Some(match b {
                    Block::Excl(a) => format!("thread {i} awaits lock {a:#x}"),
                    Block::Shared(a) => format!("thread {i} awaits shared lock {a:#x}"),
                    Block::Cond(a) => format!("thread {i} awaits condvar {a:#x}"),
                    Block::Join(t) => format!("thread {i} awaits join of thread {t}"),
                }),
                _ => None,
            })
            .collect::<Vec<_>>()
            .join("; ")
    }
}

pub(crate) struct Execution {
    m: StdMutex<ExecInner>,
    cv: StdCondvar,
}

type Guard<'a> = StdMutexGuard<'a, ExecInner>;

impl Execution {
    fn new(prefix: Vec<usize>, max_depth: usize) -> Self {
        Self {
            m: StdMutex::new(ExecInner {
                threads: vec![ThreadState::Runnable],
                current: Some(0),
                abort: false,
                failure: None,
                steps: Vec::new(),
                prefix,
                max_depth,
                locks: HashMap::new(),
                handles: Vec::new(),
            }),
            cv: StdCondvar::new(),
        }
    }

    fn lock_inner(&self) -> Guard<'_> {
        self.m.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn fail_and_abort(&self, mut g: Guard<'_>, message: String) -> ! {
        if g.failure.is_none() {
            g.failure = Some(message);
        }
        g.abort = true;
        self.cv.notify_all();
        drop(g);
        abort_panic()
    }

    /// A plain decision point: the running thread offers the scheduler a
    /// chance to switch.
    fn yield_at(&self, me: usize) {
        let g = self.lock_inner();
        if g.abort {
            drop(g);
            abort_panic();
        }
        let g = self.decide_and_wait(g, me);
        drop(g);
    }

    /// Make a decision while `me` is still runnable, then wait until the
    /// grant comes back to `me`. Returns with the state lock held.
    fn decide_and_wait<'a>(&'a self, mut g: Guard<'a>, me: usize) -> Guard<'a> {
        let chosen = g.decide(me).expect("the deciding thread is runnable");
        if g.steps.len() > g.max_depth {
            let depth = g.max_depth;
            self.fail_and_abort(
                g,
                format!("model: exceeded max schedule depth {depth} (possible livelock)"),
            );
        }
        if chosen != me {
            self.cv.notify_all();
            while g.current != Some(me) && !g.abort {
                g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
            }
            if g.abort {
                drop(g);
                abort_panic();
            }
        }
        g
    }

    /// Block `me` on `block`, hand control away, and wait to be woken
    /// *and* granted. Detects whole-execution deadlock. Returns with the
    /// state lock held.
    fn block_current<'a>(&'a self, mut g: Guard<'a>, me: usize, block: Block) -> Guard<'a> {
        g.threads[me] = ThreadState::Blocked(block);
        g.current = None;
        if g.decide(me).is_none() {
            let blocked = g.describe_blocked();
            self.fail_and_abort(g, format!("model: deadlock — {blocked}"));
        }
        self.cv.notify_all();
        while g.current != Some(me) && !g.abort {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        if g.abort {
            drop(g);
            abort_panic();
        }
        g
    }

    /// Blocking exclusive/shared acquisition of the lock object at `addr`.
    fn lock_acquire(&self, me: usize, addr: usize, shared: bool, initial_yield: bool) {
        if initial_yield {
            self.yield_at(me);
        }
        let mut g = self.lock_inner();
        if g.abort {
            drop(g);
            abort_panic();
        }
        loop {
            let state = g.locks.entry(addr).or_default();
            let available = if shared {
                !state.writer
            } else {
                !state.writer && state.readers == 0
            };
            if available {
                if shared {
                    state.readers += 1;
                } else {
                    state.writer = true;
                }
                return;
            }
            let block = if shared {
                Block::Shared(addr)
            } else {
                Block::Excl(addr)
            };
            // Being granted again after the wake *is* the scheduling
            // decision, so the retry re-checks availability immediately.
            g = self.block_current(g, me, block);
        }
    }

    /// Non-blocking acquisition attempt.
    fn try_acquire(&self, me: usize, addr: usize, shared: bool) -> bool {
        self.yield_at(me);
        let mut g = self.lock_inner();
        if g.abort {
            drop(g);
            abort_panic();
        }
        let state = g.locks.entry(addr).or_default();
        let available = if shared {
            !state.writer
        } else {
            !state.writer && state.readers == 0
        };
        if available {
            if shared {
                state.readers += 1;
            } else {
                state.writer = true;
            }
        }
        available
    }

    /// Release and wake every waiter that could now acquire. Runs without
    /// a decision point (the releaser keeps running until its next one)
    /// and must stay panic-free: it executes inside guard drops, possibly
    /// during an abort unwind.
    fn release_lock(&self, addr: usize, shared: bool) {
        let mut g = self.lock_inner();
        if g.abort {
            return;
        }
        let inner = &mut *g;
        let state = inner.locks.entry(addr).or_default();
        if shared {
            state.readers = state.readers.saturating_sub(1);
        } else {
            state.writer = false;
        }
        let free_excl = !state.writer && state.readers == 0;
        let free_shared = !state.writer;
        for t in inner.threads.iter_mut() {
            match *t {
                ThreadState::Blocked(Block::Excl(a)) if a == addr && free_excl => {
                    *t = ThreadState::Runnable
                }
                ThreadState::Blocked(Block::Shared(a)) if a == addr && free_shared => {
                    *t = ThreadState::Runnable
                }
                _ => {}
            }
        }
        self.cv.notify_all();
    }

    /// Atomic release-and-wait: give up the mutex at `mutex_addr`, sleep
    /// on the condvar at `cv_addr` with no decision point in between,
    /// then re-acquire the mutex once notified and scheduled.
    fn cond_wait(&self, me: usize, cv_addr: usize, mutex_addr: usize) {
        let mut g = self.lock_inner();
        if g.abort {
            drop(g);
            abort_panic();
        }
        {
            let inner = &mut *g;
            let state = inner.locks.entry(mutex_addr).or_default();
            state.writer = false;
            let free = !state.writer && state.readers == 0;
            for t in inner.threads.iter_mut() {
                match *t {
                    ThreadState::Blocked(Block::Excl(a)) if a == mutex_addr && free => {
                        *t = ThreadState::Runnable
                    }
                    _ => {}
                }
            }
        }
        let g = self.block_current(g, me, Block::Cond(cv_addr));
        drop(g);
        self.lock_acquire(me, mutex_addr, false, false);
    }

    /// Wake one (lowest id) or all waiters of the condvar at `cv_addr`.
    /// A notify with no waiters is lost, exactly like the real primitive.
    fn cond_notify(&self, me: usize, cv_addr: usize, all: bool) {
        self.yield_at(me);
        let mut g = self.lock_inner();
        if g.abort {
            drop(g);
            abort_panic();
        }
        for t in g.threads.iter_mut() {
            if matches!(*t, ThreadState::Blocked(Block::Cond(a)) if a == cv_addr) {
                *t = ThreadState::Runnable;
                if !all {
                    break;
                }
            }
        }
        self.cv.notify_all();
    }

    fn register_thread(&self) -> usize {
        let mut g = self.lock_inner();
        g.threads.push(ThreadState::Runnable);
        g.threads.len() - 1
    }

    fn push_handle(&self, handle: std::thread::JoinHandle<()>) {
        self.lock_inner().handles.push(handle);
    }

    fn take_handles(&self) -> Vec<std::thread::JoinHandle<()>> {
        std::mem::take(&mut self.lock_inner().handles)
    }

    /// Wait until this thread is granted its first run. Returns false if
    /// the execution aborted before that (the closure must be skipped).
    fn thread_begin(&self, id: usize) -> bool {
        let mut g = self.lock_inner();
        while g.current != Some(id) && !g.abort {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        !g.abort
    }

    /// Mark `id` finished, wake its joiners, and hand control onward.
    fn thread_end(&self, id: usize) {
        let mut g = self.lock_inner();
        g.threads[id] = ThreadState::Finished;
        for t in g.threads.iter_mut() {
            if matches!(*t, ThreadState::Blocked(Block::Join(j)) if j == id) {
                *t = ThreadState::Runnable;
            }
        }
        if !g.abort && g.current == Some(id) {
            g.current = None;
            if g.decide(id).is_none()
                && g.threads
                    .iter()
                    .any(|t| matches!(t, ThreadState::Blocked(_)))
            {
                let blocked = g.describe_blocked();
                if g.failure.is_none() {
                    g.failure = Some(format!("model: deadlock — {blocked}"));
                }
                g.abort = true;
            }
        }
        self.cv.notify_all();
    }

    /// Block until thread `target` finishes.
    fn join_thread(&self, me: usize, target: usize) {
        self.yield_at(me);
        let mut g = self.lock_inner();
        if g.abort {
            drop(g);
            abort_panic();
        }
        loop {
            if matches!(g.threads[target], ThreadState::Finished) {
                return;
            }
            g = self.block_current(g, me, Block::Join(target));
        }
    }

    /// Capture a panic from a model thread. [`ModelAbort`] unwinds are
    /// teardown, not failures.
    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        if payload.is::<ModelAbort>() {
            return;
        }
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with non-string payload".to_string());
        let mut g = self.lock_inner();
        if g.failure.is_none() {
            g.failure = Some(message);
        }
        g.abort = true;
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Hooks called by the facade primitives
// ---------------------------------------------------------------------------

/// Model-acquire the mutex at `addr`. False when the current thread is
/// not part of a model execution (caller takes the native path).
pub(crate) fn mutex_lock(addr: usize) -> bool {
    match context() {
        Some((exec, me)) => {
            exec.lock_acquire(me, addr, false, true);
            true
        }
        None => false,
    }
}

/// Model try-lock: `None` when not modeled, otherwise whether the lock
/// was granted.
pub(crate) fn mutex_try_lock(addr: usize) -> Option<bool> {
    context().map(|(exec, me)| exec.try_acquire(me, addr, false))
}

pub(crate) fn mutex_release(addr: usize) {
    if let Some((exec, _)) = context() {
        exec.release_lock(addr, false);
    }
}

pub(crate) fn rw_read(addr: usize) -> bool {
    match context() {
        Some((exec, me)) => {
            exec.lock_acquire(me, addr, true, true);
            true
        }
        None => false,
    }
}

pub(crate) fn rw_write(addr: usize) -> bool {
    match context() {
        Some((exec, me)) => {
            exec.lock_acquire(me, addr, false, true);
            true
        }
        None => false,
    }
}

pub(crate) fn rw_try_read(addr: usize) -> Option<bool> {
    context().map(|(exec, me)| exec.try_acquire(me, addr, true))
}

pub(crate) fn rw_try_write(addr: usize) -> Option<bool> {
    context().map(|(exec, me)| exec.try_acquire(me, addr, false))
}

pub(crate) fn rw_release_read(addr: usize) {
    if let Some((exec, _)) = context() {
        exec.release_lock(addr, true);
    }
}

pub(crate) fn rw_release_write(addr: usize) {
    if let Some((exec, _)) = context() {
        exec.release_lock(addr, false);
    }
}

pub(crate) fn cond_wait(cv_addr: usize, mutex_addr: usize) {
    let (exec, me) = context().expect("modeled guard used outside its model execution");
    exec.cond_wait(me, cv_addr, mutex_addr);
}

/// True when the notify was handled by the model.
pub(crate) fn cond_notify(cv_addr: usize, all: bool) -> bool {
    match context() {
        Some((exec, me)) => {
            exec.cond_notify(me, cv_addr, all);
            true
        }
        None => false,
    }
}

/// Decision point before an atomic operation (no-op outside a model
/// execution).
pub(crate) fn yield_if_modeled() {
    if let Some((exec, me)) = context() {
        exec.yield_at(me);
    }
}

// ---------------------------------------------------------------------------
// Public model-thread API (used by fairmpi-check tests)
// ---------------------------------------------------------------------------

/// Explicit scheduling decision point.
pub fn yield_now() {
    yield_if_modeled();
}

/// Id of the current model thread, if any (the closure root is 0).
pub fn thread_id() -> Option<usize> {
    context().map(|(_, id)| id)
}

/// Spawn a thread. Inside a model execution this registers a new model
/// thread under the scheduler; outside, it falls back to
/// `std::thread::spawn`, so model tests can also run natively.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    match context() {
        Some((exec, me)) => {
            let id = exec.register_thread();
            let result = Arc::new(StdMutex::new(None));
            let thread_result = Arc::clone(&result);
            let thread_exec = Arc::clone(&exec);
            let os = std::thread::Builder::new()
                .name(format!("model-{id}"))
                .spawn(move || {
                    set_context(Arc::clone(&thread_exec), id);
                    if thread_exec.thread_begin(id) {
                        match catch_unwind(AssertUnwindSafe(f)) {
                            Ok(value) => {
                                *thread_result.lock().unwrap_or_else(|e| e.into_inner()) =
                                    Some(value)
                            }
                            Err(payload) => thread_exec.record_panic(payload),
                        }
                    }
                    thread_exec.thread_end(id);
                })
                .expect("spawn model thread");
            exec.push_handle(os);
            // The spawn itself is a decision point: the child may run first.
            exec.yield_at(me);
            JoinHandle {
                inner: JoinInner::Model { exec, id, result },
            }
        }
        None => JoinHandle {
            inner: JoinInner::Native(std::thread::spawn(f)),
        },
    }
}

/// Handle returned by [`spawn`].
pub struct JoinHandle<T> {
    inner: JoinInner<T>,
}

enum JoinInner<T> {
    /// A thread under the model scheduler.
    Model {
        exec: Arc<Execution>,
        id: usize,
        result: Arc<StdMutex<Option<T>>>,
    },
    /// A plain OS thread (spawned outside a model execution).
    Native(std::thread::JoinHandle<T>),
}

impl<T> JoinHandle<T> {
    /// Wait for the thread and return its value. A panicking child makes
    /// the whole model execution fail, so this only returns on success.
    pub fn join(self) -> T {
        match self.inner {
            JoinInner::Model { exec, id, result } => {
                let (_, me) = context().expect("join of a model thread outside its execution");
                exec.join_thread(me, id);
                result
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("joined model thread left no result")
            }
            JoinInner::Native(handle) => handle.join().expect("native thread panicked"),
        }
    }
}

// ---------------------------------------------------------------------------
// Checker
// ---------------------------------------------------------------------------

/// Result of one execution, fed to the DFS.
struct ExecResult {
    steps: Vec<Step>,
    failure: Option<String>,
}

/// Bounded-preemption schedule explorer.
#[derive(Clone, Debug)]
pub struct Checker {
    preemption_bound: usize,
    max_schedules: usize,
    max_depth: usize,
}

impl Default for Checker {
    fn default() -> Self {
        Self {
            preemption_bound: 2,
            max_schedules: 100_000,
            max_depth: 5_000,
        }
    }
}

impl Checker {
    /// Default checker (preemption bound 2).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the preemption bound (number of involuntary context switches
    /// allowed per schedule).
    pub fn preemption_bound(mut self, bound: usize) -> Self {
        self.preemption_bound = bound;
        self
    }

    /// Cap the number of schedules explored; hitting the cap yields
    /// `Outcome::Pass { complete: false }`.
    pub fn max_schedules(mut self, max: usize) -> Self {
        self.max_schedules = max;
        self
    }

    /// Cap the decision-point depth of one execution (livelock guard).
    pub fn max_depth(mut self, max: usize) -> Self {
        self.max_depth = max;
        self
    }

    fn run_once(&self, prefix: Vec<usize>, f: &Arc<dyn Fn() + Send + Sync>) -> ExecResult {
        install_quiet_hook();
        let exec = Arc::new(Execution::new(prefix, self.max_depth));
        let closure = Arc::clone(f);
        let thread_exec = Arc::clone(&exec);
        let main = std::thread::Builder::new()
            .name("model-0".to_string())
            .spawn(move || {
                set_context(Arc::clone(&thread_exec), 0);
                if thread_exec.thread_begin(0) {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| closure())) {
                        thread_exec.record_panic(payload);
                    }
                }
                thread_exec.thread_end(0);
            })
            .expect("spawn model main thread");
        let _ = main.join();
        loop {
            let handles = exec.take_handles();
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                let _ = handle.join();
            }
        }
        let mut g = exec.lock_inner();
        ExecResult {
            steps: std::mem::take(&mut g.steps),
            failure: g.failure.take(),
        }
    }

    /// The deepest not-yet-explored sibling branch within the preemption
    /// bound, as a forced-choice prefix for the next execution.
    fn next_prefix(steps: &[Step], bound: usize) -> Option<Vec<usize>> {
        let mut preempts_before = Vec::with_capacity(steps.len() + 1);
        preempts_before.push(0usize);
        for step in steps {
            let last = *preempts_before.last().unwrap();
            preempts_before.push(last + usize::from(is_preemption(step, step.chosen)));
        }
        for i in (0..steps.len()).rev() {
            let step = &steps[i];
            let order = canonical_order(step);
            let pos = order
                .iter()
                .position(|&c| c == step.chosen)
                .expect("chosen thread came from the runnable set");
            for &alt in &order[pos + 1..] {
                if preempts_before[i] + usize::from(is_preemption(step, alt)) <= bound {
                    let mut prefix: Vec<usize> = steps[..i].iter().map(|s| s.chosen).collect();
                    prefix.push(alt);
                    return Some(prefix);
                }
            }
        }
        None
    }

    /// Exhaustively explore `f` under the preemption bound (depth-first,
    /// deterministic). Returns the first counterexample found.
    pub fn check(&self, f: impl Fn() + Send + Sync + 'static) -> Outcome {
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        let mut prefix = Vec::new();
        let mut explored = 0usize;
        loop {
            let result = self.run_once(prefix, &f);
            explored += 1;
            if let Some(message) = result.failure {
                return Outcome::Fail(Counterexample {
                    schedule: result.steps.iter().map(|s| s.chosen).collect(),
                    message,
                    schedules_explored: explored,
                });
            }
            match Self::next_prefix(&result.steps, self.preemption_bound) {
                None => {
                    return Outcome::Pass {
                        schedules: explored,
                        complete: true,
                    }
                }
                Some(next) => {
                    if explored >= self.max_schedules {
                        return Outcome::Pass {
                            schedules: explored,
                            complete: false,
                        };
                    }
                    prefix = next;
                }
            }
        }
    }

    /// Re-execute `f` under an explicit schedule (e.g. a counterexample's)
    /// to reproduce its interleaving.
    pub fn replay(&self, schedule: &[usize], f: impl Fn() + Send + Sync + 'static) -> Outcome {
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        let result = self.run_once(schedule.to_vec(), &f);
        match result.failure {
            Some(message) => Outcome::Fail(Counterexample {
                schedule: result.steps.iter().map(|s| s.chosen).collect(),
                message,
                schedules_explored: 1,
            }),
            None => Outcome::Pass {
                schedules: 1,
                complete: false,
            },
        }
    }
}

/// Verdict of a [`Checker`] run.
#[derive(Debug)]
pub enum Outcome {
    /// Every explored schedule upheld the assertions. `complete` is true
    /// when the bounded space was exhausted (not cut off by
    /// `max_schedules`).
    Pass { schedules: usize, complete: bool },
    /// A schedule violated an assertion, deadlocked, or overran the depth
    /// cap.
    Fail(Counterexample),
}

impl Outcome {
    /// True on [`Outcome::Pass`].
    pub fn is_pass(&self) -> bool {
        matches!(self, Outcome::Pass { .. })
    }

    /// True on [`Outcome::Fail`].
    pub fn is_fail(&self) -> bool {
        matches!(self, Outcome::Fail(_))
    }

    /// The counterexample, when failing.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Outcome::Fail(ce) => Some(ce),
            Outcome::Pass { .. } => None,
        }
    }

    /// Panic with the printed counterexample unless this is a pass.
    pub fn assert_pass(&self, what: &str) {
        if let Outcome::Fail(ce) = self {
            panic!("model check '{what}' failed\n{ce}");
        }
    }
}

/// A failing schedule: the exact sequence of thread ids granted at each
/// decision point, replayable via [`Checker::replay`].
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Thread id chosen at each decision point.
    pub schedule: Vec<usize>,
    /// The assertion/deadlock message.
    pub message: String,
    /// Number of schedules explored up to (and including) this one.
    pub schedules_explored: usize,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "counterexample after {} schedule(s): {}",
            self.schedules_explored, self.message
        )?;
        let ids: Vec<String> = self.schedule.iter().map(|t| t.to_string()).collect();
        writeln!(f, "schedule: [{}]", ids.join(" "))?;
        write!(f, "replay with Checker::replay(&schedule, ...)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::{AtomicU64, Ordering};
    use crate::Mutex;

    #[test]
    fn single_thread_executes_once_and_passes() {
        let outcome = Checker::new().check(|| {
            let m = Mutex::new(0u32);
            *m.lock() += 1;
            assert_eq!(*m.lock(), 1);
        });
        assert!(outcome.is_pass());
    }

    #[test]
    fn finds_lost_update_between_two_threads() {
        // Classic non-atomic read-modify-write: load then store. The
        // checker must find the interleaving where both threads read 0.
        let outcome = Checker::new().check(|| {
            let counter = Arc::new(AtomicU64::new(0));
            let c1 = Arc::clone(&counter);
            let t = spawn(move || {
                let v = c1.load(Ordering::SeqCst);
                c1.store(v + 1, Ordering::SeqCst);
            });
            let v = counter.load(Ordering::SeqCst);
            counter.store(v + 1, Ordering::SeqCst);
            t.join();
            assert_eq!(counter.load(Ordering::SeqCst), 2, "lost update");
        });
        let ce = outcome.counterexample().expect("lost update must be found");
        assert!(ce.message.contains("lost update"));
        // The counterexample must replay to the same failure.
        let replayed = Checker::new().replay(&ce.schedule, || {
            let counter = Arc::new(AtomicU64::new(0));
            let c1 = Arc::clone(&counter);
            let t = spawn(move || {
                let v = c1.load(Ordering::SeqCst);
                c1.store(v + 1, Ordering::SeqCst);
            });
            let v = counter.load(Ordering::SeqCst);
            counter.store(v + 1, Ordering::SeqCst);
            t.join();
            assert_eq!(counter.load(Ordering::SeqCst), 2, "lost update");
        });
        assert!(replayed.is_fail(), "counterexample schedule must reproduce");
    }

    #[test]
    fn mutex_protected_increment_passes_exhaustively() {
        let outcome = Checker::new().check(|| {
            let counter = Arc::new(Mutex::new(0u64));
            let c1 = Arc::clone(&counter);
            let t = spawn(move || {
                *c1.lock() += 1;
            });
            *counter.lock() += 1;
            t.join();
            assert_eq!(*counter.lock(), 2);
        });
        match outcome {
            Outcome::Pass { complete, .. } => assert!(complete, "space should be exhausted"),
            Outcome::Fail(ce) => panic!("unexpected counterexample: {ce}"),
        }
    }

    #[test]
    fn deadlock_is_detected() {
        let outcome = Checker::new().check(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
            let t = spawn(move || {
                let ga = a1.lock();
                let gb = b1.lock();
                drop((ga, gb));
            });
            let gb = b.lock();
            let ga = a.lock();
            drop((ga, gb));
            t.join();
        });
        let ce = outcome
            .counterexample()
            .expect("AB-BA deadlock must be found");
        assert!(ce.message.contains("deadlock"), "message: {}", ce.message);
    }

    #[test]
    fn condvar_handoff_passes() {
        let outcome = Checker::new().check(|| {
            let slot = Arc::new((Mutex::new(None::<u32>), crate::Condvar::new()));
            let s1 = Arc::clone(&slot);
            let t = spawn(move || {
                let (m, cv) = &*s1;
                let mut g = m.lock();
                *g = Some(7);
                cv.notify_one();
                drop(g);
            });
            let (m, cv) = &*slot;
            let mut g = m.lock();
            while g.is_none() {
                g = cv.wait(g);
            }
            assert_eq!(*g, Some(7));
            drop(g);
            t.join();
        });
        outcome.assert_pass("condvar handoff");
    }
}
