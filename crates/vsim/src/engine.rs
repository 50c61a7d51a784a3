//! The discrete-event core: virtual clock, cores, locks, actors.

use fairmpi_chaos::rng::Xoshiro256;
use fairmpi_trace as trace;
use fairmpi_trace::{NameId, TrackId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Identifier of a simulated thread.
pub type ActorId = usize;

/// Identifier of a virtual lock.
pub type LockId = usize;

/// What an actor asks the scheduler to do next.
///
/// An actor is a state machine: each [`Actor::step`] call inspects the
/// [`Resume`] reason, mutates its own state, and returns the next action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Burn `ns` of virtual CPU (holding the current core).
    Compute(u64),
    /// Block until the lock is granted (releases the core while waiting;
    /// acquisition cost, including the contention penalty, is charged by
    /// the scheduler).
    Lock(LockId),
    /// Attempt the lock without blocking; the outcome arrives in the next
    /// resume as [`Resume::TryLockResult`].
    TryLock(LockId),
    /// Release a held lock (instantaneous; hand-off cost is charged to the
    /// next holder).
    Unlock(LockId),
    /// Deliver an opaque message `payload` to the simulation `mailbox`
    /// after `delay_ns` (the wire). Continues immediately.
    Post {
        /// Destination mailbox index.
        mailbox: usize,
        /// Opaque payload tag interpreted by the workload.
        payload: u64,
        /// Virtual delivery delay.
        delay_ns: u64,
    },
    /// Give up the core and requeue at the back of the run queue.
    Yield,
    /// Give up the core for at least `ns` (a polling backoff: semantically
    /// a yield, but lets the event loop skip ahead instead of re-running
    /// idle pollers every scheduler tick).
    Sleep(u64),
    /// The actor is finished.
    Done,
}

/// Why an actor was resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// First activation, or a previous `Compute`/`Unlock`/`Post`/`Yield`
    /// finished.
    Ready,
    /// A blocking `Lock` was granted.
    LockGranted,
    /// The outcome of a `TryLock`.
    TryLockResult(bool),
}

/// A simulated thread. Implementations carry their own program counter and
/// get full mutable access to the workload's shared state `W` (the
/// simulation is single-threaded, so this is race-free by construction).
pub trait Actor<W> {
    /// Advance the actor; `now` is the virtual time in nanoseconds.
    fn step(&mut self, resume: Resume, now: u64, world: &mut W) -> Action;
}

/// The one capability the engine itself needs from the workload state:
/// accepting wire deliveries scheduled through [`Action::Post`].
pub trait WorldAccess {
    /// Accept a wire delivery into a mailbox.
    fn deliver(&mut self, mailbox: usize, payload: u64);
}

/// An *unfair* virtual lock (like pthread/parking_lot mutexes: released
/// locks are grabbed by whoever gets there, not by queue order — which is
/// also what lets sender threads overtake each other between drawing a
/// sequence number and injecting).
#[derive(Debug)]
struct VLock {
    held_by: Option<ActorId>,
    /// Waiting actors with the virtual time each began waiting.
    waiters: VecDeque<(ActorId, u64)>,
    /// When the current holder acquired the lock (for hold-time tracing).
    held_since: u64,
    /// Interned trace name ([`NameId::INVALID`] when tracing is disarmed).
    trace_name: NameId,
    /// Contention profile: hand-off cost per waiter (cache-line bouncing)
    /// and the waiter-count cap.
    bounce_ns: u64,
    bounce_cap: usize,
    /// Above this many waiters the lock enters the *parked* regime: every
    /// hand-off pays a futex-style wake-up on top of the bouncing. Short
    /// critical sections under light contention stay in the spin regime.
    park_threshold: usize,
    /// The wake-up cost in the parked regime.
    park_ns: u64,
}

/// Scheduler event kinds. The `owns_core` flag distinguishes
/// continuations of an actor that kept its core across the event (compute,
/// uncontended acquisition, try-lock) from wake-ups that must re-acquire a
/// core (lock grants, yields).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Resume an actor: (actor, resume kind, bool payload, owns_core).
    Resume(ActorId, u8, u8, bool),
    /// Deliver a posted message.
    Deliver(usize, u64),
}

/// Timing parameters of the executor itself.
#[derive(Debug, Clone, Copy)]
pub struct SchedParams {
    /// Number of cores.
    pub cores: usize,
    /// Inverse speed: virtual ns actually charged per requested ns ×1024
    /// (e.g. KNL cores ≈ 2.5× slower ⇒ 2560).
    pub slowdown_x1024: u64,
    /// Cost of an uncontended lock acquisition.
    pub lock_base_ns: u64,
    /// Extra acquisition cost per waiter present at grant time
    /// (cache-line bouncing under contention).
    pub lock_bounce_ns: u64,
    /// Cap on the number of waiters counted toward the bounce penalty.
    pub lock_bounce_cap: usize,
    /// Cost of a try-lock attempt (hit or miss).
    pub try_lock_ns: u64,
    /// Cost of yielding the core (scheduler round trip before the actor is
    /// runnable again).
    pub yield_penalty_ns: u64,
    /// RNG seed (determinism).
    pub seed: u64,
}

impl Default for SchedParams {
    fn default() -> Self {
        Self {
            cores: 20,
            slowdown_x1024: 1024,
            lock_base_ns: 20,
            lock_bounce_ns: 70,
            lock_bounce_cap: 16,
            try_lock_ns: 15,
            yield_penalty_ns: 120,
            seed: 0x5EED_CAFE,
        }
    }
}

/// The discrete-event simulator.
pub struct Sim<W: WorldAccess> {
    now: u64,
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64, Event)>>,
    actors: Vec<Option<Box<dyn Actor<W>>>>,
    locks: Vec<VLock>,
    params: SchedParams,
    free_cores: usize,
    run_queue: VecDeque<(ActorId, Resume)>,
    live_actors: usize,
    rng: Xoshiro256,
    /// One trace track per actor (INVALID when tracing is disarmed).
    tracks: Vec<TrackId>,
    /// Interned names for scheduler-level slices.
    sleep_name: NameId,
    yield_name: NameId,
    /// Periodic observer fired as virtual time crosses interval
    /// boundaries.
    tick_hook: Option<TickHook<W>>,
    /// Workload-shared state (matchers, rings, counters).
    pub world: W,
}

/// Periodic-observer callback: `(boundary_ns, &mut world)`.
pub type TickFn<W> = Box<dyn FnMut(u64, &mut W)>;

struct TickHook<W> {
    interval_ns: u64,
    next_ns: u64,
    f: TickFn<W>,
}

impl<W: WorldAccess> Sim<W> {
    /// Build a simulator around workload state `world`.
    pub fn new(params: SchedParams, world: W) -> Self {
        Self {
            now: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            actors: Vec::new(),
            locks: Vec::new(),
            params,
            free_cores: params.cores.max(1),
            run_queue: VecDeque::new(),
            live_actors: 0,
            rng: Xoshiro256::seed_from_u64(params.seed),
            tracks: Vec::new(),
            sleep_name: trace::intern("sleep"),
            yield_name: trace::intern("yield"),
            tick_hook: None,
            world,
        }
    }

    /// Install the periodic observer: `f(boundary_ns, &mut world)` fires
    /// once per `interval_ns` of virtual time as the clock crosses each
    /// boundary (the pvar scrape). Replaces any previously installed one.
    pub fn install_tick_hook(&mut self, interval_ns: u64, f: TickFn<W>) {
        let interval_ns = interval_ns.max(1);
        self.tick_hook = Some(TickHook {
            interval_ns,
            next_ns: interval_ns,
            f,
        });
    }

    /// Current virtual time (ns).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Register a new virtual lock with the scheduler's default contention
    /// profile; returns its id.
    pub fn add_lock(&mut self) -> LockId {
        self.add_lock_with(self.params.lock_bounce_ns, self.params.lock_bounce_cap)
    }

    /// Register a lock with an explicit contention profile (hand-off
    /// penalty per waiter, and the waiter cap); never parks.
    pub fn add_lock_with(&mut self, bounce_ns: u64, bounce_cap: usize) -> LockId {
        self.add_lock_full(bounce_ns, bounce_cap, usize::MAX, 0)
    }

    /// Register a lock with a full contention profile, including the
    /// parked-regime threshold and wake-up cost.
    pub fn add_lock_full(
        &mut self,
        bounce_ns: u64,
        bounce_cap: usize,
        park_threshold: usize,
        park_ns: u64,
    ) -> LockId {
        let id = self.locks.len();
        self.locks.push(VLock {
            held_by: None,
            waiters: VecDeque::new(),
            held_since: 0,
            trace_name: trace::intern(&format!("lock{id}")),
            bounce_ns,
            bounce_cap,
            park_threshold,
            park_ns,
        });
        id
    }

    /// Give a lock a human-readable name on the trace timeline (e.g.
    /// `"instance[0].send"` instead of the default `"lock3"`).
    pub fn name_lock(&mut self, lock: LockId, name: &str) {
        self.locks[lock].trace_name = trace::intern(name);
    }

    /// Register an actor; it becomes runnable at time 0.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<W>>) -> ActorId {
        let name = format!("actor{}", self.actors.len());
        self.add_actor_named(&name, actor)
    }

    /// Register an actor under a trace-track name (e.g. `"sender[3]"`).
    pub fn add_actor_named(&mut self, name: &str, actor: Box<dyn Actor<W>>) -> ActorId {
        let id = self.actors.len();
        self.actors.push(Some(actor));
        self.tracks.push(trace::register_track(name));
        self.live_actors += 1;
        self.run_queue.push_back((id, Resume::Ready));
        id
    }

    fn push_event(&mut self, at: u64, ev: Event) {
        self.seq += 1;
        self.heap.push(Reverse((at, self.seq, ev)));
    }

    fn scale(&self, ns: u64) -> u64 {
        (ns * self.params.slowdown_x1024) / 1024
    }

    /// Run until every actor is done (or `max_events` is exceeded, which
    /// indicates a workload bug). Returns the final virtual time.
    pub fn run(&mut self, max_events: u64) -> u64 {
        let mut events = 0u64;
        loop {
            // Fill free cores from the run queue.
            while self.free_cores > 0 {
                let Some((id, resume)) = self.run_queue.pop_front() else {
                    break;
                };
                self.free_cores -= 1;
                self.execute(id, resume);
            }
            if self.live_actors == 0 {
                return self.now;
            }
            let Some(Reverse((at, _, ev))) = self.heap.pop() else {
                panic!(
                    "virtual deadlock at t={} ns: {} live actors, empty event \
                     heap and run queue",
                    self.now, self.live_actors
                );
            };
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            trace::set_virtual_now(at);
            if let Some(hook) = &mut self.tick_hook {
                while at >= hook.next_ns {
                    (hook.f)(hook.next_ns, &mut self.world);
                    hook.next_ns += hook.interval_ns;
                }
            }
            events += 1;
            assert!(
                events <= max_events,
                "exceeded {max_events} events; runaway workload?"
            );
            match ev {
                Event::Resume(id, kind, flag, owns_core) => {
                    let resume = match kind {
                        0 => Resume::Ready,
                        1 => Resume::LockGranted,
                        _ => Resume::TryLockResult(flag != 0),
                    };
                    if owns_core {
                        // Continuation: the actor held its core across the
                        // event (compute burn, acquisition spin).
                        self.execute(id, resume);
                    } else if self.free_cores > 0 {
                        self.free_cores -= 1;
                        self.execute(id, resume);
                    } else {
                        self.run_queue.push_back((id, resume));
                    }
                }
                Event::Deliver(mailbox, payload) => {
                    self.world_deliver(mailbox, payload);
                }
            }
        }
    }

    fn world_deliver(&mut self, mailbox: usize, payload: u64) {
        self.world.deliver(mailbox, payload);
    }

    /// Run one actor on its core until it blocks, finishes, or schedules a
    /// future resume.
    fn execute(&mut self, id: ActorId, mut resume: Resume) {
        // Unlock and Post continue inline at the same virtual instant; a
        // buggy actor that loops on them would hang or exhaust memory
        // without ever reaching the event-count guard, so bound the chain.
        let mut inline_steps = 0u32;
        loop {
            inline_steps += 1;
            assert!(
                inline_steps <= 100_000,
                "actor {id} looped {inline_steps} inline actions at t={} \
                 without advancing time",
                self.now
            );
            // Workload code running inside `step` (matching, progress)
            // attributes its spans to this actor's track.
            trace::set_current_track(self.tracks[id]);
            let mut actor = self.actors[id].take().expect("actor alive");
            let action = actor.step(resume, self.now, &mut self.world);
            self.actors[id] = Some(actor);
            match action {
                Action::Compute(ns) => {
                    // The burn occupies the core until it completes.
                    let at = self.now + self.scale(ns);
                    self.push_event(at, Event::Resume(id, 0, 0, true));
                    return;
                }
                Action::Lock(l) => {
                    let lname = self.locks[l].trace_name;
                    if self.locks[l].held_by.is_none() {
                        // Uncontended acquisition spins briefly on the core.
                        let at = self.now + self.scale(self.params.lock_base_ns);
                        let lock = &mut self.locks[l];
                        lock.held_by = Some(id);
                        lock.held_since = at;
                        trace::lock_acquired_at(self.tracks[id], lname, at, 0);
                        self.push_event(at, Event::Resume(id, 1, 0, true));
                        return;
                    }
                    // Block: give up the core, join the wait queue.
                    self.locks[l].waiters.push_back((id, self.now));
                    trace::lock_wait_at(self.tracks[id], lname, self.now);
                    self.free_cores += 1;
                    return;
                }
                Action::TryLock(l) => {
                    let lname = self.locks[l].trace_name;
                    let at = self.now + self.scale(self.params.try_lock_ns);
                    let ok = {
                        let lock = &mut self.locks[l];
                        if lock.held_by.is_none() {
                            lock.held_by = Some(id);
                            lock.held_since = at;
                            true
                        } else {
                            false
                        }
                    };
                    if ok {
                        trace::lock_acquired_at(self.tracks[id], lname, at, 0);
                    } else {
                        trace::try_lock_fail_at(self.tracks[id], lname, at);
                    }
                    self.push_event(at, Event::Resume(id, 2, ok as u8, true));
                    return;
                }
                Action::Unlock(l) => {
                    let lname = self.locks[l].trace_name;
                    let held_ns = self.now.saturating_sub(self.locks[l].held_since);
                    trace::lock_released_at(self.tracks[id], lname, self.now, held_ns);
                    let next = {
                        let lock = &mut self.locks[l];
                        debug_assert_eq!(lock.held_by, Some(id), "unlock by non-holder");
                        lock.held_by = None;
                        // Unfair grant: any waiter may win the released
                        // lock (deterministic via the seeded RNG).
                        if lock.waiters.is_empty() {
                            None
                        } else {
                            let pick = self.rng.below(lock.waiters.len() as u64) as usize;
                            lock.waiters.swap_remove_back(pick)
                        }
                    };
                    if let Some((w, wait_since)) = next {
                        let waiters_now = self.locks[l].waiters.len();
                        self.locks[l].held_by = Some(w);
                        let lock = &self.locks[l];
                        // Hand-off cost grows with the crowd still waiting;
                        // past the park threshold each hand-off also pays a
                        // futex-style wake-up.
                        let mut cost = self.params.lock_base_ns
                            + lock.bounce_ns * waiters_now.min(lock.bounce_cap) as u64;
                        if waiters_now >= lock.park_threshold {
                            cost += lock.park_ns;
                        }
                        let at = self.now + self.scale(cost);
                        self.locks[l].held_since = at;
                        trace::lock_acquired_at(
                            self.tracks[w],
                            lname,
                            at,
                            at.saturating_sub(wait_since),
                        );
                        self.push_event(at, Event::Resume(w, 1, 0, false));
                    }
                    // Unlock itself is free; continue on the same core.
                    resume = Resume::Ready;
                    continue;
                }
                Action::Post {
                    mailbox,
                    payload,
                    delay_ns,
                } => {
                    let at = self.now + delay_ns; // wire time is not core-scaled
                    self.push_event(at, Event::Deliver(mailbox, payload));
                    resume = Resume::Ready;
                    continue;
                }
                Action::Yield => {
                    // Give up the core and come back after the scheduler
                    // round trip; scheduling it as a future event (rather
                    // than requeueing at the same instant) is what lets
                    // the clock advance past polling loops.
                    self.free_cores += 1;
                    let at = self.now + self.scale(self.params.yield_penalty_ns);
                    trace::slice_at(self.tracks[id], self.yield_name, self.now, at - self.now);
                    self.push_event(at, Event::Resume(id, 0, 0, false));
                    return;
                }
                Action::Sleep(ns) => {
                    self.free_cores += 1;
                    let at = self.now + self.scale(ns.max(self.params.yield_penalty_ns));
                    trace::slice_at(self.tracks[id], self.sleep_name, self.now, at - self.now);
                    self.push_event(at, Event::Resume(id, 0, 0, false));
                    return;
                }
                Action::Done => {
                    self.actors[id] = None;
                    self.live_actors -= 1;
                    self.free_cores += 1;
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal workload: mailboxes + counters.
    #[derive(Default)]
    struct MiniWorld {
        boxes: Vec<VecDeque<u64>>,
        counters: Vec<i64>,
    }

    impl WorldAccess for MiniWorld {
        fn deliver(&mut self, m: usize, p: u64) {
            self.boxes[m].push_back(p);
        }
    }

    impl MiniWorld {
        fn mailbox_pop(&mut self, m: usize) -> Option<u64> {
            self.boxes[m].pop_front()
        }
        fn counter(&self, i: usize) -> u64 {
            self.counters[i] as u64
        }
        fn counter_add(&mut self, i: usize, d: i64) {
            self.counters[i] += d;
        }
    }

    /// Computes three times then finishes.
    struct Burner {
        remaining: u32,
        burn: u64,
    }
    impl Actor<MiniWorld> for Burner {
        fn step(&mut self, _r: Resume, _now: u64, _w: &mut MiniWorld) -> Action {
            if self.remaining == 0 {
                return Action::Done;
            }
            self.remaining -= 1;
            Action::Compute(self.burn)
        }
    }

    fn mini() -> MiniWorld {
        MiniWorld {
            boxes: vec![VecDeque::new(); 4],
            counters: vec![0; 4],
        }
    }

    #[test]
    fn compute_advances_virtual_time() {
        let mut sim = Sim::new(
            SchedParams {
                cores: 1,
                ..Default::default()
            },
            mini(),
        );
        sim.add_actor(Box::new(Burner {
            remaining: 3,
            burn: 100,
        }));
        let end = sim.run(1_000);
        assert_eq!(end, 300);
    }

    #[test]
    fn cores_limit_parallelism() {
        // Two burners of 300 ns on 1 core => 600 ns; on 2 cores => 300 ns.
        for (cores, expect) in [(1usize, 600u64), (2, 300)] {
            let mut sim = Sim::new(
                SchedParams {
                    cores,
                    ..Default::default()
                },
                mini(),
            );
            for _ in 0..2 {
                sim.add_actor(Box::new(Burner {
                    remaining: 1,
                    burn: 300,
                }));
            }
            assert_eq!(sim.run(1_000), expect, "cores={cores}");
        }
    }

    #[test]
    fn slowdown_scales_compute() {
        let mut sim = Sim::new(
            SchedParams {
                cores: 1,
                slowdown_x1024: 2048, // 2x slower cores
                ..Default::default()
            },
            mini(),
        );
        sim.add_actor(Box::new(Burner {
            remaining: 1,
            burn: 100,
        }));
        assert_eq!(sim.run(1_000), 200);
    }

    /// Locks then computes inside the critical section.
    struct LockUser {
        lock: LockId,
        state: u8,
        hold: u64,
    }
    impl Actor<MiniWorld> for LockUser {
        fn step(&mut self, _r: Resume, _now: u64, _w: &mut MiniWorld) -> Action {
            match self.state {
                0 => {
                    self.state = 1;
                    Action::Lock(self.lock)
                }
                1 => {
                    self.state = 2;
                    Action::Compute(self.hold)
                }
                2 => {
                    self.state = 3;
                    Action::Unlock(self.lock)
                }
                _ => Action::Done,
            }
        }
    }

    #[test]
    fn lock_serializes_critical_sections() {
        let mut sim = Sim::new(
            SchedParams {
                cores: 8,
                lock_base_ns: 0,
                lock_bounce_ns: 0,
                ..Default::default()
            },
            mini(),
        );
        let l = sim.add_lock();
        for _ in 0..4 {
            sim.add_actor(Box::new(LockUser {
                lock: l,
                state: 0,
                hold: 100,
            }));
        }
        // 4 actors × 100 ns serialized despite 8 cores.
        assert_eq!(sim.run(10_000), 400);
    }

    #[test]
    fn bounce_penalty_charges_contended_handoffs() {
        let run_with = |bounce: u64| {
            let mut sim = Sim::new(
                SchedParams {
                    cores: 8,
                    lock_base_ns: 0,
                    lock_bounce_ns: bounce,
                    ..Default::default()
                },
                mini(),
            );
            let l = sim.add_lock();
            for _ in 0..4 {
                sim.add_actor(Box::new(LockUser {
                    lock: l,
                    state: 0,
                    hold: 100,
                }));
            }
            sim.run(10_000)
        };
        let cheap = run_with(0);
        let pricey = run_with(50);
        assert!(pricey > cheap, "contended handoffs must cost extra");
        // Handoffs: to waiter with 2 still queued (2*50), then 1 (50), then
        // 0: total 150 extra.
        assert_eq!(pricey - cheap, 150);
    }

    /// Posts a message; the peer waits for it.
    struct Poster {
        posted: bool,
    }
    impl Actor<MiniWorld> for Poster {
        fn step(&mut self, _r: Resume, _now: u64, _w: &mut MiniWorld) -> Action {
            if self.posted {
                return Action::Done;
            }
            self.posted = true;
            Action::Post {
                mailbox: 0,
                payload: 42,
                delay_ns: 500,
            }
        }
    }
    struct Poller {
        got: bool,
    }
    impl Actor<MiniWorld> for Poller {
        fn step(&mut self, _r: Resume, _now: u64, w: &mut MiniWorld) -> Action {
            if self.got {
                return Action::Done;
            }
            match w.mailbox_pop(0) {
                Some(v) => {
                    assert_eq!(v, 42);
                    w.counter_add(0, 1);
                    self.got = true;
                    Action::Compute(1)
                }
                None => Action::Yield,
            }
        }
    }

    #[test]
    fn post_delivers_after_delay() {
        let mut sim = Sim::new(
            SchedParams {
                cores: 2,
                ..Default::default()
            },
            mini(),
        );
        sim.add_actor(Box::new(Poster { posted: false }));
        sim.add_actor(Box::new(Poller { got: false }));
        let end = sim.run(1_000_000);
        assert!(end >= 500, "poller had to wait for the wire: {end}");
        assert_eq!(sim.world.counter(0), 1);
    }

    #[test]
    fn try_lock_fails_when_held() {
        /// Locks, then computes for a while holding it.
        struct Holder {
            lock: LockId,
            state: u8,
        }
        impl Actor<MiniWorld> for Holder {
            fn step(&mut self, _r: Resume, _now: u64, _w: &mut MiniWorld) -> Action {
                self.state += 1;
                match self.state {
                    1 => Action::Lock(self.lock),
                    2 => Action::Compute(1_000),
                    3 => Action::Unlock(self.lock),
                    _ => Action::Done,
                }
            }
        }
        /// Waits, then try-locks while the holder still computes.
        struct Prober {
            lock: LockId,
            state: u8,
        }
        impl Actor<MiniWorld> for Prober {
            fn step(&mut self, r: Resume, _now: u64, w: &mut MiniWorld) -> Action {
                self.state += 1;
                match self.state {
                    1 => Action::Compute(500), // land mid-hold
                    2 => Action::TryLock(self.lock),
                    3 => {
                        let Resume::TryLockResult(ok) = r else {
                            panic!("expected try-lock result");
                        };
                        w.counter_add(0, ok as i64);
                        Action::Done
                    }
                    _ => Action::Done,
                }
            }
        }
        let mut sim = Sim::new(
            SchedParams {
                cores: 2,
                ..Default::default()
            },
            mini(),
        );
        let l = sim.add_lock();
        sim.add_actor(Box::new(Holder { lock: l, state: 0 }));
        sim.add_actor(Box::new(Prober { lock: l, state: 0 }));
        sim.run(1_000);
        assert_eq!(sim.world.counter(0), 0, "probe mid-hold must fail");
    }

    #[test]
    #[should_panic(expected = "virtual deadlock")]
    fn deadlock_is_detected() {
        struct Sleeper {
            lock: LockId,
            state: u8,
        }
        impl Actor<MiniWorld> for Sleeper {
            fn step(&mut self, _r: Resume, _now: u64, _w: &mut MiniWorld) -> Action {
                match self.state {
                    0 => {
                        self.state = 1;
                        Action::Lock(self.lock)
                    }
                    // Never unlocks; a second locker waits forever.
                    1 => {
                        self.state = 2;
                        Action::Done
                    }
                    _ => Action::Done,
                }
            }
        }
        // Actor A locks and finishes without unlocking; actor B waits.
        let mut sim = Sim::new(SchedParams::default(), mini());
        let l = sim.add_lock();
        sim.add_actor(Box::new(Sleeper { lock: l, state: 0 }));
        sim.add_actor(Box::new(Sleeper { lock: l, state: 0 }));
        sim.run(1_000);
    }

    #[test]
    fn sleep_advances_the_clock_past_polling_loops() {
        /// Polls a mailbox with a 1 µs backoff until the wire delivers.
        struct BackoffPoller {
            got: bool,
        }
        impl Actor<MiniWorld> for BackoffPoller {
            fn step(&mut self, _r: Resume, _now: u64, w: &mut MiniWorld) -> Action {
                if self.got {
                    return Action::Done;
                }
                match w.mailbox_pop(0) {
                    Some(_) => {
                        self.got = true;
                        Action::Compute(1)
                    }
                    None => Action::Sleep(1_000),
                }
            }
        }
        struct LatePoster {
            state: u8,
        }
        impl Actor<MiniWorld> for LatePoster {
            fn step(&mut self, _r: Resume, _now: u64, _w: &mut MiniWorld) -> Action {
                self.state += 1;
                match self.state {
                    1 => Action::Post {
                        mailbox: 0,
                        payload: 1,
                        delay_ns: 50_000,
                    },
                    _ => Action::Done,
                }
            }
        }
        let mut sim = Sim::new(
            SchedParams {
                cores: 1,
                ..Default::default()
            },
            mini(),
        );
        sim.add_actor(Box::new(LatePoster { state: 0 }));
        sim.add_actor(Box::new(BackoffPoller { got: false }));
        // ~50 poll cycles of 1 µs each — far below the event cap; without
        // Sleep this poller would need one event per scheduler tick.
        let end = sim.run(5_000);
        assert!(end >= 50_000);
    }

    #[test]
    fn compute_holds_the_core_against_waiting_actors() {
        // One core, one long burner and one short: the short one cannot
        // interleave into the middle of the long burn (no preemption).
        struct Stamp {
            burn: u64,
            finished_at: std::sync::Arc<std::sync::atomic::AtomicU64>,
        }
        impl Actor<MiniWorld> for Stamp {
            fn step(&mut self, _r: Resume, now: u64, _w: &mut MiniWorld) -> Action {
                if self.burn == 0 {
                    self.finished_at
                        .store(now, std::sync::atomic::Ordering::Relaxed);
                    return Action::Done;
                }
                let b = self.burn;
                self.burn = 0;
                Action::Compute(b)
            }
        }
        let long_done = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let short_done = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut sim = Sim::new(
            SchedParams {
                cores: 1,
                ..Default::default()
            },
            mini(),
        );
        sim.add_actor(Box::new(Stamp {
            burn: 1_000,
            finished_at: std::sync::Arc::clone(&long_done),
        }));
        sim.add_actor(Box::new(Stamp {
            burn: 10,
            finished_at: std::sync::Arc::clone(&short_done),
        }));
        sim.run(1_000);
        assert_eq!(long_done.load(std::sync::atomic::Ordering::Relaxed), 1_000);
        assert_eq!(
            short_done.load(std::sync::atomic::Ordering::Relaxed),
            1_010,
            "the short burn runs only after the long one releases the core"
        );
    }

    #[test]
    fn unfair_grants_are_deterministic_per_seed() {
        // Three lockers contending; the grant order depends on the seeded
        // RNG but must be identical across runs.
        fn order(seed: u64) -> Vec<u64> {
            struct Order {
                lock: LockId,
                id: usize,
                state: u8,
            }
            impl Actor<MiniWorld> for Order {
                fn step(&mut self, _r: Resume, _now: u64, w: &mut MiniWorld) -> Action {
                    self.state += 1;
                    match self.state {
                        1 => Action::Lock(self.lock),
                        2 => {
                            // Record my position in the grant order.
                            let pos = w.counter(3) + 1;
                            w.counter_add(3, 1);
                            w.counter_add(self.id, pos as i64);
                            Action::Compute(100)
                        }
                        3 => Action::Unlock(self.lock),
                        _ => Action::Done,
                    }
                }
            }
            let mut sim = Sim::new(
                SchedParams {
                    cores: 4,
                    seed,
                    ..Default::default()
                },
                mini(),
            );
            let l = sim.add_lock();
            for id in 0..3 {
                sim.add_actor(Box::new(Order {
                    lock: l,
                    id,
                    state: 0,
                }));
            }
            sim.run(10_000);
            (0..3).map(|i| sim.world.counter(i)).collect()
        }
        assert_eq!(order(7), order(7), "same seed, same grant order");
    }
}
