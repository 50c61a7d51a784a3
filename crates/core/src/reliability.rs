//! The reliability layer: per-peer sequence-tracked ack/retransmit.
//!
//! Built only when a fault plan is armed — a chaos-free world never
//! allocates this state and its send path is untouched. With a plan active,
//! every transport frame (eager, RTS, CTS, DATA) gets a per-destination
//! transport sequence number (`tseq`) and is parked here until the receiver
//! acknowledges it. The progress engine's tick retransmits frames whose
//! deadline passed, doubling the timeout each attempt (exponential backoff)
//! up to the plan's retry budget; past the budget the frame's request fails
//! with [`MpiError::RetryExhausted`].
//!
//! The transport sequence is deliberately distinct from the matching
//! engine's user-visible sequence: `tseq` exists so each *frame* is
//! delivered exactly once per peer (duplicate suppression keyed on
//! `(src rank, tseq)`), while the matcher's `seq` restores MPI FIFO order
//! per (communicator, destination) — including across retransmissions,
//! which may arrive long after their successors. Overtaking communicators
//! skip the matcher's ordering but still get exactly-once delivery here.
//!
//! [`MpiError::RetryExhausted`]: crate::MpiError::RetryExhausted

use fairmpi_sync::atomic::{AtomicU64, Ordering};
use fairmpi_sync::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use fairmpi_chaos::FaultPlan;
use fairmpi_fabric::{Packet, Rank};
use fairmpi_spc::{Counter, SpcSet};
use fairmpi_trace as trace;

/// One transmitted frame awaiting its ack or its retransmit deadline.
#[derive(Debug, Clone)]
pub(crate) struct PendingFrame {
    /// The frame as it goes on the wire (tseq already assigned).
    pub(crate) packet: Packet,
    /// Completion-queue token the frame was carrying (0 for control).
    pub(crate) cq_token: u64,
    /// Retransmit attempts so far.
    pub(crate) attempts: u32,
    /// When the next retransmit fires.
    deadline: Instant,
}

/// Send side of one (this rank → peer) channel.
#[derive(Debug, Default)]
struct SendChannel {
    next_tseq: u64,
    unacked: HashMap<u64, PendingFrame>,
}

/// Receive side of one (peer → this rank) channel: which tseqs arrived.
///
/// Public so `fairmpi-check` can model-check the suppression logic under
/// racing deliveries — the runtime itself only uses it behind a
/// [`Mutex`] in its private reliability layer.
#[derive(Debug, Default)]
pub struct DedupWindow {
    /// Every tseq in `1..=floor` has been accepted.
    floor: u64,
    /// Accepted tseqs above the floor (out-of-order arrivals).
    above: BTreeSet<u64>,
}

impl DedupWindow {
    /// Empty window: no tseq accepted yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an arrival; `false` means this tseq was already accepted
    /// (a wire duplicate or a retransmission racing its own ack).
    pub fn accept(&mut self, tseq: u64) -> bool {
        if tseq <= self.floor || !self.above.insert(tseq) {
            return false;
        }
        while self.above.remove(&(self.floor + 1)) {
            self.floor += 1;
        }
        true
    }
}

/// What one reliability tick wants done: frames to re-inject, frames whose
/// retry budget ran out, and the backoff scheduled by this tick.
pub(crate) struct TickWork {
    pub(crate) retransmit: Vec<Packet>,
    pub(crate) exhausted: Vec<PendingFrame>,
    pub(crate) backoff_ns: u64,
}

/// Per-rank reliability state: one send and one receive channel per peer.
#[derive(Debug)]
pub(crate) struct Reliability {
    plan: FaultPlan,
    send: Vec<Mutex<SendChannel>>,
    recv: Vec<Mutex<DedupWindow>>,
}

impl Reliability {
    pub(crate) fn new(plan: FaultPlan, num_ranks: usize) -> Self {
        Self {
            plan,
            send: (0..num_ranks).map(|_| Mutex::default()).collect(),
            recv: (0..num_ranks).map(|_| Mutex::default()).collect(),
        }
    }

    fn timeout(&self) -> Duration {
        Duration::from_nanos(self.plan.timeout_ns)
    }

    /// Assign the next transport sequence toward the packet's destination
    /// and park a copy for retransmission until acked.
    pub(crate) fn register(&self, packet: &mut Packet, cq_token: u64) {
        let mut ch = self.send[packet.envelope.dst as usize].lock();
        ch.next_tseq += 1;
        packet.tseq = ch.next_tseq;
        ch.unacked.insert(
            packet.tseq,
            PendingFrame {
                packet: packet.clone(),
                cq_token,
                attempts: 0,
                deadline: Instant::now() + self.timeout(),
            },
        );
    }

    /// An ack (or a local failure) retires the frame; returns it so the
    /// caller can complete — or fail — the user request it carried. `None`
    /// for duplicate acks.
    pub(crate) fn retire(&self, peer: Rank, tseq: u64) -> Option<PendingFrame> {
        self.send[peer as usize].lock().unacked.remove(&tseq)
    }

    /// Pull a frame's deadline to "now" so the next tick re-injects it
    /// immediately (used when injection was transiently refused).
    pub(crate) fn expire_now(&self, peer: Rank, tseq: u64) {
        if let Some(f) = self.send[peer as usize].lock().unacked.get_mut(&tseq) {
            f.deadline = Instant::now();
        }
    }

    /// Receiver-side dedup: `true` if this `(src, tseq)` is new.
    pub(crate) fn accept(&self, src: Rank, tseq: u64) -> bool {
        self.recv[src as usize].lock().accept(tseq)
    }

    /// Frames still awaiting acknowledgment (drain conditions/diagnostics).
    pub(crate) fn in_flight(&self) -> usize {
        self.send.iter().map(|ch| ch.lock().unacked.len()).sum()
    }

    /// Sweep every channel for frames past their deadline. Expired frames
    /// within budget get their attempt count bumped and their deadline
    /// pushed out exponentially (timeout × 2^attempts, capped at 2^6) and
    /// are returned for re-injection; frames past the budget are removed
    /// and returned as exhausted.
    pub(crate) fn tick(&self, now: Instant) -> TickWork {
        let mut work = TickWork {
            retransmit: Vec::new(),
            exhausted: Vec::new(),
            backoff_ns: 0,
        };
        for ch in &self.send {
            let mut ch = ch.lock();
            let mut dead = Vec::new();
            for (&tseq, frame) in ch.unacked.iter_mut() {
                if frame.deadline > now {
                    continue;
                }
                if frame.attempts >= self.plan.max_retries {
                    dead.push(tseq);
                    continue;
                }
                frame.attempts += 1;
                let backoff = self
                    .plan
                    .timeout_ns
                    .saturating_mul(1 << frame.attempts.min(6));
                frame.deadline = now + Duration::from_nanos(backoff);
                work.backoff_ns += backoff;
                work.retransmit.push(frame.packet.clone());
            }
            for tseq in dead {
                work.exhausted
                    .push(ch.unacked.remove(&tseq).expect("expired frame present"));
            }
        }
        work
    }
}

/// Progress stall detector, armed only under a fault plan.
///
/// Every engine pass reports whether it produced an event; a window of
/// `FAIRMPI_WATCHDOG_NS` (default 50 ms) with passes but no events trips the
/// watchdog, which is recorded as an SPC event (`watchdog_trips`) and a trace
/// instant rather than an abort — the figures show *where* recovery stalled,
/// the runtime keeps retrying. The window resets on every trip so a
/// persistent stall is counted once per window, not once per pass.
#[derive(Debug)]
pub(crate) struct Watchdog {
    epoch: Instant,
    last_event_ns: AtomicU64,
    budget_ns: u64,
}

/// Stall window before the watchdog trips (default 50 ms).
const WATCHDOG_NS: crate::env::EnvKey<u64> = crate::env::EnvKey::new("FAIRMPI_WATCHDOG_NS");

impl Watchdog {
    pub(crate) fn new() -> Self {
        let budget_ns = WATCHDOG_NS.get().filter(|&ns| ns > 0).unwrap_or(50_000_000);
        Self {
            epoch: Instant::now(),
            last_event_ns: AtomicU64::new(0),
            budget_ns,
        }
    }

    /// Record the outcome of one progress pass.
    pub(crate) fn observe(&self, made_progress: bool, spc: &SpcSet) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        if made_progress {
            self.last_event_ns.store(now, Ordering::Relaxed);
            return;
        }
        let last = self.last_event_ns.load(Ordering::Relaxed);
        if now.saturating_sub(last) > self.budget_ns
            && self
                .last_event_ns
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            // The compare-exchange makes concurrent pollers agree on one
            // trip per window.
            spc.inc(Counter::WatchdogTrips);
            trace::instant("watchdog.trip");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairmpi_fabric::Envelope;

    fn packet(dst: Rank) -> Packet {
        Packet::eager(
            Envelope {
                src: 0,
                dst,
                comm: 0,
                tag: 0,
                seq: 1,
            },
            vec![7],
        )
    }

    fn rel(timeout_ns: u64, retries: u32) -> Reliability {
        Reliability::new(
            FaultPlan::seeded(1)
                .drop(1)
                .timeout_ns(timeout_ns)
                .max_retries(retries),
            2,
        )
    }

    #[test]
    fn tseqs_are_per_peer_and_monotone() {
        let r = rel(1_000_000, 3);
        let mut a = packet(1);
        let mut b = packet(1);
        let mut c = packet(0);
        r.register(&mut a, 10);
        r.register(&mut b, 11);
        r.register(&mut c, 12);
        assert_eq!((a.tseq, b.tseq), (1, 2));
        assert_eq!(c.tseq, 1, "each peer has its own sequence space");
        assert_eq!(r.in_flight(), 3);
    }

    #[test]
    fn retire_completes_once() {
        let r = rel(1_000_000, 3);
        let mut p = packet(1);
        r.register(&mut p, 42);
        let frame = r.retire(1, p.tseq).expect("first ack retires");
        assert_eq!(frame.cq_token, 42);
        assert!(r.retire(1, p.tseq).is_none(), "duplicate ack is a no-op");
        assert_eq!(r.in_flight(), 0);
    }

    #[test]
    fn dedup_accepts_each_tseq_once_in_any_order() {
        let r = rel(1_000_000, 3);
        assert!(r.accept(1, 2), "out-of-order arrival accepted");
        assert!(r.accept(1, 1));
        assert!(!r.accept(1, 1), "duplicate below the floor");
        assert!(!r.accept(1, 2), "duplicate absorbed into the floor");
        assert!(r.accept(1, 3));
        assert!(r.accept(0, 1), "channels are per-peer");
    }

    #[test]
    fn tick_backs_off_exponentially_then_exhausts() {
        let r = rel(100, 2);
        let mut p = packet(1);
        r.register(&mut p, 5);
        let start = Instant::now();
        // First expiry: attempt 1, backoff 100 * 2.
        let w = r.tick(start + Duration::from_nanos(200));
        assert_eq!(w.retransmit.len(), 1);
        assert_eq!(w.backoff_ns, 200);
        // Second expiry: attempt 2, backoff 100 * 4.
        let w = r.tick(start + Duration::from_micros(1));
        assert_eq!(w.retransmit.len(), 1);
        assert_eq!(w.backoff_ns, 400);
        // Third expiry: budget (2 retries) exhausted.
        let w = r.tick(start + Duration::from_micros(10));
        assert!(w.retransmit.is_empty());
        assert_eq!(w.exhausted.len(), 1);
        assert_eq!(w.exhausted[0].attempts, 2);
        assert_eq!(r.in_flight(), 0, "exhausted frame is removed");
    }

    #[test]
    fn unexpired_frames_stay_parked() {
        let r = rel(1_000_000_000, 3);
        let mut p = packet(1);
        r.register(&mut p, 1);
        let w = r.tick(Instant::now());
        assert!(w.retransmit.is_empty() && w.exhausted.is_empty());
        assert_eq!(r.in_flight(), 1);
    }

    #[test]
    fn watchdog_trips_once_per_stall_window() {
        let w = Watchdog {
            epoch: Instant::now() - Duration::from_secs(10),
            last_event_ns: AtomicU64::new(0),
            budget_ns: 5_000_000_000, // 10s of apparent silence vs a 5s budget
        };
        let spc = SpcSet::new();
        w.observe(false, &spc);
        assert_eq!(spc.get(Counter::WatchdogTrips), 1, "stalled past budget");
        w.observe(false, &spc);
        assert_eq!(
            spc.get(Counter::WatchdogTrips),
            1,
            "window reset on trip: the same stall is not recounted"
        );
    }

    #[test]
    fn expire_now_forces_immediate_retransmit() {
        let r = rel(1_000_000_000, 3);
        let mut p = packet(1);
        r.register(&mut p, 1);
        r.expire_now(1, p.tseq);
        let w = r.tick(Instant::now() + Duration::from_nanos(1));
        assert_eq!(w.retransmit.len(), 1);
    }
}
