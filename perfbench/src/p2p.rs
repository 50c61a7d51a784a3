//! Two-sided workloads on native threads: one sender thread on rank 0 and
//! one receiver thread on rank 1 of a world in `MPI_THREAD_MULTIPLE` mode.
//!
//! Every repetition builds a fresh world and fresh threads, so that one
//! run samples many thread placements, and has two phases:
//!
//! * rate: `WINDOWS` Multirate windows of 128 `isend`s against 128
//!   `irecv`s, timed from a shared start to the end of both sides;
//! * latency: blocking ping-pongs, each round trip timed on rank 0 and
//!   halved.
//!
//! Messages are zero bytes, as in the paper's two-sided experiments. Tags
//! come from the seed; each side checks the source, tag and length of every
//! message it gets.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use fairmpi::{Communicator, DesignConfig, Message, Proc, Tag, World};

use crate::stats::Rng;
use crate::{must, time_setup, Outcome};

/// Outstanding operations per Multirate window (the paper's 128).
const WINDOW: usize = 128;
/// Round trips per latency phase.
const PINGS: usize = 128;
/// Multirate windows per rate phase: long enough (about 15 ms) that the
/// few milliseconds fresh threads can take to settle on separate cores do
/// not decide the repetition's rate.
const WINDOWS: usize = 96;
/// Distinct seeded tags, cycled through by message index.
const TAGS: usize = 64;

/// Seeded tags; message `k` carries `tags[k % TAGS]`.
struct Tags(Vec<Tag>);

impl Tags {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        Self(
            (0..TAGS)
                .map(|_| (rng.next_u64() % 30_000) as Tag)
                .collect(),
        )
    }

    fn of(&self, k: usize) -> Tag {
        self.0[k % TAGS]
    }

    fn is(&self, k: usize, msg: &Message, src: u32) -> bool {
        msg.src == src && msg.tag == self.of(k) && msg.data.is_empty()
    }
}

/// What the two threads of one repetition share.
struct Rep<'a> {
    tags: &'a Tags,
    comm: Communicator,
    barrier: Barrier,
    mismatch: AtomicBool,
}

/// Run the workload over `design` until `until`.
pub fn run(design: DesignConfig, seed: u64, until: Instant) -> Outcome {
    let mut out = Outcome::new();
    let tags = Tags::new(seed);
    while Instant::now() < until {
        let world = World::builder().ranks(2).design(design).build();
        let rep = Rep {
            tags: &tags,
            comm: world.comm_world(),
            barrier: Barrier::new(2),
            mismatch: AtomicBool::new(false),
        };
        let (rate, latency, received) = std::thread::scope(|s| {
            let receiver = s.spawn(|| receiver(&world.proc(1), &rep));
            let sender = s.spawn(|| sender(&world.proc(0), &rep));
            let received = receiver.join().expect("receiver thread panicked");
            let (rate, latency) = sender.join().expect("sender thread panicked");
            (rate, latency, received)
        });
        // Rank 1 received the windows and the pings; rank 0 checked a pong
        // for every ping.
        let pongs = latency.len() as u64;
        let sent = (WINDOWS * WINDOW) as u64 + 2 * pongs;
        out.correct &= !rep.mismatch.load(Ordering::Relaxed) && received + pongs == sent;
        out.attempted += sent;
        out.rate.push(rate);
        out.latency_ns.extend(latency);
        out.spc = out.spc.merged_with(&world.spc_merged());
        out.setup_s.push(time_setup(|| {
            World::builder().ranks(2).design(design).build()
        }));
    }
    out
}

/// Rank 0: times the rate phase from the shared start to the end of both
/// sides, then each ping-pong round trip.
fn sender(p: &Proc, rep: &Rep) -> (f64, Vec<f64>) {
    let (tags, comm) = (rep.tags, rep.comm);
    rep.barrier.wait();
    let t = Instant::now();
    let mut k = 0;
    for _ in 0..WINDOWS {
        let reqs: Vec<_> = (k..k + WINDOW)
            .map(|i| must(p.isend(&[], 1, tags.of(i), comm), "isend"))
            .collect();
        must(p.waitall(&reqs), "sender waitall");
        k += WINDOW;
    }
    rep.barrier.wait();
    let rate = k as f64 / t.elapsed().as_secs_f64();

    let latency = (k..k + PINGS)
        .map(|i| {
            let t = Instant::now();
            must(p.send(&[], 1, tags.of(i), comm), "ping");
            let pong = must(p.recv(0, 1, tags.of(i), comm), "pong");
            let ns = t.elapsed().as_nanos() as f64 / 2.0;
            if !tags.is(i, &pong, 1) {
                rep.mismatch.store(true, Ordering::Relaxed);
            }
            ns
        })
        .collect();
    (rate, latency)
}

/// Rank 1: receives each window and checks it, then answers the pings.
/// Returns the messages it received.
fn receiver(p: &Proc, rep: &Rep) -> u64 {
    let (tags, comm) = (rep.tags, rep.comm);
    rep.barrier.wait();
    let mut k = 0;
    for _ in 0..WINDOWS {
        let reqs: Vec<_> = (k..k + WINDOW)
            .map(|i| must(p.irecv(0, 0, tags.of(i), comm), "irecv"))
            .collect();
        let msgs = must(p.waitall(&reqs), "receiver waitall");
        if !msgs.iter().zip(k..).all(|(m, i)| tags.is(i, m, 0)) {
            rep.mismatch.store(true, Ordering::Relaxed);
        }
        k += WINDOW;
    }
    rep.barrier.wait();

    for i in k..k + PINGS {
        let ping = must(p.recv(0, 0, tags.of(i), comm), "ping");
        if !tags.is(i, &ping, 0) {
            rep.mismatch.store(true, Ordering::Relaxed);
        }
        must(p.send(&[], 0, tags.of(i), comm), "pong");
    }
    (k + PINGS) as u64
}
