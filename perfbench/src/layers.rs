//! The layer budget: nanoseconds per operation of each layer on the
//! message path, timed in isolation through that layer's own API.
//!
//! Every figure is the median over `BATCHES` batches of `BATCH` operations
//! after one warm-up batch. Together with the end-to-end time per operation
//! they show which share of an operation the layers explain.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fairmpi_cri::{Assignment, CriPool};
use fairmpi_fabric::{Completion, Envelope, Fabric, FabricConfig, Packet};
use fairmpi_matching::{Matcher, PostedRecv, SendSequencer};
use fairmpi_progress::{ProgressEngine, ProgressHandler, ProgressMode};
use fairmpi_spc::SpcSet;

use crate::stats::median;

const BATCH: usize = 1024;
const BATCHES: usize = 101;
/// Receives posted at once in the out-of-sequence match (Multirate's window).
const WINDOW: usize = 128;
const TAG: i32 = 7;

/// Nanoseconds per operation of each layer.
pub struct Budget {
    /// Drawing a send sequence number.
    pub seq: f64,
    /// Locking and unlocking an uncontended instance.
    pub cri_lock: f64,
    /// Try-locking and unlocking an uncontended instance.
    pub cri_trylock: f64,
    /// Injecting one zero-byte packet under a held instance: wire delivery
    /// into the peer's rx ring plus the local completion.
    pub inject: f64,
    /// Popping one packet off an rx ring.
    pub rx_pop: f64,
    /// Popping one event off a completion queue.
    pub cq_pop: f64,
    /// Posting a receive and delivering its message in sequence.
    pub match_inorder: f64,
    /// The same, with each window's messages delivered in reverse order:
    /// all but the last are parked out of sequence, then replayed.
    pub match_oos: f64,
    /// One progress pass over an idle instance (a wasted pass).
    pub progress_poll: f64,
}

fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

/// Median ns/op of `batch`, which runs `BATCH` operations and returns the
/// nanoseconds they took.
fn per_op(mut batch: impl FnMut() -> f64) -> f64 {
    batch();
    let samples: Vec<f64> = (0..BATCHES).map(|_| batch() / BATCH as f64).collect();
    median(&samples)
}

fn envelope(seq: u64) -> Envelope {
    Envelope {
        src: 0,
        dst: 1,
        comm: 0,
        tag: TAG,
        seq,
    }
}

fn recv(token: u64) -> PostedRecv {
    PostedRecv {
        token,
        comm: 0,
        src: 0,
        tag: TAG,
    }
}

/// A progress handler for an instance that never has work.
struct Idle;

impl ProgressHandler for Idle {
    fn on_packet(&self, _: Packet) -> usize {
        0
    }

    fn on_completion(&self, _: Completion) -> usize {
        0
    }
}

impl Budget {
    /// Time every layer.
    pub fn measure() -> Self {
        let spc = Arc::new(SpcSet::new());
        let fabric = Fabric::new(2, 1, FabricConfig::test_default());
        let pool = Arc::new(CriPool::new(&fabric, 0, 1, Arc::clone(&spc)));
        let cri = pool.instance(0);

        let sequencer = SendSequencer::new(2);
        let seq = per_op(|| {
            timed(|| {
                for _ in 0..BATCH {
                    black_box(sequencer.next(black_box(1)));
                }
            })
        });
        let cri_lock = per_op(|| {
            timed(|| {
                for _ in 0..BATCH {
                    drop(black_box(cri.lock(&spc)));
                }
            })
        });
        let cri_trylock = per_op(|| {
            timed(|| {
                for _ in 0..BATCH {
                    drop(black_box(cri.try_lock(&spc).expect("uncontended")));
                }
            })
        });

        let (inject, rx_pop, cq_pop) = inject_and_drain(&fabric, &pool, &spc);

        let mut matcher = Matcher::new(Arc::clone(&spc), false);
        let mut events = Vec::with_capacity(WINDOW);
        let mut next = 0u64;
        let match_inorder = per_op(|| {
            timed(|| {
                for _ in 0..BATCH {
                    matcher.post_recv(recv(next));
                    matcher.deliver(Packet::eager(envelope(next), Vec::new()), &mut events);
                    events.clear();
                    next += 1;
                }
            })
        });
        let match_oos = per_op(|| {
            let mut ns = 0.0;
            for _ in 0..BATCH / WINDOW {
                let window = next..next + WINDOW as u64;
                let packets: Vec<_> = window
                    .clone()
                    .rev()
                    .map(|s| Packet::eager(envelope(s), Vec::new()))
                    .collect();
                ns += timed(|| {
                    for token in window {
                        matcher.post_recv(recv(token));
                    }
                    for packet in packets {
                        matcher.deliver(packet, &mut events);
                    }
                });
                assert_eq!(events.len(), WINDOW, "every reversed message matched");
                events.clear();
                next += WINDOW as u64;
            }
            ns
        });

        let engine = ProgressEngine::new(Arc::clone(&pool), ProgressMode::Serial, 0);
        let progress_poll = per_op(|| {
            timed(|| {
                for _ in 0..BATCH {
                    black_box(engine.progress(Assignment::RoundRobin, &Idle));
                }
            })
        });

        Self {
            seq,
            cri_lock,
            cri_trylock,
            inject,
            rx_pop,
            cq_pop,
            match_inorder,
            match_oos,
            progress_poll,
        }
    }
}

/// Inject a batch from rank 0's instance, then drain rank 1's rx ring and
/// rank 0's completion queue; returns ns/op of each step.
fn inject_and_drain(fabric: &Fabric, pool: &CriPool, spc: &SpcSet) -> (f64, f64, f64) {
    let (mut inject, mut rx, mut cq) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..=BATCHES {
        let guard = pool.instance(0).lock(spc);
        let ns = timed(|| {
            for token in 0..BATCH as u64 {
                guard.send(
                    fabric,
                    Packet::eager(envelope(token), Vec::new()),
                    token,
                    spc,
                );
            }
        });
        drop(guard);
        let rx_ns = {
            let mut drain = fabric.context(1, 0).begin_drain();
            timed(|| {
                for _ in 0..BATCH {
                    black_box(drain.pop_rx().expect("injected packet"));
                }
            })
        };
        let cq_ns = {
            let mut drain = fabric.context(0, 0).begin_drain();
            timed(|| {
                for _ in 0..BATCH {
                    black_box(drain.pop_completion().expect("send completion"));
                }
            })
        };
        // Round 0 warms up.
        if round > 0 {
            inject.push(ns / BATCH as f64);
            rx.push(rx_ns / BATCH as f64);
            cq.push(cq_ns / BATCH as f64);
        }
    }
    (median(&inject), median(&rx), median(&cq))
}
