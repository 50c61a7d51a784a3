//! One-sided workload after RMA-MT (`-o put -s flush`): an origin thread on
//! rank 0 puts into a window on rank 1, a passive target that never enters
//! the library.
//!
//! One origin per world, not several: on a host with few cores, concurrent
//! origins contend on shared cache lines (the rank's counters, the window's
//! pending count), and whether their puts overlap changes the rate by a
//! factor of two or more from one repetition to the next. Two such origins
//! run side by side, each in a world of its own.
//!
//! Every repetition builds a fresh world and has two phases:
//!
//! * rate: `EPOCHS` epochs of `PUTS_PER_EPOCH` puts and one flush;
//! * latency: single put-and-flush round trips, each timed.
//!
//! Values come from the seed; after the rate phase the origin reads the
//! slots back from the target and checks the last value it put in each.

use std::time::Instant;

use fairmpi::{Counter, DesignConfig, WindowId, World};

use crate::stats::Rng;
use crate::{must, side_by_side, time_setup, Outcome};

/// Bytes per put.
const PUT_BYTES: usize = 8;
/// Puts between flushes (RMA-MT's default is 1000).
const PUTS_PER_EPOCH: usize = 1024;
/// Flush epochs per rate phase.
const EPOCHS: usize = 8;
/// Window slots, cycled through by put index.
const SLOTS: usize = 64;
/// Put-and-flush round trips per latency phase.
const PINGS: usize = 128;

fn build() -> (World, WindowId) {
    let design = DesignConfig::builder()
        .proposed(1)
        .build()
        .expect("the proposed design is valid");
    let world = World::builder().ranks(2).design(design).build();
    let win = world.allocate_window(SLOTS * PUT_BYTES);
    (world, win)
}

pub fn run(seed: u64, until: Instant) -> Outcome {
    side_by_side(|t| origin(Rng::new(seed ^ t).next_u64(), until))
}

/// One origin thread in a world of its own, until `until`.
fn origin(seed: u64, until: Instant) -> Outcome {
    let mut rng = Rng::new(seed);
    let values: Vec<_> = (0..256).map(|_| rng.next_u64().to_le_bytes()).collect();
    let value = |g: usize| &values[g % values.len()];
    let slot = |i: usize| (i % SLOTS) * PUT_BYTES;
    let mut out = Outcome::new();
    while Instant::now() < until {
        let (world, id) = build();
        let win = must(world.proc(0).window(id), "window");

        let start = Instant::now();
        let mut g = 0;
        for _ in 0..EPOCHS {
            for i in 0..PUTS_PER_EPOCH {
                must(win.put(1, slot(i), value(g)), "put");
                g += 1;
            }
            must(win.flush(1), "flush");
        }
        out.rate.push(g as f64 / start.elapsed().as_secs_f64());

        // The final pass over the slots put values g-SLOTS..g, in slot order.
        let expected: Vec<u8> = (g - SLOTS..g).flat_map(|j| *value(j)).collect();
        let target = must(world.proc(1).window(id), "target window");
        let landed = must(target.read_local(0, SLOTS * PUT_BYTES), "read back");

        for i in 0..PINGS {
            let start = Instant::now();
            must(win.put(1, slot(i), value(g + i)), "put");
            must(win.flush(1), "flush");
            out.latency_ns.push(start.elapsed().as_nanos() as f64);
        }
        let puts = (g + PINGS) as u64;
        let spc = world.proc(0).spc_snapshot();
        out.correct &= landed == expected && spc[Counter::RmaPuts] == puts;
        out.attempted += puts;
        out.spc = out.spc.merged_with(&spc);
        out.setup_s.push(time_setup(build));
    }
    out
}
