//! One-sided histogram: many threads scatter atomic updates into a window
//! owned by a "server" rank that never participates — the passive-target
//! pattern (`MPI_Accumulate`/`MPI_Fetch_and_op` + `MPI_Win_flush`) the
//! paper's §IV-F stresses with RMA-MT.
//!
//! Run with: `cargo run --example rma_histogram`

use std::sync::Arc;

use fairmpi::{Counter, DesignConfig, World};
use fairmpi_chaos::rng::Xoshiro256;

const BINS: usize = 32;
const THREADS: usize = 4;
const SAMPLES_PER_THREAD: usize = 2_000;

fn main() {
    // Rank 1 hosts the histogram; rank 0's threads fill it remotely.
    // One CRI per thread keeps the origin instances uncontended, exactly
    // as Figs. 6/7 recommend.
    let world = Arc::new(
        World::builder()
            .ranks(2)
            .design(DesignConfig::builder().proposed(THREADS).build().unwrap())
            .build(),
    );
    let win_id = world.allocate_window(BINS * 8);

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let world = Arc::clone(&world);
            std::thread::spawn(move || {
                let proc = world.proc(0);
                let win = proc.window(win_id).expect("window");
                let mut rng = Xoshiro256::seed_from_u64(t as u64);
                for _ in 0..SAMPLES_PER_THREAD {
                    let bin = rng.below(BINS as u64) as usize;
                    // Remote atomic increment of the bin.
                    win.fetch_add(1, bin * 8, 1).expect("fetch_add");
                }
                // Passive-target completion: nothing required of rank 1.
                win.flush(1).expect("flush");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // The target reads its own exposed memory.
    let server = world.proc(1).window(win_id).expect("window");
    let mut total = 0u64;
    let mut min = u64::MAX;
    let mut max = 0u64;
    println!(
        "histogram (32 bins, {} samples):",
        THREADS * SAMPLES_PER_THREAD
    );
    for bin in 0..BINS {
        let v = u64::from_le_bytes(server.read_local(bin * 8, 8).unwrap().try_into().unwrap());
        total += v;
        min = min.min(v);
        max = max.max(v);
        println!("  bin {bin:>2}: {v:>5} {}", "#".repeat((v / 8) as usize));
    }
    assert_eq!(
        total,
        (THREADS * SAMPLES_PER_THREAD) as u64,
        "every atomic increment must land exactly once"
    );
    println!("total {total}, min bin {min}, max bin {max}");
    println!(
        "accumulates issued: {}, flushes: {}",
        world.proc(0).spc().get(Counter::RmaAccumulates),
        world.proc(0).spc().get(Counter::RmaFlushes)
    );
}
