//! Ablation sweeps over the design choices DESIGN.md calls out: the
//! instance count beyond the paper's 20, the window size, and the lock
//! bounce penalty (the contention model's key constant). Every rate is
//! virtual (simulated time on the Alembert preset), so nothing here is
//! timed; the binary prints one line per point and writes no file.
//!
//! Usage: `cargo run --release -p fairmpi-bench --bin ablation`

use fairmpi_vsim::{Machine, MachinePreset, MultirateSim, SimAssignment, SimDesign, SimProgress};

fn multirate(pairs: usize, instances: usize, window: usize, machine: Machine) -> f64 {
    MultirateSim {
        machine,
        pairs,
        window,
        iterations: 4,
        design: SimDesign {
            instances,
            assignment: SimAssignment::Dedicated,
            progress: SimProgress::Serial,
            ..SimDesign::baseline()
        },
        seed: 1,
        cost: None,
    }
    .run()
    .msg_rate_per_s
}

fn main() {
    let machine = Machine::preset(MachinePreset::Alembert);

    // Instance-count sweep at 16 pairs: where does adding CRIs stop paying?
    // (The paper stops at 20; this probes past it.)
    for instances in [1usize, 4, 16, 32, 64] {
        let rate = multirate(16, instances, 32, machine.clone());
        println!("ablation instances={instances}: {rate:.0} msg/s (virtual)");
    }

    // Window-size sweep: how much outstanding traffic the receiver needs to
    // keep the pipeline busy.
    for window in [8usize, 32, 128] {
        let rate = multirate(8, 20, window, machine.clone());
        println!("ablation window={window}: {rate:.0} msg/s (virtual)");
    }

    // Lock bounce-penalty sensitivity: one instance shared by 16 pairs.
    for bounce in [0u64, 70, 300] {
        let mut machine = machine.clone();
        machine.sched.lock_bounce_ns = bounce;
        let rate = multirate(16, 1, 32, machine);
        println!("ablation bounce={bounce}ns (1 inst, 16 pairs): {rate:.0} msg/s (virtual)");
    }
}
