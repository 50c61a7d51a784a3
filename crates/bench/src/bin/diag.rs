//! Diagnostic: run one Multirate design point and dump every counter plus
//! derived per-message costs. Not a paper figure; a calibration aid.
//!
//! Usage: `diag [pairs] [instances] [serial|concurrent] [single|perpair]
//! [--trace out.json] [--pvars out.json]`

use fairmpi_bench::figures::presets;
use fairmpi_bench::observe::Observe;
use fairmpi_bench::report::{BenchReport, Better, Metric};
use fairmpi_spc::Counter;
use fairmpi_vsim::workload::multirate::SimMatchLayout;
use fairmpi_vsim::{Machine, MachinePreset, MultirateSim, SimAssignment, SimProgress};

fn main() {
    let (observe, args) = Observe::from_env();
    let pairs: usize = args.get(1).map(|s| s.parse().unwrap()).unwrap_or(20);
    let instances: usize = args.get(2).map(|s| s.parse().unwrap()).unwrap_or(20);
    let progress = match args.get(3).map(|s| s.as_str()) {
        Some("concurrent") => SimProgress::Concurrent,
        _ => SimProgress::Serial,
    };
    let matching = match args.get(4).map(|s| s.as_str()) {
        Some("perpair") => SimMatchLayout::CommPerPair,
        _ => SimMatchLayout::SingleComm,
    };
    let sim = MultirateSim {
        machine: Machine::preset(MachinePreset::Alembert),
        pairs,
        window: 128,
        iterations: 20,
        design: presets::cell(
            instances,
            SimAssignment::Dedicated,
            progress,
            matching,
            false,
        ),
        seed: 0xD1A6,
        cost: None,
    };
    let r = if observe.active() {
        observe.run(
            &format!("diag {pairs}p/{instances}i {progress:?}/{matching:?}"),
            &sim,
        )
    } else {
        sim.run()
    };
    println!(
        "pairs={pairs} inst={instances} {progress:?} {matching:?}: \
         {:.0} msg/s, makespan {:.3} ms, {} msgs",
        r.msg_rate_per_s,
        r.makespan_ns as f64 / 1e6,
        r.total_messages
    );
    println!(
        "per-message virtual time: {:.0} ns",
        r.makespan_ns as f64 / r.total_messages as f64
    );
    for (c, v) in r.spc.iter() {
        if v != 0 {
            println!(
                "  {:<32} {:>12}  ({:.2}/msg)",
                c.name(),
                v,
                v as f64 / r.total_messages as f64
            );
        }
    }

    let mut report = BenchReport::new("diag");
    report.push_meta("pairs", pairs as u64);
    report.push_meta("instances", instances as u64);
    report.push_meta("progress", format!("{progress:?}"));
    report.push_meta("matching", format!("{matching:?}"));
    let metric = |mean: f64, better: Better| Metric {
        mean,
        stddev: 0.0,
        better,
    };
    report.push_point(
        "diag",
        pairs as f64,
        vec![
            (
                "msg_rate_per_s".to_string(),
                metric(r.msg_rate_per_s, Better::Higher),
            ),
            (
                "out_of_sequence_messages".to_string(),
                metric(r.spc[Counter::OutOfSequenceMessages] as f64, Better::Lower),
            ),
            (
                "match_time_ns".to_string(),
                metric(r.spc[Counter::MatchTimeNanos] as f64, Better::Lower),
            ),
            (
                "instance_try_lock_failures".to_string(),
                metric(
                    r.spc[Counter::InstanceTryLockFailures] as f64,
                    Better::Lower,
                ),
            ),
            (
                "progress_wasted_passes".to_string(),
                metric(r.spc[Counter::ProgressWastedPasses] as f64, Better::Lower),
            ),
        ],
    );
    let path = report.write().expect("write bench report");
    println!("wrote {}", path.display());
}
