//! The software-offload comparison (DESIGN.md §8) — the design point the
//! paper leaves on the table: dedicated communication threads fed by
//! lock-free command queues, swept against a big-lock implementation, the
//! paper's CRI designs, and process mode. Not a paper figure; the axes
//! match Fig. 5 so the curves are directly comparable.

use fairmpi_bench::observe::Observe;
use fairmpi_bench::report::rate_report;
use fairmpi_bench::{check, figures, print_series, write_csv};

fn main() {
    let (observe, _args) = Observe::from_env();
    if observe.maybe_run(
        "fig_offload flagship (Offload x2)",
        figures::fig_offload_flagship,
    ) {
        return;
    }

    let series = figures::fig_offload();
    print_series(
        "Offload: 0-byte msg rate (msg/s) vs communication pairs",
        &series,
    );
    let path = write_csv("fig_offload", &series).expect("write csv");
    println!("wrote {}", path.display());
    let path = rate_report("fig_offload", &[(String::new(), series.clone())])
        .write()
        .expect("write bench report");
    println!("wrote {}", path.display());

    let find = |label: &str| {
        series
            .iter()
            .find(|s| s.label == label)
            .unwrap_or_else(|| panic!("missing series {label}"))
            .clone()
    };
    let process = find("Process");
    let big = find("Big-lock Thread");
    let cris = find("Thread + CRIs");
    let star = find("Thread + CRIs*");
    let off1 = find("Offload x1");
    let off2 = find("Offload x2");
    let off4 = find("Offload x4");

    check(
        "offload: every worker count clears the big-lock baseline at full load",
        off1.last() > big.last() && off2.last() > big.last() && off4.last() > big.last(),
    );
    // "High thread counts": the ISSUE pegs the comparison at >= 16 pairs.
    // When FAIRMPI_MAX_PAIRS is trimmed below that (CI smoke runs), the
    // last point is the closest stand-in.
    let high_x = series[0]
        .points
        .last()
        .map(|p| p.x)
        .unwrap_or(1.0)
        .min(16.0);
    let at_high = |s: &fairmpi_bench::Series| s.at(high_x).expect("swept point");
    check(
        "offload: best worker count matches or beats CRIs* at high pair counts",
        at_high(&off2).max(at_high(&off4)) >= at_high(&star),
    );
    check(
        "offload: CRIs remain below the offloaded designs at full load",
        off2.last().max(off4.last()) > cris.last(),
    );
    // Process mode scales with the pair count while offload capacity
    // scales with the worker count, so four workers legitimately beat
    // three pairs' worth of processes — the comparison only means
    // something once the grid has more pairs than the widest offload
    // configuration. Degenerate CI grids skip it.
    let full_x = series[0].points.last().map(|p| p.x).unwrap_or(1.0);
    if full_x > 4.0 {
        check(
            "offload: still does not reach process mode",
            off1.last() < process.last()
                && off2.last() < process.last()
                && off4.last() < process.last(),
        );
    } else {
        println!(
            "[check] offload: still does not reach process mode ... SKIP \
             (grid stops at {full_x} pairs, fewer than the 4 offload workers)"
        );
    }
}
