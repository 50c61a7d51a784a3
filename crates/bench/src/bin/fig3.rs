//! Regenerate paper Fig. 3: zero-byte message rate under serial progress
//! (a), concurrent progress (b), and concurrent progress + concurrent
//! matching (c), with ordering enforced.
//!
//! Usage: `cargo run --release -p fairmpi-bench --bin fig3 [-- --panel a|b|c]`
//! (no panel: all three). With `--trace <out.json>` or `--pvars <out.json>`
//! the sweep is replaced by one observed flagship run of one panel (see
//! `fairmpi_bench::observe`).

use fairmpi_bench::observe::Observe;
use fairmpi_bench::report::rate_report;
use fairmpi_bench::{check, figures, print_series, write_csv};

fn main() {
    let (observe, args) = Observe::from_env();
    let panels: Vec<char> = match args.iter().position(|a| a == "--panel") {
        Some(i) => vec![args[i + 1].chars().next().expect("panel letter")],
        None => vec!['a', 'b', 'c'],
    };

    // One output file, one observed run: default to panel a unless the
    // user picked one.
    if panels.len() > 1 && observe.active() {
        println!(
            "observability mode: tracing panel {} only (pass --panel to choose)",
            panels[0]
        );
    }
    if observe.maybe_run(
        &format!("fig3{} flagship (1 inst / round-robin)", panels[0]),
        || figures::fig3_flagship(panels[0]),
    ) {
        return;
    }

    let mut all = Vec::new();
    for panel in panels {
        let series = figures::fig3(panel);
        let name = format!("fig3{panel}");
        print_series(
            &format!("Fig 3{panel}: 0-byte msg rate (msg/s) vs thread pairs"),
            &series,
        );
        let path = write_csv(&name, &series).expect("write csv");
        println!("wrote {}", path.display());
        all.push((panel, series));
    }

    let groups: Vec<(String, Vec<fairmpi_bench::Series>)> = all
        .iter()
        .map(|(panel, series)| (format!("3{panel}: "), series.clone()))
        .collect();
    let path = rate_report("fig3", &groups)
        .write()
        .expect("write bench report");
    println!("wrote {}", path.display());

    // Qualitative checks from DESIGN.md §5 (only meaningful when all three
    // panels were produced).
    if all.len() == 3 {
        let a = &all[0].1;
        let b = &all[1].1;
        let c = &all[2].1;
        let find = |s: &[fairmpi_bench::Series], label: &str| {
            s.iter()
                .find(|x| x.label == label)
                .unwrap_or_else(|| panic!("missing series {label}"))
                .clone()
        };
        let a_1 = find(a, "1 inst / dedicated");
        let a_20 = find(a, "20 inst / dedicated");
        check(
            "3a: 20 dedicated CRIs beat the single shared instance at 20 pairs (≈2x)",
            a_20.last() > 1.5 * a_1.last(),
        );
        check(
            "3a: single instance degrades as threads contend (peak > last point)",
            a_1.points.iter().map(|p| p.mean).fold(0.0, f64::max) > a_1.last() * 1.1,
        );
        let b_20 = find(b, "20 inst / dedicated");
        check(
            "3b: concurrent progress does not beat serial progress (bottleneck moved to matching)",
            b_20.last() <= a_20.last() * 1.15,
        );
        let c_20 = find(c, "20 inst / dedicated");
        check(
            "3c: concurrent matching scales past both (max over panel a)",
            c_20.points.iter().map(|p| p.mean).fold(0.0, f64::max)
                > a_20.points.iter().map(|p| p.mean).fold(0.0, f64::max),
        );
        let c_rr = find(c, "20 inst / round-robin");
        check(
            "3c: round-robin also improves with threads once matching is concurrent",
            c_rr.last() > c_rr.points[0].mean,
        );
    }
}
