//! Figure/table regeneration harnesses.
//!
//! One module per experiment; the binaries in `src/bin/` are thin wrappers
//! so that `cargo run -p fairmpi-bench --bin fig3` regenerates paper
//! Fig. 3, etc. Results are written as CSV under `results/` and a textual
//! summary (including the qualitative checks listed in DESIGN.md §5) is
//! printed to stdout.
//!
//! Environment knobs (all optional):
//!
//! * `FAIRMPI_REPS` — repetitions per point (default 3); the paper reports
//!   mean and standard deviation.
//! * `FAIRMPI_ITERS` — windows per pair (default 40 for the sweep figures;
//!   `table2` defaults to the paper's full 1010).
//! * `FAIRMPI_MAX_PAIRS` — x-axis maximum for Figs. 3-5 (default 20).
//! * `FAIRMPI_RMA_OPS` — puts per thread for Figs. 6-7 (default 1000).
//! * `FAIRMPI_SPC_INTERVAL_US` — interval of the `--pvars` scrape
//!   time-series in virtual microseconds (default 50).
//!
//! The fig3, fig5, table2, fig_offload, fig_degradation and diag binaries
//! also accept `--trace <out.json>` (Perfetto trace + lock-contention
//! report) and `--pvars <out.json>` (MPI_T-style performance-variable
//! snapshot with a per-interval time-series of every pvar, plus a
//! Prometheus page); see [`observe`] for how observability mode changes
//! what runs. Every binary but `ablation` (which only prints its virtual
//! rates) additionally writes a versioned machine-readable result file
//! `results/BENCH_<name>.json`; diff two of them with the `fairmpi-report`
//! binary (see [`report`]).

pub mod figures;
pub mod observe;
pub mod report;
pub mod stats;

use std::fs;
use std::path::Path;

/// One measured point of a series.
#[derive(Debug, Clone)]
pub struct Point {
    /// X coordinate (thread pairs, threads, ...).
    pub x: f64,
    /// Mean of the metric over repetitions.
    pub mean: f64,
    /// Standard deviation over repetitions.
    pub stddev: f64,
}

/// One figure series (a labeled line).
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Points in x order.
    pub points: Vec<Point>,
}

impl Series {
    /// The mean at a given x, if present.
    pub fn at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.x - x).abs() < 1e-9)
            .map(|p| p.mean)
    }

    /// The mean of the last point.
    pub fn last(&self) -> f64 {
        self.points.last().map(|p| p.mean).unwrap_or(0.0)
    }
}

/// Read an env knob with a default (thin wrapper over the runtime's typed
/// env layer so harness typos surface through the same one-shot report).
pub fn env_usize(name: &str, default: usize) -> usize {
    fairmpi::env::parse_or(name, default)
}

/// Write series as CSV: `figure,series,x,mean,stddev`.
pub fn write_csv(figure: &str, series: &[Series]) -> std::io::Result<std::path::PathBuf> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{figure}.csv"));
    let mut out = String::from("figure,series,x,mean,stddev\n");
    for s in series {
        for p in &s.points {
            out.push_str(&format!(
                "{figure},{},{},{:.3},{:.3}\n",
                s.label, p.x, p.mean, p.stddev
            ));
        }
    }
    fs::write(&path, out)?;
    Ok(path)
}

/// Print a series table to stdout in a readable grid.
pub fn print_series(title: &str, series: &[Series]) {
    println!("\n== {title} ==");
    for s in series {
        print!("{:<28}", s.label);
        for p in &s.points {
            print!(" {:>10.0}", p.mean);
        }
        println!();
    }
}

/// Print a `[check]` line with a PASS/FAIL verdict for a qualitative
/// claim; returns whether it held.
pub fn check(claim: &str, held: bool) -> bool {
    println!(
        "[check] {} ... {}",
        claim,
        if held { "PASS" } else { "FAIL" }
    );
    held
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accessors() {
        let s = Series {
            label: "x".into(),
            points: vec![
                Point {
                    x: 1.0,
                    mean: 10.0,
                    stddev: 0.0,
                },
                Point {
                    x: 2.0,
                    mean: 20.0,
                    stddev: 1.0,
                },
            ],
        };
        assert_eq!(s.at(1.0), Some(10.0));
        assert_eq!(s.at(3.0), None);
        assert_eq!(s.last(), 20.0);
    }

    #[test]
    fn env_default_applies() {
        assert_eq!(env_usize("FAIRMPI_DOES_NOT_EXIST", 7), 7);
    }
}
