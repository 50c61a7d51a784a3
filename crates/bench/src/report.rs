//! Versioned machine-readable benchmark results (`results/BENCH_*.json`)
//! and the regression comparator behind the `fairmpi-report` binary.
//!
//! Every bench binary emits one `BenchReport` next to its CSVs. The format
//! is self-describing: each metric carries its own `better` direction, so
//! the comparator needs no per-benchmark knowledge — message rates
//! (`higher`) and out-of-sequence counts (`lower`) are diffed by the same
//! code. `fairmpi-report old.json new.json` flags any metric that moved in
//! its bad direction beyond a noise threshold.

use std::path::{Path, PathBuf};

use fairmpi_mpit::json::{parse, Value};

use crate::Series;

/// Schema identifier written into every result file.
pub const BENCH_SCHEMA: &str = "fairmpi.bench";
/// Current schema version; bump when the layout changes incompatibly.
pub const BENCH_VERSION: u64 = 1;
/// Default relative noise threshold for regression flagging.
pub const DEFAULT_NOISE: f64 = 0.05;

/// Which direction of change is an improvement for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Bigger is better (message rates).
    Higher,
    /// Smaller is better (out-of-sequence counts, match time).
    Lower,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// One measured metric of one point.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Mean over repetitions.
    pub mean: f64,
    /// Standard deviation over repetitions (0 for single-shot metrics).
    pub stddev: f64,
    /// Improvement direction.
    pub better: Better,
}

/// One design point: a series label, an x coordinate, and its metrics.
#[derive(Debug, Clone)]
pub struct BenchPoint {
    /// Series label (design point / figure line).
    pub series: String,
    /// X coordinate (thread pairs, instances, ...).
    pub x: f64,
    /// Named metrics in insertion order.
    pub metrics: Vec<(String, Metric)>,
}

/// A full benchmark result file.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Benchmark name (`fig3`, `table2`, ...); names the output file.
    pub bench: String,
    /// Free-form run metadata (iteration counts, seeds, knobs).
    pub meta: Vec<(String, Value)>,
    /// All measured points.
    pub points: Vec<BenchPoint>,
}

impl BenchReport {
    /// An empty report for benchmark `bench`.
    pub fn new(bench: &str) -> Self {
        Self {
            bench: bench.to_string(),
            meta: Vec::new(),
            points: Vec::new(),
        }
    }

    /// Attach one metadata field.
    pub fn push_meta(&mut self, key: &str, value: impl Into<Value>) {
        self.meta.push((key.to_string(), value.into()));
    }

    /// Add every point of a figure's series under metric `metric`.
    ///
    /// `prefix` distinguishes same-named series across panels
    /// (`"3a: 1 inst / dedicated"`).
    pub fn push_series(&mut self, prefix: &str, series: &[Series], metric: &str, better: Better) {
        for s in series {
            for p in &s.points {
                self.points.push(BenchPoint {
                    series: if prefix.is_empty() {
                        s.label.clone()
                    } else {
                        format!("{prefix}{}", s.label)
                    },
                    x: p.x,
                    metrics: vec![(
                        metric.to_string(),
                        Metric {
                            mean: p.mean,
                            stddev: p.stddev,
                            better,
                        },
                    )],
                });
            }
        }
    }

    /// Add one multi-metric point.
    pub fn push_point(&mut self, series: &str, x: f64, metrics: Vec<(String, Metric)>) {
        self.points.push(BenchPoint {
            series: series.to_string(),
            x,
            metrics,
        });
    }

    /// Serialize to the schema-v1 JSON tree.
    pub fn to_value(&self) -> Value {
        let points = self
            .points
            .iter()
            .map(|p| {
                let metrics = p
                    .metrics
                    .iter()
                    .map(|(name, m)| {
                        (
                            name.clone(),
                            Value::Obj(vec![
                                ("mean".to_string(), Value::Num(m.mean)),
                                ("stddev".to_string(), Value::Num(m.stddev)),
                                ("better".to_string(), Value::from(m.better.name())),
                            ]),
                        )
                    })
                    .collect();
                Value::Obj(vec![
                    ("series".to_string(), Value::from(p.series.clone())),
                    ("x".to_string(), Value::Num(p.x)),
                    ("metrics".to_string(), Value::Obj(metrics)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".to_string(), Value::from(BENCH_SCHEMA)),
            ("version".to_string(), Value::from(BENCH_VERSION)),
            ("bench".to_string(), Value::from(self.bench.clone())),
            ("meta".to_string(), Value::Obj(self.meta.clone())),
            ("points".to_string(), Value::Arr(points)),
        ])
    }

    /// Write `results/BENCH_<bench>.json`; returns the path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.bench));
        std::fs::write(&path, self.to_value().render())?;
        Ok(path)
    }

    /// Parse a report back from its JSON tree.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        if v.get("schema").and_then(|s| s.as_str()) != Some(BENCH_SCHEMA) {
            return Err(format!("not a {BENCH_SCHEMA} file"));
        }
        let version = v
            .get("version")
            .and_then(|n| n.as_u64())
            .ok_or("missing version")?;
        if version != BENCH_VERSION {
            return Err(format!(
                "schema version {version} unsupported (expected {BENCH_VERSION})"
            ));
        }
        let bench = v
            .get("bench")
            .and_then(|s| s.as_str())
            .ok_or("missing bench name")?
            .to_string();
        let meta = v
            .get("meta")
            .and_then(|m| m.as_obj())
            .map(|m| m.to_vec())
            .unwrap_or_default();
        let mut points = Vec::new();
        for (i, p) in v
            .get("points")
            .and_then(|p| p.as_arr())
            .ok_or("missing points array")?
            .iter()
            .enumerate()
        {
            let series = p
                .get("series")
                .and_then(|s| s.as_str())
                .ok_or_else(|| format!("point {i}: missing series"))?
                .to_string();
            let x = p
                .get("x")
                .and_then(|x| x.as_f64())
                .ok_or_else(|| format!("point {i}: missing x"))?;
            let mut metrics = Vec::new();
            for (name, m) in p
                .get("metrics")
                .and_then(|m| m.as_obj())
                .ok_or_else(|| format!("point {i}: missing metrics"))?
            {
                let mean = m
                    .get("mean")
                    .and_then(|n| n.as_f64())
                    .ok_or_else(|| format!("point {i}/{name}: missing mean"))?;
                let stddev = m.get("stddev").and_then(|n| n.as_f64()).unwrap_or(0.0);
                let better = m
                    .get("better")
                    .and_then(|b| b.as_str())
                    .and_then(Better::from_name)
                    .ok_or_else(|| format!("point {i}/{name}: missing better direction"))?;
                metrics.push((
                    name.clone(),
                    Metric {
                        mean,
                        stddev,
                        better,
                    },
                ));
            }
            points.push(BenchPoint { series, x, metrics });
        }
        Ok(Self {
            bench,
            meta,
            points,
        })
    }

    /// Load a report file from disk.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let value = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_value(&value).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Build the standard rate report for a sweep figure: `groups` pairs a
/// point-label prefix (panel, message size) with that group's series; the
/// single metric is `msg_rate_per_s`, higher-is-better.
pub fn rate_report(bench: &str, groups: &[(String, Vec<Series>)]) -> BenchReport {
    let mut report = BenchReport::new(bench);
    report.push_meta("reps", crate::env_usize("FAIRMPI_REPS", 3) as u64);
    report.push_meta("iterations", crate::env_usize("FAIRMPI_ITERS", 40) as u64);
    for (prefix, series) in groups {
        report.push_series(prefix, series, "msg_rate_per_s", Better::Higher);
    }
    report
}

/// Build the Table II report: one point per (group, instance count) with
/// the paper's two SPC metrics plus the derived fraction, all
/// lower-is-better.
pub fn table2_report(iterations: usize, cells: &[crate::figures::Table2Cell]) -> BenchReport {
    let mut report = BenchReport::new("table2");
    report.push_meta("iterations", iterations as u64);
    report.push_meta("pairs", 20u64);
    report.push_meta("window", 128u64);
    for cell in cells {
        let lower = |mean: f64| Metric {
            mean,
            stddev: 0.0,
            better: Better::Lower,
        };
        report.push_point(
            cell.group,
            cell.instances as f64,
            vec![
                (
                    "out_of_sequence_messages".to_string(),
                    lower(cell.oos as f64),
                ),
                ("oos_fraction".to_string(), lower(cell.oos_fraction)),
                ("match_time_ms".to_string(), lower(cell.match_time_ms)),
            ],
        );
    }
    report
}

/// One metric that moved between two reports.
#[derive(Debug, Clone)]
pub struct Delta {
    /// `series @ x / metric` identifier.
    pub what: String,
    /// Baseline mean.
    pub base: f64,
    /// Candidate mean.
    pub cand: f64,
    /// Relative change in the metric's *bad* direction (positive = worse).
    pub worse_frac: f64,
}

/// The outcome of comparing a candidate report against a baseline.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Metrics present in both reports.
    pub compared: usize,
    /// Metrics that got worse beyond the noise threshold.
    pub regressions: Vec<Delta>,
    /// Metrics that improved beyond the noise threshold.
    pub improvements: Vec<Delta>,
    /// Points present in the baseline but absent from the candidate.
    pub missing: Vec<String>,
}

/// Diff `candidate` against `baseline`: a metric regresses when it moves in
/// its bad direction by more than `noise` (relative) *and* more than twice
/// the larger stddev (so noisy sweep points don't flap). Points are matched
/// by `(series, x)` and metrics by name.
pub fn compare(baseline: &BenchReport, candidate: &BenchReport, noise: f64) -> Comparison {
    let mut out = Comparison::default();
    for bp in &baseline.points {
        let Some(cp) = candidate
            .points
            .iter()
            .find(|p| p.series == bp.series && (p.x - bp.x).abs() < 1e-9)
        else {
            out.missing.push(format!("{} @ x={}", bp.series, bp.x));
            continue;
        };
        for (name, bm) in &bp.metrics {
            let Some((_, cm)) = cp.metrics.iter().find(|(n, _)| n == name) else {
                out.missing
                    .push(format!("{} @ x={} / {name}", bp.series, bp.x));
                continue;
            };
            out.compared += 1;
            // Positive `worse` = moved in the bad direction.
            let worse = match bm.better {
                Better::Higher => bm.mean - cm.mean,
                Better::Lower => cm.mean - bm.mean,
            };
            let scale = bm.mean.abs().max(1e-9);
            let noise_floor = noise * scale + 2.0 * bm.stddev.max(cm.stddev);
            let delta = Delta {
                what: format!("{} @ x={} / {name}", bp.series, bp.x),
                base: bm.mean,
                cand: cm.mean,
                worse_frac: worse / scale,
            };
            if worse > noise_floor {
                out.regressions.push(delta);
            } else if -worse > noise_floor {
                out.improvements.push(delta);
            }
        }
    }
    out.regressions
        .sort_by(|a, b| b.worse_frac.total_cmp(&a.worse_frac));
    out
}

/// Validate a `--pvars` dump (the CI smoke check): parses, carries the
/// `fairmpi.pvars` schema, has a non-empty, well-formed `pvars` array, and
/// a non-empty scrape `series` whose rows are strictly increasing in
/// `t_ns`, each carry a value for every `series_columns` entry (which name
/// every scalar pvar), and never see a COUNTER or TIMER pvar fall. Returns
/// the number of pvars on success.
pub fn validate_pvars(text: &str) -> Result<usize, String> {
    let v = parse(text)?;
    if v.get("schema").and_then(|s| s.as_str()) != Some("fairmpi.pvars") {
        return Err("missing fairmpi.pvars schema marker".to_string());
    }
    v.get("version")
        .and_then(|n| n.as_u64())
        .ok_or("missing version")?;
    let pvars = v
        .get("pvars")
        .and_then(|p| p.as_arr())
        .filter(|p| !p.is_empty())
        .ok_or("missing or empty pvars array")?;
    let mut nonzero = 0usize;
    // (name, whether the class is monotonic) of every scalar pvar.
    let mut scalars = Vec::new();
    for (i, p) in pvars.iter().enumerate() {
        let name = p
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or_else(|| format!("pvar {i}: missing name"))?;
        let class = p
            .get("class")
            .and_then(|c| c.as_str())
            .ok_or_else(|| format!("pvar {i}: missing class"))?;
        let scalar = p.get("value").and_then(|v| v.as_u64());
        let buckets = p.get("buckets").and_then(|b| b.as_arr());
        match (scalar, buckets) {
            (Some(v), None) => {
                nonzero += (v != 0) as usize;
                scalars.push((name, matches!(class, "counter" | "timer")));
            }
            (None, Some(b)) => nonzero += b.iter().any(|v| v.as_u64() != Some(0)) as usize,
            _ => return Err(format!("pvar {i}: needs a value or buckets")),
        }
    }
    if nonzero == 0 {
        return Err("every pvar is zero — the run recorded nothing".to_string());
    }

    // The scrape: `series_columns` names the values of every `series` row
    // once; each scalar pvar must have a column.
    let columns: Vec<&str> = v
        .get("series_columns")
        .and_then(|c| c.as_arr())
        .ok_or("missing series_columns array")?
        .iter()
        .map(|c| c.as_str().ok_or("series_columns: non-string entry"))
        .collect::<Result<_, _>>()?;
    if columns.first() != Some(&"t_ns") {
        return Err("series_columns must start with t_ns".to_string());
    }
    // (name, column) of every COUNTER/TIMER pvar: those may never fall.
    let mut monotonic = Vec::new();
    for &(name, is_monotonic) in &scalars {
        let col = columns
            .iter()
            .position(|c| *c == name)
            .ok_or_else(|| format!("series_columns lacks scalar pvar {name}"))?;
        monotonic.extend(is_monotonic.then_some((name, col)));
    }
    let series = v
        .get("series")
        .and_then(|s| s.as_arr())
        .filter(|s| !s.is_empty())
        .ok_or("missing or empty series array")?;
    let mut prev: Vec<u64> = Vec::new();
    for (r, row) in series.iter().enumerate() {
        let row: Vec<u64> = row
            .as_arr()
            .filter(|row| row.len() == columns.len())
            .ok_or_else(|| format!("series row {r}: needs {} values", columns.len()))?
            .iter()
            .map(|x| x.as_u64())
            .collect::<Option<_>>()
            .ok_or_else(|| format!("series row {r}: non-integer value"))?;
        if r > 0 {
            if row[0] <= prev[0] {
                return Err(format!("series row {r}: t_ns does not increase"));
            }
            if let Some((name, _)) = monotonic.iter().find(|&&(_, c)| row[c] < prev[c]) {
                return Err(format!("series row {r}: {name} decreased"));
            }
        }
        prev = row;
    }
    Ok(pvars.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    fn sample_report() -> BenchReport {
        let mut r = BenchReport::new("unit");
        r.push_meta("iterations", 40u64);
        r.push_series(
            "p: ",
            &[Series {
                label: "base".to_string(),
                points: vec![
                    Point {
                        x: 1.0,
                        mean: 1000.0,
                        stddev: 10.0,
                    },
                    Point {
                        x: 2.0,
                        mean: 1800.0,
                        stddev: 20.0,
                    },
                ],
            }],
            "msg_rate_per_s",
            Better::Higher,
        );
        r.push_point(
            "counters",
            20.0,
            vec![(
                "oos".to_string(),
                Metric {
                    mean: 500.0,
                    stddev: 0.0,
                    better: Better::Lower,
                },
            )],
        );
        r
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample_report();
        let text = r.to_value().render();
        let back = BenchReport::from_value(&parse(&text).unwrap()).unwrap();
        assert_eq!(back.bench, "unit");
        assert_eq!(back.points.len(), r.points.len());
        assert_eq!(back.points[0].series, "p: base");
        assert_eq!(back.points[2].metrics[0].1.better, Better::Lower);
    }

    #[test]
    fn self_comparison_reports_zero_regressions() {
        let r = sample_report();
        let c = compare(&r, &r, DEFAULT_NOISE);
        assert_eq!(c.compared, 3);
        assert!(c.regressions.is_empty());
        assert!(c.improvements.is_empty());
        assert!(c.missing.is_empty());
    }

    #[test]
    fn direction_aware_regression_detection() {
        let base = sample_report();
        let mut cand = sample_report();
        // Rate down 50% → regression for a higher-is-better metric.
        cand.points[0].metrics[0].1.mean = 500.0;
        // OOS down 50% → *improvement* for a lower-is-better metric.
        cand.points[2].metrics[0].1.mean = 250.0;
        let c = compare(&base, &cand, DEFAULT_NOISE);
        assert_eq!(c.regressions.len(), 1);
        assert!(c.regressions[0].what.contains("msg_rate_per_s"));
        assert_eq!(c.improvements.len(), 1);
        assert!(c.improvements[0].what.contains("oos"));
    }

    #[test]
    fn noise_threshold_suppresses_small_moves() {
        let base = sample_report();
        let mut cand = sample_report();
        cand.points[0].metrics[0].1.mean = 990.0; // -1% on 5% noise: fine
        let c = compare(&base, &cand, DEFAULT_NOISE);
        assert!(c.regressions.is_empty());
    }

    #[test]
    fn missing_points_are_reported_not_ignored() {
        let base = sample_report();
        let mut cand = sample_report();
        cand.points.remove(2);
        let c = compare(&base, &cand, DEFAULT_NOISE);
        assert_eq!(c.missing.len(), 1);
        assert!(c.missing[0].contains("counters"));
    }

    #[test]
    fn pvars_validation_accepts_good_and_rejects_bad() {
        // A counter, a low watermark (free to fall) and a histogram (not
        // required as a column) under given `series_columns` and `series`.
        let dump_with = |sent: u64, columns: &str, series: &str| {
            format!(
                r#"{{"schema": "fairmpi.pvars", "version": 2,
                "pvars": [{{"name": "messages_sent", "class": "counter", "value": {sent}}},
                          {{"name": "depth_lwm", "class": "lowwatermark", "value": 0}},
                          {{"name": "hist", "class": "histogram", "buckets": [0], "sum": 0, "count": 0}}],
                "series_columns": {columns},
                "series": {series}}}"#
            )
        };
        let columns = r#"["t_ns", "messages_sent", "depth_lwm"]"#;
        let dump = |sent: u64, series: &str| dump_with(sent, columns, series);
        let good = "[[10, 2, 3], [20, 5, 1]]";
        assert_eq!(validate_pvars(&dump(5, good)), Ok(3));
        assert!(validate_pvars(&dump(0, good)).is_err(), "all zero");
        let missing = r#"{"schema": "fairmpi.pvars", "version": 2,
            "pvars": [{"name": "messages_sent", "class": "counter", "value": 5}]}"#;
        assert!(validate_pvars(missing).is_err(), "no series");
        assert!(validate_pvars(&dump(5, "[]")).is_err(), "empty series");
        assert!(
            validate_pvars(&dump(5, "[[10, 2, 3], [10, 5, 1]]")).is_err(),
            "t_ns repeats"
        );
        assert!(
            validate_pvars(&dump(5, "[[10, 2, 3], [20, 5]]")).is_err(),
            "row lacks a pvar"
        );
        let no_lwm = r#"["t_ns", "messages_sent"]"#;
        assert!(
            validate_pvars(&dump_with(5, no_lwm, "[[10, 2], [20, 5]]")).is_err(),
            "columns lack a scalar pvar"
        );
        let t_not_first = r#"["messages_sent", "t_ns", "depth_lwm"]"#;
        assert!(
            validate_pvars(&dump_with(5, t_not_first, good)).is_err(),
            "t_ns is not the first column"
        );
        assert!(
            validate_pvars(&dump(5, "[[10, 5, 3], [20, 2, 1]]")).is_err(),
            "counter fell"
        );
        let empty = r#"{"schema": "fairmpi.pvars", "version": 2, "pvars": []}"#;
        assert!(validate_pvars(empty).is_err());
        assert!(validate_pvars("not json").is_err());
        assert!(validate_pvars(r#"{"schema": "other"}"#).is_err());
    }
}
