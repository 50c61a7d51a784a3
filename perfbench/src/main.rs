//! `perfbench`: wall-clock benchmark of the fairmpi runtime and of the
//! layers on its message path.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones (`rate`, `latency_us`, `setup_s`); with
//! `--trace 1` they are the per-layer budget and counters. Earlier lines
//! give each metric's sample count and tail. See `perfbench/README.md`.

mod layers;
mod p2p;
mod rma;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fairmpi::{Counter, DesignConfig, SpcSnapshot};

use layers::Budget;
use stats::{median, tail};

/// What one workload run measured.
pub struct Outcome {
    /// Every output the run checked was as expected.
    pub correct: bool,
    /// Operations issued: messages or puts.
    pub attempted: u64,
    /// Operations per second, one sample per repetition.
    pub rate: Vec<f64>,
    /// Latency of single operations, in nanoseconds.
    pub latency_ns: Vec<f64>,
    /// Set-up times in seconds, one sample per repetition.
    pub setup_s: Vec<f64>,
    /// Counters over everything the run did after set-up.
    pub spc: SpcSnapshot,
}

impl Outcome {
    fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            rate: Vec::new(),
            latency_ns: Vec::new(),
            setup_s: Vec::new(),
            spc: SpcSnapshot::zero(),
        }
    }
}

/// Run `worker(t)` for `t` in `0..2` on two threads side by side and pool
/// what they measured. Used by the single-threaded workloads: on a two-core
/// host shared with other tenants each core's speed drifts on its own for
/// seconds at a time, and pooling a worker on each averages the two.
pub fn side_by_side(worker: impl Fn(u64) -> Outcome + Sync) -> Outcome {
    let worker = &worker;
    let parts: Vec<Outcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2).map(|t| s.spawn(move || worker(t))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let mut out = Outcome::new();
    for part in parts {
        out.correct &= part.correct;
        out.attempted += part.attempted;
        out.rate.extend(part.rate);
        out.latency_ns.extend(part.latency_ns);
        out.setup_s.extend(part.setup_s);
        out.spc = out.spc.merged_with(&part.spc);
    }
    out
}

/// Set-up cost in seconds: the mean over a few set-ups in a row, each
/// dropping what it built, so that one sample is not one cold start.
pub fn time_setup<T>(mut setup: impl FnMut() -> T) -> f64 {
    const IN_A_ROW: u32 = 8;
    let t = Instant::now();
    for _ in 0..IN_A_ROW {
        drop(std::hint::black_box(setup()));
    }
    t.elapsed().as_secs_f64() / f64::from(IN_A_ROW)
}

/// Unwrap a runtime result. No operation of any workload is expected to
/// fail, and a failed one leaves the peer thread waiting forever, so the
/// process exits without printing a result.
pub fn must<T>(result: fairmpi::Result<T>, what: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {what} failed: {e}");
        std::process::exit(2);
    })
}

#[derive(Debug, Clone, Copy)]
enum Workload {
    Eager,
    Cris,
    Rma,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("eager", Workload::Eager),
        ("cris", Workload::Cris),
        ("rma", Workload::Rma),
    ];

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    fn run(self, seed: u64, until: Instant) -> Outcome {
        match self {
            // The original threaded design: one shared instance, serial
            // progress.
            Workload::Eager => p2p::run(DesignConfig::default(), seed, until),
            // The paper's proposal: dedicated instances, concurrent
            // (try-lock) progress.
            Workload::Cris => {
                let design = DesignConfig::builder().proposed(2).build();
                p2p::run(design.expect("the proposed design is valid"), seed, until)
            }
            Workload::Rma => rma::run(seed, until),
        }
    }

    /// The layer costs one operation pays on its path, summed.
    fn attributed_ns(self, b: &Budget) -> f64 {
        match self {
            // Lock the sending instance and inject; try-lock the receiving
            // instance in progress, pop the packet and match it; pop the
            // send completion.
            Workload::Eager | Workload::Cris => {
                b.seq
                    + b.cri_lock
                    + b.inject
                    + b.cri_trylock
                    + b.rx_pop
                    + b.match_inorder
                    + b.cq_pop
            }
            // A put stores into the target under the instance lock and
            // posts a completion that the flush pops; no packet travels.
            Workload::Rma => b.cri_lock + b.cq_pop,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace takes 0 or 1".into()),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("missing --{name}");
    let seconds: u64 = seconds.ok_or(missing("seconds"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or(missing("workload"))?,
        seed: seed.ok_or(missing("seed"))?,
        seconds,
        trace: trace.ok_or(missing("trace"))?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `part` per `whole`, or 0 when nothing was counted.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn end_to_end(out: &Outcome) -> Vec<Metric> {
    for (name, samples, scale) in [
        ("rate (1/s)", &out.rate, 1.0),
        ("latency (us)", &out.latency_ns, 1e-3),
        ("setup (s)", &out.setup_s, 1.0),
    ] {
        let tail = tail(samples).map_or(String::new(), |(p, v)| format!(" p{p}={}", v * scale));
        println!(
            "{name}: n={} p50={}{tail}",
            samples.len(),
            median(samples) * scale
        );
    }
    vec![
        metric("rate", median(&out.rate), "1/s"),
        metric("latency_us", median(&out.latency_ns) / 1e3, "us"),
        metric("setup_s", median(&out.setup_s), "s"),
    ]
}

fn per_layer(workload: Workload, out: &Outcome, b: &Budget) -> Vec<Metric> {
    let spc = &out.spc;
    let ops = out.attempted;
    let op_ns = 1e9 / median(&out.rate);
    let attributed = workload.attributed_ns(b);
    println!("budget: {op_ns} ns/op end to end, {attributed} ns/op attributed to layers");
    let per_op = |c: Counter| ratio(spc[c], ops);
    vec![
        metric("seq_ns", b.seq, "ns"),
        metric("cri_lock_ns", b.cri_lock, "ns"),
        metric("cri_trylock_ns", b.cri_trylock, "ns"),
        metric("inject_ns", b.inject, "ns"),
        metric("rx_pop_ns", b.rx_pop, "ns"),
        metric("cq_pop_ns", b.cq_pop, "ns"),
        metric("match_inorder_ns", b.match_inorder, "ns"),
        metric("match_oos_ns", b.match_oos, "ns"),
        metric("progress_poll_ns", b.progress_poll, "ns"),
        metric("op_ns", op_ns, "ns"),
        metric("attributed_ns", attributed, "ns"),
        metric("unattributed_ns", op_ns - attributed, "ns"),
        metric(
            "lock_acquisitions_per_op",
            per_op(Counter::InstanceLockAcquisitions),
            "count/op",
        ),
        metric(
            "trylock_failures_per_op",
            per_op(Counter::InstanceTryLockFailures),
            "count/op",
        ),
        metric(
            "progress_calls_per_op",
            per_op(Counter::ProgressCalls),
            "count/op",
        ),
        metric(
            "completions_per_op",
            per_op(Counter::CompletionsDrained),
            "count/op",
        ),
        metric(
            "wasted_progress_pct",
            100.0
                * ratio(
                    spc[Counter::ProgressWastedPasses],
                    spc[Counter::ProgressCalls],
                ),
            "%",
        ),
        metric(
            "unexpected_pct",
            100.0 * per_op(Counter::UnexpectedMessages),
            "%",
        ),
        metric(
            "out_of_sequence_pct",
            100.0 * per_op(Counter::OutOfSequenceMessages),
            "%",
        ),
        metric(
            "match_traversals_per_op",
            per_op(Counter::MatchQueueTraversals),
            "count/op",
        ),
    ]
}

/// The result line. `failed` is always 0: an operation that fails ends the
/// process before this line (see [`must`]).
fn result_json(out: &Outcome, metrics: &[Metric]) -> String {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": 0, \"metrics\": {{",
        out.correct, out.attempted
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("}}");
    json
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(64);
        }
    };
    let start = Instant::now();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("host: {cores} hardware threads");
    // A traced run spends the start of its time on the layer budget.
    let budget = args.trace.then(Budget::measure);
    let until = start + Duration::from_secs(args.seconds);
    let out = args.workload.run(args.seed, until);
    if out.rate.is_empty() || out.latency_ns.is_empty() || out.setup_s.is_empty() {
        eprintln!("perfbench: the run was too short to take a sample");
        return ExitCode::from(3);
    }
    let metrics = match &budget {
        Some(b) => per_layer(args.workload, &out, b),
        None => end_to_end(&out),
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not a number", m.name);
        return ExitCode::from(3);
    }
    println!("{}", result_json(&out, &metrics));
    ExitCode::SUCCESS
}
