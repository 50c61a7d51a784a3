//! Observability wiring shared by the bench binaries.
//!
//! `--trace <out.json>` records a Chrome-trace-event file (load it in
//! Perfetto or `chrome://tracing`) and prints the lock-contention report;
//! `--pvars <out.json>` reads the run through the MPI_T-style
//! performance-variable interface (`fairmpi-mpit`) and writes a JSON
//! snapshot plus a Prometheus exposition page next to it (`<out>.prom`).
//! The JSON carries the SPC time-series: every registry pvar, scraped each
//! `FAIRMPI_SPC_INTERVAL_US` of virtual time.
//!
//! A full figure runs hundreds of simulations; a trace of all of them would
//! be unreadable and enormous. When any flag is present the binaries
//! instead run **one flagship design point** of their figure (see the
//! `*_flagship` constructors in [`crate::figures`]) under observation and
//! skip the sweep. The fig3/fig5/table2/fig_offload/fig_degradation/diag
//! binaries all share this exact logic — [`Observe::from_env`] is the
//! single place the flags are parsed.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

use fairmpi_mpit::json::{self, Value};
use fairmpi_mpit::{prometheus, PvarRegistry, PvarSession, PvarValue};
use fairmpi_spc::{Counter, SpcSet, Watermark};
use fairmpi_trace as trace;
use fairmpi_vsim::{MultirateSim, RunHooks, ScrapeFn, SimDesign};

/// One `key: value` member of a JSON object.
fn field(key: &str, value: impl Into<Value>) -> (String, Value) {
    (key.to_string(), value.into())
}

/// Parsed observability flags.
#[derive(Debug, Default)]
pub struct Observe {
    /// Destination for the Chrome-trace-event JSON (`--trace`).
    pub trace_path: Option<PathBuf>,
    /// Destination for the MPI_T pvar snapshot JSON (`--pvars`).
    pub pvars_path: Option<PathBuf>,
    /// Chaos RNG seed for the run (`--chaos-seed <n>`).
    pub chaos_seed: Option<u64>,
    /// Chaos drop probability in per-mille (`--chaos-drop <pm>`).
    pub chaos_drop: Option<u16>,
}

impl Observe {
    /// Strip `--trace <path>` / `--pvars <path>` / `--chaos-seed <n>` /
    /// `--chaos-drop <pm>` out of `args`, leaving the binary's own arguments
    /// in place.
    pub fn from_args(args: &mut Vec<String>) -> Self {
        fn take(args: &mut Vec<String>, flag: &str) -> Option<String> {
            let i = args.iter().position(|a| a == flag)?;
            assert!(i + 1 < args.len(), "{flag} requires a value argument");
            let value = args.remove(i + 1);
            args.remove(i);
            Some(value)
        }
        Self {
            trace_path: take(args, "--trace").map(PathBuf::from),
            pvars_path: take(args, "--pvars").map(PathBuf::from),
            chaos_seed: take(args, "--chaos-seed")
                .map(|v| v.parse().expect("--chaos-seed takes an integer seed")),
            chaos_drop: take(args, "--chaos-drop")
                .map(|v| v.parse().expect("--chaos-drop takes a per-mille integer")),
        }
    }

    /// Parse the process arguments: the observability flags land in the
    /// returned `Observe`, everything else in the returned vector. The one
    /// entry point all bench binaries share.
    pub fn from_env() -> (Self, Vec<String>) {
        let mut args: Vec<String> = std::env::args().collect();
        let observe = Self::from_args(&mut args);
        (observe, args)
    }

    /// Whether any observability output was requested.
    pub fn active(&self) -> bool {
        self.trace_path.is_some() || self.pvars_path.is_some()
    }

    /// Arm the lossy wire on a design when `--chaos-seed` / `--chaos-drop`
    /// were given (every bench binary inherits the flags through here —
    /// none of them parses chaos options itself).
    pub fn apply_chaos(&self, design: SimDesign) -> SimDesign {
        if self.chaos_seed.is_none() && self.chaos_drop.is_none() {
            return design;
        }
        design.chaos(
            self.chaos_drop.unwrap_or(100),
            0,
            self.chaos_seed.unwrap_or(1),
        )
    }

    /// If any flag is set, run the binary's flagship design point under
    /// observation and return `true` (the caller should skip its sweep).
    /// Chaos flags apply to the flagship run.
    pub fn maybe_run(&self, label: &str, sim: impl FnOnce() -> MultirateSim) -> bool {
        if !self.active() {
            return false;
        }
        let mut sim = sim();
        sim.design = self.apply_chaos(sim.design);
        self.run(label, &sim);
        true
    }

    /// Run one simulation under observation: arm the recorder on virtual
    /// time, execute, then write the requested artifacts and print the
    /// top-10 lock-contention table. Returns the simulation result.
    pub fn run(&self, label: &str, sim: &MultirateSim) -> fairmpi_vsim::MultirateResult {
        trace::start_virtual();
        // Pvar scrape interval in virtual ns (default 50 µs).
        let interval = crate::env_usize("FAIRMPI_SPC_INTERVAL_US", 50) as u64 * 1_000;

        // The pvar path: one SpcSet shared between the simulation and the
        // MPI_T registry, so every value a tool reads through a session is
        // the live cell the run updates — the acceptance criterion is that
        // session reads equal the SpcSnapshot numbers exactly.
        let spc = Arc::new(SpcSet::new());
        let registry = Arc::new(PvarRegistry::new(Arc::clone(&spc)));
        let mut session = PvarSession::new(&registry);
        let tracked: Vec<_> = [
            Counter::OutOfSequenceMessages,
            Counter::MatchTimeNanos,
            Counter::OffloadCommands,
            Counter::OffloadBatches,
            Counter::OffloadBackpressureStalls,
        ]
        .into_iter()
        .map(|counter| {
            let idx = registry.index_of(counter.name()).expect("registered pvar");
            let h = session.handle_alloc(idx).expect("valid index");
            session.start(h).expect("counter pvars support start");
            (counter, h)
        })
        .collect();

        // Interval scraping of every pvar through the registry (MPI_T-style
        // periodic reads) into the JSON time-series: one compact
        // `[t_ns, <value per pvar index>...]` row per boundary, histograms
        // as their `count`. The names go into the document once, as
        // `series_columns`.
        let scraped = Rc::new(RefCell::new(Vec::new()));
        let scrape = self.pvars_path.is_some().then(|| {
            let rows = Rc::clone(&scraped);
            let registry = Arc::clone(&registry);
            let f: ScrapeFn = Box::new(move |boundary_ns, _spc| {
                let values = (0..registry.num_pvars()).map(|i| {
                    match registry.read_raw(i).expect("valid index") {
                        PvarValue::Scalar(v) => v,
                        PvarValue::Histogram { count, .. } => count,
                    }
                });
                rows.borrow_mut()
                    .push(std::iter::once(boundary_ns).chain(values).collect());
            });
            (interval, f)
        });

        let result = sim.run_hooked(RunHooks {
            spc: Some(Arc::clone(&spc)),
            scrape,
        });
        let t = trace::stop();

        println!("\n== observed run: {label} ==");
        println!(
            "{:.0} msg/s, {} messages, makespan {:.3} ms (virtual)",
            result.msg_rate_per_s,
            result.total_messages,
            result.makespan_ns as f64 / 1e6
        );

        if let Some(path) = &self.trace_path {
            if !cfg!(feature = "trace") {
                println!(
                    "note: fairmpi-bench built without the `trace` feature; \
                     the trace will be empty"
                );
            }
            std::fs::write(path, t.to_chrome_json()).expect("write trace json");
            println!(
                "wrote {} (open in Perfetto / chrome://tracing)",
                path.display()
            );
        }
        if let Some(path) = &self.pvars_path {
            // The MPI_T sessions were opened on an untouched set, so their
            // reads must equal the snapshot counters for the same run.
            let mut session_reads = Vec::new();
            for &(counter, h) in &tracked {
                session.stop(h).expect("counter pvars support stop");
                let read = session
                    .read(h)
                    .expect("valid handle")
                    .as_scalar()
                    .expect("scalar class");
                let name = counter.name();
                assert_eq!(
                    read, result.spc[counter],
                    "pvar session read of {name} diverged from the SPC snapshot"
                );
                session_reads.push(field(name, read));
            }
            // Watermark pvars are continuous (no start/stop), so the
            // offload queue-depth high-water mark is checked as a raw
            // registry read against the live cell the run recorded into.
            let hwm_idx = registry
                .index_of("offload_queue_depth_hwm")
                .expect("registered pvar");
            let hwm = registry
                .read_raw(hwm_idx)
                .expect("valid index")
                .as_scalar()
                .expect("watermark pvars are scalar");
            assert_eq!(
                hwm,
                spc.watermark(Watermark::OffloadQueueDepth).high(),
                "offload_queue_depth_hwm pvar diverged from the SPC watermark cell"
            );
            session_reads.push(field("offload_queue_depth_hwm", hwm));
            crate::check(
                "MPI_T session reads equal the SpcSnapshot values for this run",
                true,
            );

            let series: Vec<Vec<u64>> = scraped.take();
            let columns = std::iter::once("t_ns".into())
                .chain(
                    (0..registry.num_pvars())
                        .map(|i| Value::from(registry.info(i).expect("valid index").name.clone())),
                )
                .collect();
            let head = vec![
                field("schema", "fairmpi.pvars"),
                field("version", 2u64),
                field("label", label),
                field("interval_ns", interval),
                field(
                    "result",
                    Value::Obj(vec![
                        field("msg_rate_per_s", result.msg_rate_per_s),
                        field("makespan_ns", result.makespan_ns),
                        field("total_messages", result.total_messages),
                    ]),
                ),
                field("session_reads", Value::Obj(session_reads)),
                field("pvars", json::pvars_value(&registry)),
                field("series_columns", Value::Arr(columns)),
            ];
            std::fs::write(path, json::render_with_rows(&head, "series", &series))
                .expect("write pvars json");
            println!(
                "wrote {} ({} pvars, {} series samples)",
                path.display(),
                registry.num_pvars(),
                series.len()
            );

            let prom_path = path.with_extension("prom");
            std::fs::write(&prom_path, prometheus::render(&registry))
                .expect("write prometheus page");
            println!("wrote {} (Prometheus text exposition)", prom_path.display());
        }

        print!("{}", t.contention_report().render(10));
        result
    }
}
