//! Experiment drivers, one per paper figure/table.

use fairmpi_vsim::workload::multirate::SimMatchLayout;
use fairmpi_vsim::{
    CostModel, Machine, MachinePreset, MultirateSim, RmamtSim, SimAssignment, SimDesign,
    SimProgress,
};

use crate::stats::over_reps;
use crate::{env_usize, Point, Series};

/// The named design-point vocabulary shared by the bench binaries.
///
/// fig3/fig4/fig5/table2/diag/fig_offload all draw their `SimDesign`s from
/// here instead of re-spelling ten-field literals — one place to extend
/// when the design space grows a new axis.
pub mod presets {
    use fairmpi_vsim::workload::multirate::SimMatchLayout;
    use fairmpi_vsim::{SimAssignment, SimDesign, SimProgress};

    /// One cell of the instance-count × assignment grids: everything
    /// defaulted except the swept axes. Overtaking implies `MPI_ANY_TAG`
    /// receives, as in the paper's Fig. 4 runs.
    pub fn cell(
        instances: usize,
        assignment: SimAssignment,
        progress: SimProgress,
        matching: SimMatchLayout,
        overtaking: bool,
    ) -> SimDesign {
        SimDesign {
            instances,
            assignment,
            progress,
            matching,
            allow_overtaking: overtaking,
            any_tag: overtaking,
            ..SimDesign::baseline()
        }
    }

    /// "Thread": the paper's baseline threaded design — one shared
    /// instance, serial progress, one matching engine.
    pub fn thread_baseline() -> SimDesign {
        SimDesign::baseline()
    }

    /// "Thread + CRIs": `n` dedicated instances, everything else baseline.
    pub fn cris(n: usize) -> SimDesign {
        cell(
            n,
            SimAssignment::Dedicated,
            SimProgress::Serial,
            SimMatchLayout::SingleComm,
            false,
        )
    }

    /// "Thread + CRIs*": dedicated instances plus concurrent progress and
    /// per-pair communicators — the paper's best threaded design.
    pub fn cris_star(n: usize) -> SimDesign {
        cell(
            n,
            SimAssignment::Dedicated,
            SimProgress::Concurrent,
            SimMatchLayout::CommPerPair,
            false,
        )
    }

    /// A big-lock implementation: one global critical section around the
    /// whole library (the IMPI/MPICH emulations of Fig. 5).
    pub fn big_lock() -> SimDesign {
        SimDesign {
            big_lock: true,
            ..SimDesign::baseline()
        }
    }

    /// Process mode: pairs of single-threaded processes.
    pub fn process() -> SimDesign {
        SimDesign::process_mode()
    }

    /// Software offload: `workers` dedicated communication threads per
    /// side fed by lock-free command queues (DESIGN.md §8).
    pub fn offload(workers: usize) -> SimDesign {
        SimDesign::offload(workers)
    }
}

/// Default windows-per-pair for the sweep figures (paper: 1010; the
/// default keeps a full figure under a couple of minutes).
const DEFAULT_ITERS: usize = 40;

fn reps() -> usize {
    env_usize("FAIRMPI_REPS", 3)
}

fn iters() -> usize {
    env_usize("FAIRMPI_ITERS", DEFAULT_ITERS)
}

fn max_pairs() -> usize {
    env_usize("FAIRMPI_MAX_PAIRS", 20)
}

fn run_point(
    machine: &Machine,
    pairs: usize,
    design: SimDesign,
    cost: Option<CostModel>,
) -> (f64, f64) {
    over_reps(reps(), |seed| {
        MultirateSim {
            machine: machine.clone(),
            pairs,
            window: 128,
            iterations: iters(),
            design,
            seed,
            cost,
        }
        .run()
        .msg_rate_per_s
    })
}

fn sweep(machine: &Machine, label: String, design: SimDesign, cost: Option<CostModel>) -> Series {
    let points = (1..=max_pairs())
        .map(|pairs| {
            let (mean, stddev) = run_point(machine, pairs, design, cost);
            Point {
                x: pairs as f64,
                mean,
                stddev,
            }
        })
        .collect();
    Series { label, points }
}

/// The instance-count × assignment grid shared by Figs. 3 and 4.
fn multirate_grid(
    progress: SimProgress,
    matching: SimMatchLayout,
    overtaking: bool,
) -> Vec<Series> {
    let machine = Machine::preset(MachinePreset::Alembert);
    let mut series = Vec::new();
    for &instances in &[1usize, 10, 20] {
        for &(assignment, mode_name) in &[
            (SimAssignment::RoundRobin, "round-robin"),
            (SimAssignment::Dedicated, "dedicated"),
        ] {
            let design = presets::cell(instances, assignment, progress, matching, overtaking);
            series.push(sweep(
                &machine,
                format!("{instances} inst / {mode_name}"),
                design,
                None,
            ));
        }
    }
    series
}

fn panel_params(panel: char) -> (SimProgress, SimMatchLayout) {
    match panel {
        'a' => (SimProgress::Serial, SimMatchLayout::SingleComm),
        'b' => (SimProgress::Concurrent, SimMatchLayout::SingleComm),
        'c' => (SimProgress::Concurrent, SimMatchLayout::CommPerPair),
        _ => panic!("panel must be a, b, or c"),
    }
}

/// Paper Fig. 3: zero-byte message rate, ordering enforced.
pub fn fig3(panel: char) -> Vec<Series> {
    let (progress, matching) = panel_params(panel);
    multirate_grid(progress, matching, false)
}

/// The flagship design point of a Fig. 3 panel for observability mode
/// (`--trace` / `--pvars`): the panel's progress/matching design with a
/// **single shared instance** under round-robin assignment at the full pair
/// count — the most contended cell of the grid, where the instance-lock
/// convoy the paper describes is most visible.
pub fn fig3_flagship(panel: char) -> MultirateSim {
    let (progress, matching) = panel_params(panel);
    MultirateSim {
        machine: Machine::preset(MachinePreset::Alembert),
        pairs: max_pairs(),
        window: 128,
        iterations: iters(),
        design: presets::cell(1, SimAssignment::RoundRobin, progress, matching, false),
        seed: 1,
        cost: None,
    }
}

/// Paper Fig. 4: zero-byte message rate with message overtaking
/// (`mpi_assert_allow_overtaking` + `MPI_ANY_TAG` receives).
pub fn fig4(panel: char) -> Vec<Series> {
    let (progress, matching) = panel_params(panel);
    multirate_grid(progress, matching, true)
}

/// Scale the software-path constants of a cost model — the documented
/// emulation knob distinguishing implementations in Fig. 5.
fn scaled_cost(machine: &Machine, factor: f64) -> CostModel {
    let mut c = CostModel::for_fabric(&machine.fabric);
    let scale = |v: u64| ((v as f64) * factor) as u64;
    c.send_software_ns = scale(c.send_software_ns);
    c.recv_software_ns = scale(c.recv_software_ns);
    c.match_base_ns = scale(c.match_base_ns);
    c.poll_empty_ns = scale(c.poll_empty_ns);
    c
}

/// Paper Fig. 5: the state of MPI threading — process vs thread mode
/// across implementations, plus the paper's CRI designs.
///
/// "IMPI"/"MPICH" entries are *emulations* of those implementations'
/// documented threading designs (a global critical section) with slightly
/// different software-overhead constants; see DESIGN.md §1.
pub fn fig5() -> Vec<Series> {
    let machine = Machine::preset(MachinePreset::Alembert);
    let n = 20;
    let entries: Vec<(&str, SimDesign, f64)> = vec![
        ("OMPI Process", presets::process(), 1.0),
        ("OMPI Thread", presets::thread_baseline(), 1.0),
        ("OMPI Thread + CRIs", presets::cris(n), 1.0),
        ("OMPI Thread + CRIs*", presets::cris_star(n), 1.0),
        ("IMPI Process", presets::process(), 0.85),
        ("IMPI Thread", presets::big_lock(), 0.85),
        ("MPICH Process", presets::process(), 1.15),
        ("MPICH Thread", presets::big_lock(), 1.15),
    ];
    entries
        .into_iter()
        .map(|(label, design, factor)| {
            let cost = (factor != 1.0).then(|| scaled_cost(&machine, factor));
            sweep(&machine, label.to_string(), design, cost)
        })
        .collect()
}

/// The flagship design point of Fig. 5 for observability mode: the "OMPI
/// Thread" baseline (one instance, serial progress, single matching engine)
/// at the full pair count — the design whose lock convoy motivates the
/// whole paper.
pub fn fig5_flagship() -> MultirateSim {
    MultirateSim {
        machine: Machine::preset(MachinePreset::Alembert),
        pairs: max_pairs(),
        window: 128,
        iterations: iters(),
        design: SimDesign::baseline(),
        seed: 1,
        cost: None,
    }
}

/// The software-offload comparison (DESIGN.md §8; *not* a paper figure —
/// the design point the paper leaves on the table): zero-byte message rate
/// vs pairs for a big-lock implementation, the paper's CRI designs,
/// software offload at 1/2/4 worker pairs, and process mode.
pub fn fig_offload() -> Vec<Series> {
    let machine = Machine::preset(MachinePreset::Alembert);
    let n = 20;
    let entries: Vec<(&str, SimDesign)> = vec![
        ("Process", presets::process()),
        ("Big-lock Thread", presets::big_lock()),
        ("Thread + CRIs", presets::cris(n)),
        ("Thread + CRIs*", presets::cris_star(n)),
        ("Offload x1", presets::offload(1)),
        ("Offload x2", presets::offload(2)),
        ("Offload x4", presets::offload(4)),
    ];
    entries
        .into_iter()
        .map(|(label, design)| sweep(&machine, label.to_string(), design, None))
        .collect()
}

/// The flagship design point of the offload figure for observability mode:
/// two offload worker pairs at the full pair count — command queues,
/// batch draining and both worker roles all exercised.
pub fn fig_offload_flagship() -> MultirateSim {
    MultirateSim {
        machine: Machine::preset(MachinePreset::Alembert),
        pairs: max_pairs(),
        window: 128,
        iterations: iters(),
        design: presets::offload(2),
        seed: 1,
        cost: None,
    }
}

/// The drop probabilities (per-mille) swept by the degradation figure.
pub const DEGRADATION_DROPS_PM: [u16; 5] = [0, 25, 50, 100, 200];

/// The degradation sweep (DESIGN.md §9; *not* a paper figure): zero-byte
/// message rate at a fixed pair count as the wire's drop probability
/// rises, for a big-lock implementation, the paper's CRI designs, and
/// software offload. Duplicates ride along at a quarter of the drop rate
/// so suppression is exercised too. Graceful degradation — recovery pays
/// retransmission and backoff costs but never collapses the rate — is the
/// acceptance criterion of the reliability layer.
pub fn fig_degradation() -> Vec<Series> {
    let machine = Machine::preset(MachinePreset::Alembert);
    let pairs = max_pairs().min(8); // fixed load; the x-axis is drop rate
    let n = 20;
    let entries: Vec<(&str, SimDesign)> = vec![
        ("Big-lock Thread", presets::big_lock()),
        ("Thread + CRIs", presets::cris(n)),
        ("Thread + CRIs*", presets::cris_star(n)),
        ("Offload x2", presets::offload(2)),
    ];
    entries
        .into_iter()
        .map(|(label, design)| {
            let points = DEGRADATION_DROPS_PM
                .iter()
                .map(|&drop_pm| {
                    let (mean, stddev) = over_reps(reps(), |seed| {
                        MultirateSim {
                            machine: machine.clone(),
                            pairs,
                            window: 128,
                            iterations: iters(),
                            design: design.chaos(drop_pm, drop_pm / 4, 0xC0FFEE),
                            seed,
                            cost: None,
                        }
                        .run()
                        .msg_rate_per_s
                    });
                    Point {
                        x: drop_pm as f64,
                        mean,
                        stddev,
                    }
                })
                .collect();
            Series {
                label: label.to_string(),
                points,
            }
        })
        .collect()
}

/// The flagship design point of the degradation figure for observability
/// mode: CRIs* under a 10% drop + 2.5% dup wire — retransmission, backoff
/// and duplicate suppression all active on the paper's best threaded
/// design.
pub fn fig_degradation_flagship() -> MultirateSim {
    MultirateSim {
        machine: Machine::preset(MachinePreset::Alembert),
        pairs: max_pairs().min(8),
        window: 128,
        iterations: iters(),
        design: presets::cris_star(20).chaos(100, 25, 0xC0FFEE),
        seed: 1,
        cost: None,
    }
}

/// One message-size panel of Figs. 6/7.
pub struct RmaPanel {
    /// Payload size in bytes.
    pub msg_size: usize,
    /// The six (mode × progress) series.
    pub series: Vec<Series>,
    /// The theoretical peak line for this size.
    pub peak: f64,
}

fn rma_figure(machine: &Machine, thread_counts: &[usize], instances: usize) -> Vec<RmaPanel> {
    let ops = env_usize("FAIRMPI_RMA_OPS", 1000);
    let sizes = [1usize, 128, 1024, 4096, 16 * 1024];
    sizes
        .iter()
        .map(|&msg_size| {
            let mut series = Vec::new();
            for &(progress, pname) in &[
                (SimProgress::Serial, "serial"),
                (SimProgress::Concurrent, "concurrent"),
            ] {
                for &(inst, assignment, mname) in &[
                    (1usize, SimAssignment::Dedicated, "single"),
                    (instances, SimAssignment::Dedicated, "dedicated"),
                    (instances, SimAssignment::RoundRobin, "round-robin"),
                ] {
                    let points = thread_counts
                        .iter()
                        .map(|&threads| {
                            let (mean, stddev) = over_reps(reps(), |seed| {
                                RmamtSim {
                                    machine: machine.clone(),
                                    threads,
                                    msg_size,
                                    ops_per_thread: ops,
                                    instances: inst,
                                    assignment,
                                    progress,
                                    seed,
                                }
                                .run()
                                .msg_rate_per_s
                            });
                            Point {
                                x: threads as f64,
                                mean,
                                stddev,
                            }
                        })
                        .collect();
                    series.push(Series {
                        label: format!("{mname} / {pname}"),
                        points,
                    });
                }
            }
            let peak = RmamtSim {
                machine: machine.clone(),
                threads: 1,
                msg_size,
                ops_per_thread: 1,
                instances: 1,
                assignment: SimAssignment::Dedicated,
                progress: SimProgress::Serial,
                seed: 0,
            }
            .theoretical_peak();
            RmaPanel {
                msg_size,
                series,
                peak,
            }
        })
        .collect()
}

/// Paper Fig. 6: RMA-MT put+flush on the Trinitite Haswell partition.
pub fn fig6() -> Vec<RmaPanel> {
    let machine = Machine::preset(MachinePreset::TrinititeHaswell);
    let inst = machine.default_rma_instances;
    rma_figure(&machine, &[1, 2, 4, 8, 16, 32], inst)
}

/// Paper Fig. 7: RMA-MT put+flush on the Trinitite KNL partition.
pub fn fig7() -> Vec<RmaPanel> {
    let machine = Machine::preset(MachinePreset::TrinititeKnl);
    let inst = machine.default_rma_instances;
    rma_figure(&machine, &[1, 2, 4, 8, 16, 32, 64], inst)
}

/// Print, persist, and sanity-check one RMA figure (shared by the fig6 and
/// fig7 binaries).
pub fn report_rma_figure(name: &str, panels: &[RmaPanel]) {
    use crate::{check, print_series, write_csv};

    for panel in panels {
        let title = format!(
            "{name} @ {} bytes (theoretical peak {:.2e} msg/s)",
            panel.msg_size, panel.peak
        );
        print_series(&title, &panel.series);
        let csv = format!("{name}_{}B", panel.msg_size);
        let path = write_csv(&csv, &panel.series).expect("write csv");
        println!("wrote {}", path.display());
    }

    let groups: Vec<(String, Vec<Series>)> = panels
        .iter()
        .map(|p| (format!("{}B: ", p.msg_size), p.series.clone()))
        .collect();
    let path = crate::report::rate_report(name, &groups)
        .write()
        .expect("write bench report");
    println!("wrote {}", path.display());

    // Qualitative checks on the smallest-size panel (contention-bound) and
    // the largest (bandwidth-bound).
    let small = &panels[0];
    let large = panels.last().unwrap();
    let find = |p: &RmaPanel, label: &str| {
        p.series
            .iter()
            .find(|s| s.label == label)
            .unwrap_or_else(|| panic!("missing series {label}"))
            .clone()
    };
    let ded = find(small, "dedicated / serial");
    let rr = find(small, "round-robin / serial");
    let single = find(small, "single / serial");
    check(
        "dedicated scales with threads (last > 4x first)",
        ded.last() > 4.0 * ded.points[0].mean,
    );
    check("dedicated beats round-robin", ded.last() > rr.last());
    check(
        "single instance does not scale",
        single.last() < 2.0 * single.points[0].mean,
    );
    let ded_conc = find(small, "dedicated / concurrent");
    check(
        "concurrent progress changes little for one-sided (no matching to drain)",
        (ded_conc.last() - ded.last()).abs() < 0.5 * ded.last(),
    );
    let ded_large = find(large, "dedicated / serial");
    check(
        "16 KiB saturates near the bandwidth peak",
        ded_large.last() > 0.5 * large.peak && ded_large.last() <= large.peak * 1.01,
    );
}

/// The flagship design point of Table II for observability mode: the
/// 1-instance serial-progress cell (Table II's leftmost column), where
/// every packet funnels through one instance lock and one matching engine.
pub fn table2_flagship(iterations: usize) -> MultirateSim {
    MultirateSim {
        machine: Machine::preset(MachinePreset::Alembert),
        pairs: 20,
        window: 128,
        iterations,
        design: presets::cell(
            1,
            SimAssignment::Dedicated,
            SimProgress::Serial,
            SimMatchLayout::SingleComm,
            false,
        ),
        seed: 0xBEEF,
        cost: None,
    }
}

/// One cell of Table II.
#[derive(Debug, Clone)]
pub struct Table2Cell {
    /// Column group ("Serial Progress", ...).
    pub group: &'static str,
    /// Instance count (1, 10, 20).
    pub instances: usize,
    /// Out-of-sequence messages.
    pub oos: u64,
    /// Out-of-sequence fraction of received messages.
    pub oos_fraction: f64,
    /// Total match time in milliseconds (virtual).
    pub match_time_ms: f64,
    /// Total messages received.
    pub total: u64,
}

/// Paper Table II: SPC counters at 20 thread pairs, dedicated assignment.
///
/// `iterations` of 1010 reproduces the paper's 2,585,600-message total.
pub fn table2(iterations: usize) -> Vec<Table2Cell> {
    let machine = Machine::preset(MachinePreset::Alembert);
    let groups: [(&'static str, SimProgress, SimMatchLayout); 3] = [
        (
            "Serial Progress",
            SimProgress::Serial,
            SimMatchLayout::SingleComm,
        ),
        (
            "Concurrent Progress",
            SimProgress::Concurrent,
            SimMatchLayout::SingleComm,
        ),
        (
            "Concurrent Progress + Matching",
            SimProgress::Concurrent,
            SimMatchLayout::CommPerPair,
        ),
    ];
    let mut cells = Vec::new();
    for (group, progress, matching) in groups {
        for instances in [1usize, 10, 20] {
            let result = MultirateSim {
                machine: machine.clone(),
                pairs: 20,
                window: 128,
                iterations,
                design: presets::cell(
                    instances,
                    SimAssignment::Dedicated,
                    progress,
                    matching,
                    false,
                ),
                seed: 0xBEEF,
                cost: None,
            }
            .run();
            cells.push(Table2Cell {
                group,
                instances,
                oos: result.spc[fairmpi_spc::Counter::OutOfSequenceMessages],
                oos_fraction: result.spc.out_of_sequence_fraction(),
                match_time_ms: result.spc.match_time_ms(),
                total: result.total_messages,
            });
        }
    }
    cells
}
