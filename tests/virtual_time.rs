//! Integration tests for the virtual-time experiment pipeline: the shape
//! invariants the figures rely on, at reduced scale so `cargo test` stays
//! fast.

use fairmpi_spc::{Counter, SpcSnapshot};
use fairmpi_vsim::workload::multirate::SimMatchLayout;
use fairmpi_vsim::{
    Machine, MachinePreset, MultirateSim, RmamtSim, SimAssignment, SimDesign, SimProgress,
};

fn multirate(pairs: usize, design: SimDesign) -> fairmpi_vsim::MultirateResult {
    MultirateSim {
        machine: Machine::preset(MachinePreset::Alembert),
        pairs,
        window: 32,
        iterations: 6,
        design,
        seed: 0xFEED,
        cost: None,
    }
    .run()
}

#[test]
fn fig3a_shape_more_instances_help_serial_progress() {
    let mut one = SimDesign::baseline();
    one.assignment = SimAssignment::Dedicated;
    let mut twenty = one;
    twenty.instances = 20;
    let r1 = multirate(16, one);
    let r20 = multirate(16, twenty);
    assert!(
        r20.msg_rate_per_s > 1.4 * r1.msg_rate_per_s,
        "20 CRIs {:.0}/s must clearly beat 1 CRI {:.0}/s",
        r20.msg_rate_per_s,
        r1.msg_rate_per_s
    );
}

#[test]
fn fig3b_shape_concurrent_progress_does_not_help_alone() {
    let mut serial = SimDesign::baseline();
    serial.instances = 20;
    serial.assignment = SimAssignment::Dedicated;
    let mut conc = serial;
    conc.progress = SimProgress::Concurrent;
    let rs = multirate(16, serial);
    let rc = multirate(16, conc);
    assert!(
        rc.msg_rate_per_s <= 1.15 * rs.msg_rate_per_s,
        "concurrent progress {:.0}/s must not beat serial {:.0}/s while \
         matching stays serial",
        rc.msg_rate_per_s,
        rs.msg_rate_per_s
    );
    // And it costs more match time (Table II).
    assert!(rc.spc.match_time_ms() > rs.spc.match_time_ms());
}

#[test]
fn fig3c_shape_concurrent_matching_scales() {
    let mut star = SimDesign::baseline();
    star.instances = 20;
    star.assignment = SimAssignment::Dedicated;
    star.progress = SimProgress::Concurrent;
    star.matching = SimMatchLayout::CommPerPair;
    let r1 = multirate(1, star);
    let r16 = multirate(16, star);
    assert!(
        r16.msg_rate_per_s > 2.2 * r1.msg_rate_per_s,
        "per-pair matching must scale: 1 pair {:.0}/s, 16 pairs {:.0}/s",
        r1.msg_rate_per_s,
        r16.msg_rate_per_s
    );
    // Out-of-sequence all but vanishes (Table II right columns).
    assert!(r16.spc.out_of_sequence_fraction() < 0.02);
}

#[test]
fn fig4_shape_overtaking_lifts_the_ordered_serial_rate() {
    let mut ordered = SimDesign::baseline();
    ordered.instances = 20;
    ordered.assignment = SimAssignment::Dedicated;
    let mut overtaking = ordered;
    overtaking.allow_overtaking = true;
    overtaking.any_tag = true;
    let ro = multirate(16, ordered);
    let rv = multirate(16, overtaking);
    assert!(
        rv.msg_rate_per_s >= 0.9 * ro.msg_rate_per_s,
        "minimal matching cost {:.0}/s must not fall below ordered {:.0}/s",
        rv.msg_rate_per_s,
        ro.msg_rate_per_s
    );
    assert_eq!(rv.spc[Counter::OutOfSequenceMessages], 0);
}

#[test]
fn fig5_shape_process_mode_dwarfs_big_lock_threads() {
    let process = multirate(16, SimDesign::process_mode());
    let mut big = SimDesign::baseline();
    big.big_lock = true;
    let big = multirate(16, big);
    assert!(
        process.msg_rate_per_s > 5.0 * big.msg_rate_per_s,
        "process {:.0}/s vs big-lock {:.0}/s",
        process.msg_rate_per_s,
        big.msg_rate_per_s
    );
}

#[test]
fn table2_shape_oos_fraction_is_high_when_sharing_a_comm() {
    let mut d = SimDesign::baseline();
    d.instances = 10;
    d.assignment = SimAssignment::Dedicated;
    let r = multirate(16, d);
    assert!(
        r.spc.out_of_sequence_fraction() > 0.5,
        "16 threads on one communicator must mostly overtake each other \
         (got {:.1}%)",
        r.spc.out_of_sequence_fraction() * 100.0
    );
}

#[test]
fn fig6_shape_holds_at_reduced_scale() {
    let run = |threads: usize, instances: usize, assignment: SimAssignment| {
        RmamtSim {
            machine: Machine::preset(MachinePreset::TrinititeHaswell),
            threads,
            msg_size: 128,
            ops_per_thread: 150,
            instances,
            assignment,
            progress: SimProgress::Serial,
            seed: 3,
        }
        .run()
    };
    let ded1 = run(1, 32, SimAssignment::Dedicated);
    let ded16 = run(16, 32, SimAssignment::Dedicated);
    let rr16 = run(16, 32, SimAssignment::RoundRobin);
    let single16 = run(16, 1, SimAssignment::Dedicated);
    assert!(
        ded16.msg_rate_per_s > 6.0 * ded1.msg_rate_per_s,
        "dedicated scales"
    );
    assert!(
        ded16.msg_rate_per_s > rr16.msg_rate_per_s,
        "dedicated beats RR"
    );
    assert!(
        single16.msg_rate_per_s < 0.35 * ded16.msg_rate_per_s,
        "single instance collapses: {:.0} vs {:.0}",
        single16.msg_rate_per_s,
        ded16.msg_rate_per_s
    );
}

#[test]
fn fig7_shape_knl_is_slower_per_thread_but_still_scales() {
    let run = |machine: MachinePreset, threads: usize| {
        let m = Machine::preset(machine);
        let inst = m.default_rma_instances;
        RmamtSim {
            machine: m,
            threads,
            msg_size: 128,
            ops_per_thread: 150,
            instances: inst,
            assignment: SimAssignment::Dedicated,
            progress: SimProgress::Serial,
            seed: 3,
        }
        .run()
    };
    let knl1 = run(MachinePreset::TrinititeKnl, 1);
    let hsw1 = run(MachinePreset::TrinititeHaswell, 1);
    assert!(
        knl1.msg_rate_per_s < 0.6 * hsw1.msg_rate_per_s,
        "KNL single-thread {:.0}/s must trail Haswell {:.0}/s",
        knl1.msg_rate_per_s,
        hsw1.msg_rate_per_s
    );
    let knl64 = run(MachinePreset::TrinititeKnl, 64);
    assert!(
        knl64.msg_rate_per_s > 10.0 * knl1.msg_rate_per_s,
        "64 KNL threads with 72 dedicated instances must scale"
    );
}

#[test]
fn virtual_runs_are_reproducible_across_invocations() {
    let d = SimDesign::baseline();
    let a = multirate(8, d);
    let b = multirate(8, d);
    assert_eq!(a.makespan_ns, b.makespan_ns);
    assert_eq!(
        a.spc[Counter::OutOfSequenceMessages],
        b.spc[Counter::OutOfSequenceMessages]
    );
    assert_eq!(
        a.spc[Counter::MatchTimeNanos],
        b.spc[Counter::MatchTimeNanos]
    );
}

#[test]
fn native_and_virtual_backends_agree_on_semantics() {
    // Same benchmark config through both backends: identical message
    // totals and a complete delivery on each.
    use fairmpi::DesignConfig;
    use fairmpi_multirate::{run_native, run_virtual, Mode, MultirateConfig};
    let cfg = MultirateConfig {
        pairs: 3,
        mode: Mode::Threads,
        window: 16,
        iterations: 3,
        comm_per_pair: true,
        design: DesignConfig::builder().proposed(3).build().unwrap(),
        ..MultirateConfig::default()
    };
    let native = run_native(&cfg);
    let virt = run_virtual(&cfg, &Machine::preset(MachinePreset::Alembert), 1);
    assert_eq!(native.total_messages, virt.total_messages);
    assert_eq!(native.spc[Counter::MessagesReceived], native.total_messages);
    assert_eq!(virt.spc[Counter::MessagesReceived], virt.total_messages);
}

/// Exact figures for small runs of every simulated actor path: the
/// application actors under each design axis, the offload workers with
/// and without a lossy wire, and the RMA-MT flush sweeps. Every run is
/// deterministic, so a reordered `Action`, a moved RNG draw or a changed
/// SPC update in any simulated phase moves at least one of these numbers.
/// Columns: makespan ns, messages received, out-of-sequence messages,
/// match-time ns. Every case also keeps the native engine's pass
/// accounting: each progress call books exactly one useful or wasted pass.
#[test]
fn golden_values_pin_every_actor_path() {
    let books_one_pass_per_call = |name: &str, spc: &SpcSnapshot| {
        let calls = spc[Counter::ProgressCalls];
        let passes = spc[Counter::ProgressUsefulPasses] + spc[Counter::ProgressWastedPasses];
        assert!(calls > 0, "{name}: no progress calls");
        assert_eq!(passes, calls, "{name}: passes booked vs progress calls");
    };
    let three = |assignment, progress| SimDesign {
        instances: 3,
        assignment,
        progress,
        ..SimDesign::baseline()
    };
    let dedicated_concurrent = three(SimAssignment::Dedicated, SimProgress::Concurrent);
    let rr_concurrent_per_pair = SimDesign {
        matching: SimMatchLayout::CommPerPair,
        ..three(SimAssignment::RoundRobin, SimProgress::Concurrent)
    };
    let serial = three(SimAssignment::RoundRobin, SimProgress::Serial);
    let overtaking = SimDesign {
        allow_overtaking: true,
        any_tag: true,
        ..three(SimAssignment::Dedicated, SimProgress::Serial)
    };
    let big_lock = SimDesign {
        big_lock: true,
        ..SimDesign::baseline()
    };
    let lossy = SimDesign {
        instances: 2,
        ..dedicated_concurrent
    }
    .chaos(100, 50, 5);
    let cases = [
        ("baseline", SimDesign::baseline()),
        ("dedicated concurrent x3", dedicated_concurrent),
        ("round-robin concurrent x3 per-pair", rr_concurrent_per_pair),
        ("serial x3", serial),
        ("overtaking any-tag x3", overtaking),
        ("big lock", big_lock),
        ("process mode", SimDesign::process_mode()),
        ("lossy dedicated concurrent x2", lossy),
        ("offload 2", SimDesign::offload(2)),
        ("offload 2 lossy", SimDesign::offload(2).chaos(100, 50, 13)),
    ];
    let got: Vec<(&str, u64, u64, u64, u64)> = cases
        .iter()
        .map(|&(name, design)| {
            let r = multirate(4, design);
            books_one_pass_per_call(name, &r.spc);
            (
                name,
                r.makespan_ns,
                r.spc[Counter::MessagesReceived],
                r.spc[Counter::OutOfSequenceMessages],
                r.spc[Counter::MatchTimeNanos],
            )
        })
        .collect();
    let expected: Vec<(&str, u64, u64, u64, u64)> = vec![
        ("baseline", 589_653, 768, 504, 372_662),
        ("dedicated concurrent x3", 438_239, 768, 454, 1_222_526),
        (
            "round-robin concurrent x3 per-pair",
            213_972,
            768,
            491,
            350_971,
        ),
        ("serial x3", 581_380, 768, 499, 420_678),
        ("overtaking any-tag x3", 401_575, 768, 0, 213_408),
        ("big lock", 4_944_324, 768, 529, 18_065_030),
        ("process mode", 159_969, 768, 0, 193_536),
        (
            "lossy dedicated concurrent x2",
            474_566,
            768,
            547,
            1_289_020,
        ),
        ("offload 2", 298_700, 768, 278, 296_777),
        ("offload 2 lossy", 472_220, 768, 370, 314_184),
    ];
    assert_eq!(got, expected);

    // RMA-MT: makespan ns, puts, flushes.
    let rma = |assignment, progress| {
        let name = format!("rma {assignment:?} {progress:?}");
        let r = RmamtSim {
            machine: Machine::preset(MachinePreset::TrinititeHaswell),
            threads: 6,
            msg_size: 8,
            ops_per_thread: 50,
            instances: 4,
            assignment,
            progress,
            seed: 3,
        }
        .run();
        books_one_pass_per_call(&name, &r.spc);
        (
            r.makespan_ns,
            r.spc[Counter::RmaPuts],
            r.spc[Counter::RmaFlushes],
        )
    };
    let got_rma = vec![
        rma(SimAssignment::RoundRobin, SimProgress::Serial),
        rma(SimAssignment::RoundRobin, SimProgress::Concurrent),
        rma(SimAssignment::Dedicated, SimProgress::Serial),
    ];
    let expected_rma = vec![(37_770, 300, 6), (30_429, 300, 6), (41_755, 300, 6)];
    assert_eq!(got_rma, expected_rma);
}
