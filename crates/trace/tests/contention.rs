//! End-to-end: trace a virtual-time Multirate run and check that the
//! consumers see what the paper says they should — with every thread pair
//! funneling through one shared CRI, the instance lock dominates the
//! contention report.
//!
//! Kept as one `#[test]` because the recorder is process-global.

#![cfg(feature = "enabled")]

use std::cell::RefCell;
use std::rc::Rc;

use fairmpi_mpit::json;
use fairmpi_spc::Counter;
use fairmpi_trace as trace;
use fairmpi_vsim::{
    workload::multirate::SimMatchLayout, Machine, MachinePreset, MultirateSim, RunHooks,
    SimAssignment, SimDesign, SimProgress,
};

#[test]
fn one_cri_run_ranks_the_instance_lock_top() {
    trace::start_virtual();
    let sim = MultirateSim {
        machine: Machine::preset(MachinePreset::Alembert),
        pairs: 20,
        window: 16,
        iterations: 2,
        design: SimDesign {
            instances: 1,
            assignment: SimAssignment::RoundRobin,
            progress: SimProgress::Serial,
            matching: SimMatchLayout::SingleComm,
            allow_overtaking: false,
            any_tag: false,
            big_lock: false,
            process_mode: false,
            offload_workers: 0,
            chaos_drop_pm: 0,
            chaos_dup_pm: 0,
            chaos_seed: 0,
        },
        seed: 7,
        cost: None,
    };
    let samples = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&samples);
    let result = sim.run_hooked(RunHooks {
        scrape: Some((
            50_000,
            Box::new(move |t_ns, spc| {
                sink.borrow_mut()
                    .push((t_ns, spc.get(Counter::MessagesSent)))
            }),
        )),
        ..RunHooks::default()
    });
    let t = trace::stop();

    assert!(result.total_messages > 0);

    // The contention report exists and is led by the shared instance lock.
    let report = t.contention_report();
    assert!(!report.locks.is_empty(), "no lock events recorded");
    let top = &report.locks[0];
    assert!(
        top.name.starts_with("instance["),
        "expected the shared CRI lock to dominate, got {:?}",
        report.locks.iter().map(|l| &l.name).collect::<Vec<_>>()
    );
    assert!(top.contended > 0, "20 pairs on one instance must contend");
    assert!(top.total_wait_ns > 0);

    // Per-track virtual timestamps never run backwards: each actor is
    // resumed by one simulator at increasing virtual times.
    for track in &t.tracks {
        for pair in track.events.windows(2) {
            assert!(
                pair[0].ts_ns <= pair[1].ts_ns,
                "track {} regressed from {} to {}",
                track.name,
                pair[0].ts_ns,
                pair[1].ts_ns
            );
        }
    }

    // Actor tracks carry the workload's names.
    assert!(t.tracks.iter().any(|tr| tr.name.starts_with("sender[")));
    assert!(t.tracks.iter().any(|tr| tr.name.starts_with("recv[")));

    // The Chrome export of a real run parses back as JSON.
    let doc = json::parse(&t.to_chrome_json()).expect("chrome export must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // The traced run was also scraped on its virtual-time interval, and
    // the samples saw the traffic grow.
    let samples = samples.borrow();
    assert!(
        samples.len() > 1,
        "a multi-interval run yields several samples"
    );
    assert!(
        samples
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1),
        "boundaries and counter values must be monotonic"
    );
    assert!(samples.last().unwrap().1 > 0, "the scrape saw no traffic");
}
