use std::sync::Arc;

use fairmpi_spc::{Counter, Histogram, SpcSet, Watermark, HISTOGRAM_BUCKETS};

use crate::json;
use crate::prometheus;
use crate::{MpitError, PvarClass, PvarRegistry, PvarSession, PvarValue};

fn registry() -> (Arc<SpcSet>, PvarRegistry) {
    let spc = Arc::new(SpcSet::new());
    let registry = PvarRegistry::new(Arc::clone(&spc));
    (spc, registry)
}

#[test]
fn registry_enumerates_every_class_with_unique_names() {
    let (_, registry) = registry();
    assert_eq!(
        registry.num_pvars(),
        Counter::COUNT + 2 * Watermark::COUNT + Histogram::COUNT
    );
    let mut names: Vec<String> = (0..registry.num_pvars())
        .map(|i| registry.info(i).unwrap().name.clone())
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), registry.num_pvars(), "names are unique");
    // index_of inverts info().name for every variable.
    for i in 0..registry.num_pvars() {
        let name = registry.info(i).unwrap().name.clone();
        assert_eq!(registry.index_of(&name), Some(i));
    }
    assert!(registry.info(registry.num_pvars()).is_err());
    assert!(registry.index_of("no_such_pvar").is_none());
}

#[test]
fn class_and_mutability_metadata() {
    let (_, registry) = registry();
    let timer = registry.index_of("match_time_ns").unwrap();
    assert_eq!(registry.info(timer).unwrap().class, PvarClass::Timer);
    let counter = registry.index_of("out_of_sequence_messages").unwrap();
    assert_eq!(registry.info(counter).unwrap().class, PvarClass::Counter);
    let hwm = registry.index_of("unexpected_queue_depth_hwm").unwrap();
    let info = registry.info(hwm).unwrap();
    assert_eq!(info.class, PvarClass::HighWatermark);
    assert!(info.continuous && info.readonly);
    let lwm = registry.index_of("unexpected_queue_depth_lwm").unwrap();
    assert_eq!(registry.info(lwm).unwrap().class, PvarClass::LowWatermark);
    let hist = registry.index_of("drain_batch_size_hist").unwrap();
    assert_eq!(registry.info(hist).unwrap().class, PvarClass::Histogram);
}

#[test]
fn fresh_handle_reads_zero_until_started() {
    let (spc, registry) = registry();
    spc.add(Counter::MessagesSent, 10);
    let mut session = PvarSession::new(&registry);
    let h = session
        .handle_alloc(registry.index_of("messages_sent").unwrap())
        .unwrap();
    // Allocated stopped: the 10 pre-existing events are invisible.
    assert_eq!(session.read(h).unwrap(), PvarValue::Scalar(0));
    session.start(h).unwrap();
    spc.add(Counter::MessagesSent, 3);
    assert_eq!(session.read(h).unwrap(), PvarValue::Scalar(3));
}

#[test]
fn stop_freezes_and_start_rebase() {
    let (spc, registry) = registry();
    let mut session = PvarSession::new(&registry);
    let h = session
        .handle_alloc(registry.index_of("messages_sent").unwrap())
        .unwrap();
    session.start(h).unwrap();
    spc.add(Counter::MessagesSent, 5);
    session.stop(h).unwrap();
    spc.add(Counter::MessagesSent, 100);
    assert_eq!(
        session.read(h).unwrap(),
        PvarValue::Scalar(5),
        "stopped handle keeps the frozen value"
    );
    session.start(h).unwrap();
    spc.add(Counter::MessagesSent, 2);
    assert_eq!(
        session.read(h).unwrap(),
        PvarValue::Scalar(2),
        "restart rebases to the current global value"
    );
}

#[test]
fn sessions_are_isolated_from_each_other() {
    let (spc, registry) = registry();
    let idx = registry.index_of("messages_sent").unwrap();

    let mut a = PvarSession::new(&registry);
    let ha = a.handle_alloc(idx).unwrap();
    a.start(ha).unwrap();
    spc.add(Counter::MessagesSent, 4);

    let mut b = PvarSession::new(&registry);
    let hb = b.handle_alloc(idx).unwrap();
    b.start(hb).unwrap();
    spc.add(Counter::MessagesSent, 6);

    assert_eq!(a.read(ha).unwrap(), PvarValue::Scalar(10));
    assert_eq!(b.read(hb).unwrap(), PvarValue::Scalar(6));

    // A's reset must not disturb B (the MPI_T per-session guarantee).
    a.reset(ha).unwrap();
    assert_eq!(a.read(ha).unwrap(), PvarValue::Scalar(0));
    assert_eq!(b.read(hb).unwrap(), PvarValue::Scalar(6));
    // And the shared global cell itself is untouched.
    assert_eq!(spc.get(Counter::MessagesSent), 10);
}

#[test]
fn watermarks_are_continuous_and_immutable() {
    let (spc, registry) = registry();
    let mut session = PvarSession::new(&registry);
    let h = session
        .handle_alloc(registry.index_of("unexpected_queue_depth_hwm").unwrap())
        .unwrap();
    spc.record_level(Watermark::UnexpectedQueueDepth, 17);
    // Continuous: readable immediately, no start needed.
    assert_eq!(session.read(h).unwrap(), PvarValue::Scalar(17));
    assert_eq!(session.start(h), Err(MpitError::NoStartStop));
    assert_eq!(session.stop(h), Err(MpitError::NoStartStop));
    assert_eq!(session.reset(h), Err(MpitError::NoWrite));
}

#[test]
fn histogram_handles_read_bucket_deltas() {
    let (spc, registry) = registry();
    spc.record_hist(Histogram::DrainBatchSize, 4); // pre-session noise
    let mut session = PvarSession::new(&registry);
    let h = session
        .handle_alloc(registry.index_of("drain_batch_size_hist").unwrap())
        .unwrap();
    session.start(h).unwrap();
    spc.record_hist(Histogram::DrainBatchSize, 0);
    spc.record_hist(Histogram::DrainBatchSize, 5);
    match session.read(h).unwrap() {
        PvarValue::Histogram {
            buckets,
            sum,
            count,
        } => {
            assert_eq!(count, 2, "pre-session observation subtracted");
            assert_eq!(sum, 5);
            assert_eq!(buckets[0], 1); // the zero
            assert_eq!(buckets[3], 1); // 5 → bucket 3 ([4,7])
            assert_eq!(buckets.iter().sum::<u64>(), 2);
        }
        other => panic!("expected histogram value, got {other:?}"),
    }
}

#[test]
fn invalid_handles_and_indices_error() {
    let (_, registry) = registry();
    let mut session = PvarSession::new(&registry);
    assert_eq!(
        session.handle_alloc(registry.num_pvars()),
        Err(MpitError::InvalidIndex)
    );
    let other_session_handle = {
        let mut other = PvarSession::new(&registry);
        other
            .handle_alloc(registry.index_of("messages_sent").unwrap())
            .unwrap()
    };
    // Same index value, but this session never allocated it.
    assert_eq!(
        session.read(other_session_handle),
        Err(MpitError::InvalidHandle)
    );
}

#[test]
fn prometheus_output_parses_back() {
    let (spc, registry) = registry();
    spc.add(Counter::MessagesSent, 42);
    spc.record_level(Watermark::InstanceRxDepth, 9);
    spc.record_hist(Histogram::DrainBatchSize, 3);
    spc.record_hist(Histogram::DrainBatchSize, 300);

    let page = prometheus::render(&registry);
    let samples = prometheus::parse(&page).expect("page must be well-formed");

    let lookup = |name: &str| -> f64 {
        samples
            .iter()
            .find(|s| s.name == name && s.le.is_none())
            .unwrap_or_else(|| panic!("missing sample {name}"))
            .value
    };
    assert_eq!(lookup("fairmpi_messages_sent"), 42.0);
    assert_eq!(lookup("fairmpi_instance_rx_depth_hwm"), 9.0);
    assert_eq!(lookup("fairmpi_instance_rx_depth_lwm"), 9.0);
    assert_eq!(lookup("fairmpi_drain_batch_size_hist_count"), 2.0);
    assert_eq!(lookup("fairmpi_drain_batch_size_hist_sum"), 303.0);

    // Histogram buckets are cumulative and end at +Inf == count.
    let buckets: Vec<&prometheus::Sample> = samples
        .iter()
        .filter(|s| s.name == "fairmpi_drain_batch_size_hist_bucket")
        .collect();
    assert_eq!(buckets.len(), HISTOGRAM_BUCKETS);
    let mut prev = 0.0;
    for b in &buckets {
        assert!(b.value >= prev, "bucket counts must be cumulative");
        prev = b.value;
    }
    assert_eq!(buckets.last().unwrap().le.as_deref(), Some("+Inf"));
    assert_eq!(buckets.last().unwrap().value, 2.0);
}

#[test]
fn json_snapshot_round_trips_and_matches_spc() {
    let (spc, registry) = registry();
    spc.add(Counter::OutOfSequenceMessages, 7);
    spc.add(Counter::MatchTimeNanos, 1234);
    spc.record_hist(Histogram::OosReplayChain, 2);

    let doc = json::Value::Obj(vec![
        ("schema".to_string(), json::Value::from("fairmpi.pvars")),
        ("version".to_string(), json::Value::from(1u64)),
        ("pvars".to_string(), json::pvars_value(&registry)),
    ]);
    let text = doc.render();
    let back = json::parse(&text).expect("snapshot must parse");

    assert_eq!(
        back.get("schema").and_then(|v| v.as_str()),
        Some("fairmpi.pvars")
    );
    let pvars = back.get("pvars").and_then(|v| v.as_arr()).unwrap();
    assert_eq!(pvars.len(), registry.num_pvars());

    let find = |name: &str| -> &json::Value {
        pvars
            .iter()
            .find(|p| p.get("name").and_then(|v| v.as_str()) == Some(name))
            .unwrap_or_else(|| panic!("missing pvar {name}"))
    };
    assert_eq!(
        find("out_of_sequence_messages")
            .get("value")
            .and_then(|v| v.as_u64()),
        Some(7)
    );
    assert_eq!(
        find("match_time_ns").get("value").and_then(|v| v.as_u64()),
        Some(1234)
    );
    let hist = find("oos_replay_chain_hist");
    assert_eq!(hist.get("count").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(hist.get("sum").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(
        hist.get("buckets")
            .and_then(|v| v.as_arr())
            .map(|a| a.len()),
        Some(HISTOGRAM_BUCKETS)
    );
}

#[test]
fn json_parser_handles_general_documents() {
    let v =
        json::parse(r#"{"a": [1, 2.5, -3], "b": {"nested": true}, "s": "x\n\"y\"", "n": null}"#)
            .unwrap();
    assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
    assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
    assert_eq!(
        v.get("b").unwrap().get("nested"),
        Some(&json::Value::Bool(true))
    );
    assert_eq!(v.get("s").unwrap().as_str(), Some("x\n\"y\""));
    assert_eq!(v.get("n"), Some(&json::Value::Null));
    let multibyte = json::parse(r#"{"µs": "a→b\\c"}"#).unwrap();
    assert_eq!(multibyte.get("µs").unwrap().as_str(), Some("a→b\\c"));
    assert!(json::parse("{\"unterminated\": ").is_err());
    assert!(json::parse("\"open").is_err());
    assert!(json::parse("[1, 2,]").is_err());
    assert!(json::parse("{} trailing").is_err());
}

#[test]
fn rows_render_one_per_line_and_parse_back() {
    let fields = vec![
        ("label".to_string(), json::Value::from("x")),
        (
            "cols".to_string(),
            json::Value::Arr(vec!["t_ns".into(), "n".into()]),
        ),
    ];
    let rows = vec![vec![10, 0], vec![20, 7]];
    let text = json::render_with_rows(&fields, "rows", &rows);
    assert!(text.contains("\n    [20, 7]\n"), "{text}");
    let mut expected = fields.clone();
    expected.push((
        "rows".to_string(),
        json::Value::Arr(
            rows.iter()
                .map(|r| json::Value::Arr(r.iter().map(|&v| v.into()).collect()))
                .collect(),
        ),
    ));
    assert_eq!(json::parse(&text), Ok(json::Value::Obj(expected)));
    let empty = json::render_with_rows(&[], "rows", &[]);
    assert_eq!(
        json::parse(&empty),
        Ok(json::Value::Obj(vec![(
            "rows".to_string(),
            json::Value::Arr(vec![])
        )]))
    );
}

/// An untouched low watermark stores `u64::MAX` internally as its
/// fetch_min identity; every externally visible path — raw registry
/// reads, the JSON dump, the Prometheus page — must translate that
/// sentinel to 0 rather than report an absurd 18-quintillion "minimum".
#[test]
fn untouched_watermarks_export_zero_not_the_sentinel() {
    let (spc, registry) = registry();
    for w in Watermark::ALL {
        for suffix in ["_hwm", "_lwm"] {
            let idx = registry
                .index_of(&format!("{}{}", w.name(), suffix))
                .unwrap();
            assert_eq!(
                registry.read_raw(idx).unwrap(),
                PvarValue::Scalar(0),
                "{}{suffix} before any record",
                w.name()
            );
        }
    }
    let sentinel = u64::MAX.to_string();
    assert!(
        !prometheus::render(&registry).contains(&sentinel),
        "Prometheus page leaked the untouched-lwm sentinel"
    );
    assert!(
        !json::pvars_value(&registry).render().contains(&sentinel),
        "JSON dump leaked the untouched-lwm sentinel"
    );

    // One record arms both extremes of that cell only; its neighbors keep
    // reading zero.
    spc.record_level(Watermark::OffloadQueueDepth, 17);
    let lwm = registry.index_of("offload_queue_depth_lwm").unwrap();
    assert_eq!(registry.read_raw(lwm).unwrap(), PvarValue::Scalar(17));
    let other = registry.index_of("posted_recv_queue_depth_lwm").unwrap();
    assert_eq!(registry.read_raw(other).unwrap(), PvarValue::Scalar(0));
}
