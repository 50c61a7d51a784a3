//! Chrome-trace-event (Perfetto-loadable) JSON export.
//!
//! Layout: pid 1 carries one named track per thread/actor; pid 2 carries
//! one track per lock, showing who held it and for how long. Open the
//! output at <https://ui.perfetto.dev> or `chrome://tracing`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{EventKind, NameId};
use crate::trace_data::Trace;

/// pid of thread/actor tracks.
const PID_THREADS: u32 = 1;
/// pid of per-lock tracks.
const PID_LOCKS: u32 = 2;
/// tid offset of per-lock tracks (locks get tids 1000, 1001, ...).
const LOCK_TID_BASE: u32 = 1000;

/// Escape a string into a JSON string literal (without the quotes).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

struct Writer {
    out: String,
    first: bool,
}

impl Writer {
    fn new() -> Self {
        Self {
            out: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"),
            first: true,
        }
    }

    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.out.push_str(",\n");
        }
    }

    /// Microsecond timestamp with sub-ns kept as fraction.
    fn ts(ns: u64) -> String {
        format!("{}.{:03}", ns / 1_000, ns % 1_000)
    }

    fn meta(&mut self, pid: u32, tid: u32, what: &str, name: &str) {
        self.sep();
        let _ = write!(
            self.out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{what}\",\"args\":{{\"name\":\""
        );
        escape_into(&mut self.out, name);
        self.out.push_str("\"}}");
    }

    fn event(&mut self, ph: char, pid: u32, tid: u32, ts_ns: u64, name: &str, extra: &str) {
        self.sep();
        let _ = write!(
            self.out,
            "{{\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"name\":\"",
            Self::ts(ts_ns)
        );
        escape_into(&mut self.out, name);
        self.out.push('"');
        self.out.push_str(extra);
        self.out.push('}');
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

impl Trace {
    /// Export as Chrome trace-event JSON (Perfetto-loadable).
    pub fn to_chrome_json(&self) -> String {
        let mut w = Writer::new();

        // Stable tids for every lock name seen in lock events.
        let mut lock_tids: BTreeMap<u32, u32> = BTreeMap::new();
        for track in &self.tracks {
            for ev in &track.events {
                if matches!(
                    ev.kind,
                    EventKind::LockWait
                        | EventKind::LockAcquired
                        | EventKind::LockReleased
                        | EventKind::TryLockFail
                ) {
                    let next = LOCK_TID_BASE + lock_tids.len() as u32;
                    lock_tids.entry(ev.name.0).or_insert(next);
                }
            }
        }

        w.meta(PID_THREADS, 0, "process_name", "threads");
        for (i, track) in self.tracks.iter().enumerate() {
            w.meta(PID_THREADS, i as u32 + 1, "thread_name", &track.name);
        }
        if !lock_tids.is_empty() {
            w.meta(PID_LOCKS, 0, "process_name", "locks");
            for (&name, &tid) in &lock_tids {
                w.meta(PID_LOCKS, tid, "thread_name", self.name(NameId(name)));
            }
        }

        for (i, track) in self.tracks.iter().enumerate() {
            let tid = i as u32 + 1;
            for ev in &track.events {
                let name = self.name(ev.name);
                match ev.kind {
                    EventKind::SpanBegin => {
                        w.event('B', PID_THREADS, tid, ev.ts_ns, name, "");
                    }
                    EventKind::SpanEnd => {
                        w.event('E', PID_THREADS, tid, ev.ts_ns, name, "");
                    }
                    EventKind::Instant => {
                        w.event('i', PID_THREADS, tid, ev.ts_ns, name, ",\"s\":\"t\"");
                    }
                    EventKind::Counter => {
                        let extra = format!(",\"args\":{{\"value\":{}}}", ev.arg);
                        w.event('C', PID_THREADS, tid, ev.ts_ns, name, &extra);
                    }
                    EventKind::Slice => {
                        let extra = format!(",\"dur\":{}", Writer::ts(ev.arg));
                        w.event('X', PID_THREADS, tid, ev.ts_ns, name, &extra);
                    }
                    EventKind::LockWait => {
                        let label = format!("{name} (wait…)");
                        w.event('i', PID_THREADS, tid, ev.ts_ns, &label, ",\"s\":\"t\"");
                    }
                    EventKind::LockAcquired => {
                        // The wait is rendered as a complete slice ending at
                        // the acquisition instant.
                        if ev.arg > 0 {
                            let label = format!("{name} (wait)");
                            let extra = format!(",\"dur\":{}", Writer::ts(ev.arg));
                            w.event(
                                'X',
                                PID_THREADS,
                                tid,
                                ev.ts_ns.saturating_sub(ev.arg),
                                &label,
                                &extra,
                            );
                        }
                    }
                    EventKind::LockReleased => {
                        // Hold slice on the lock's own track, labeled with
                        // the holder.
                        let lock_tid = lock_tids[&ev.name.0];
                        let extra = format!(",\"dur\":{}", Writer::ts(ev.arg));
                        w.event(
                            'X',
                            PID_LOCKS,
                            lock_tid,
                            ev.ts_ns.saturating_sub(ev.arg),
                            &track.name,
                            &extra,
                        );
                    }
                    EventKind::TryLockFail => {
                        let label = format!("{name} (try-fail)");
                        w.event('i', PID_THREADS, tid, ev.ts_ns, &label, ",\"s\":\"t\"");
                    }
                }
            }
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::trace_data::TrackData;
    use fairmpi_mpit::json;

    fn ev(ts: u64, kind: EventKind, name: u32, arg: u64) -> Event {
        Event {
            ts_ns: ts,
            kind,
            name: NameId(name),
            arg,
        }
    }

    #[test]
    fn export_is_valid_json_with_expected_shape() {
        let trace = Trace {
            names: vec!["work".into(), "lockA".into(), "msgs".into()],
            tracks: vec![TrackData {
                name: "t0".into(),
                events: vec![
                    ev(1_000, EventKind::SpanBegin, 0, 0),
                    ev(1_500, EventKind::Counter, 2, 7),
                    ev(2_000, EventKind::SpanEnd, 0, 0),
                    ev(2_500, EventKind::LockWait, 1, 0),
                    ev(3_000, EventKind::LockAcquired, 1, 500),
                    ev(4_000, EventKind::LockReleased, 1, 1_000),
                    ev(4_100, EventKind::TryLockFail, 1, 0),
                    ev(4_200, EventKind::Slice, 0, 300),
                ],
                dropped: 0,
            }],
        };
        let out = trace.to_chrome_json();
        let doc = json::parse(&out).expect("exporter must emit valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents array");
        assert!(!events.is_empty());
        for e in events {
            for key in ["ph", "pid", "tid", "name"] {
                assert!(e.get(key).is_some(), "event missing {key}: {e:?}");
            }
        }
        // The lock hold slice lands on the lock's track under pid 2.
        let hold = events
            .iter()
            .find(|e| {
                e.get("pid").and_then(|p| p.as_f64()) == Some(2.0)
                    && e.get("ph").and_then(|p| p.as_str()) == Some("X")
            })
            .expect("lock hold slice");
        assert_eq!(hold.get("name").unwrap().as_str(), Some("t0"));
        // B/E balance per name.
        let b = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("B"))
            .count();
        let e = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("E"))
            .count();
        assert_eq!(b, e);
    }

    #[test]
    fn escape_handles_controls() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }
}
