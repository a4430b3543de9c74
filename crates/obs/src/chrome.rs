//! Trace exporters: chrome trace-event JSON and a compact JSONL log.
//!
//! The chrome writer emits the trace-event format's JSON-object flavor
//! (`{"traceEvents": [...], ...}`) so the file loads directly in
//! `about:tracing` or <https://ui.perfetto.dev>: complete spans as
//! `ph:"X"` with µs `ts`/`dur`, instants as `ph:"i"` (thread scope),
//! counter samples as `ph:"C"`, and one `ph:"M"` `thread_name` metadata
//! record per registered thread. Causality ids surface as `args.round`
//! (and the event's `id` field) so a whole gather→predict→install round
//! can be selected by id across node, wire, and checker tracks.
//!
//! The JSONL writer emits the same events one compact object per line —
//! grep/jq-friendly.
//!
//! The format checks (every event's thread is named, every span has a
//! duration, every counter a value) are this module's unit tests; the
//! checks of a real run's trace (round ancestry, monotone counter
//! mirrors) are in `tests/live_metrics.rs`, on the drained [`Trace`].

use std::io;
use std::path::Path;

use crate::json::{Style, Writer};
use crate::{Event, EventKind, Trace};

/// Renders `trace` as chrome trace-event JSON.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut events: Vec<String> = Vec::with_capacity(trace.events.len() + trace.threads.len());
    for (tid, name) in &trace.threads {
        let mut args = Writer::object(Style::Compact);
        args.field_str("name", name);
        let mut w = Writer::object(Style::Compact);
        w.field_str("name", "thread_name")
            .field_str("ph", "M")
            .field_u64("pid", 1)
            .field_u64("tid", *tid)
            .field_raw("args", &args.finish());
        events.push(w.finish());
    }
    for ev in &trace.events {
        events.push(chrome_event(ev));
    }
    let mut other = Writer::object(Style::Compact);
    other.field_u64("dropped_events", trace.dropped);
    let mut w = Writer::object(Style::Compact);
    w.field_raw("traceEvents", &crate::json::array(&events))
        .field_str("displayTimeUnit", "ms")
        .field_raw("otherData", &other.finish());
    w.finish()
}

fn chrome_event(ev: &Event) -> String {
    let mut w = Writer::object(Style::Compact);
    w.field_str("name", ev.name)
        .field_str("cat", ev.cat)
        .field_u64("pid", 1)
        .field_u64("tid", ev.tid)
        .field_u64("ts", ev.ts_us);
    match ev.kind {
        EventKind::Span { dur_us } => {
            w.field_str("ph", "X").field_u64("dur", dur_us);
        }
        EventKind::Instant => {
            w.field_str("ph", "i").field_str("s", "t");
        }
        EventKind::Counter { value } => {
            let mut args = Writer::object(Style::Compact);
            args.field_i64(ev.name, value);
            w.field_str("ph", "C").field_raw("args", &args.finish());
            return w.finish();
        }
    }
    if ev.id != 0 {
        let mut args = Writer::object(Style::Compact);
        args.field_u64("round", ev.id);
        w.field_str("id", &format!("{:#x}", ev.id))
            .field_raw("args", &args.finish());
    }
    w.finish()
}

/// Renders `trace` as JSONL: one compact event object per line, with a
/// leading `meta` line carrying thread names and the drop count.
pub fn jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    let threads: Vec<String> = trace
        .threads
        .iter()
        .map(|(tid, name)| {
            let mut w = Writer::object(Style::Compact);
            w.field_u64("tid", *tid).field_str("name", name);
            w.finish()
        })
        .collect();
    let mut meta = Writer::object(Style::Compact);
    meta.field_str("kind", "meta")
        .field_u64("dropped", trace.dropped)
        .field_raw("threads", &crate::json::array(&threads));
    out.push_str(&meta.finish());
    out.push('\n');
    for ev in &trace.events {
        let mut w = Writer::object(Style::Compact);
        match ev.kind {
            EventKind::Span { dur_us } => {
                w.field_str("kind", "span");
                w.field_str("name", ev.name)
                    .field_str("cat", ev.cat)
                    .field_u64("ts", ev.ts_us)
                    .field_u64("tid", ev.tid)
                    .field_u64("id", ev.id)
                    .field_u64("dur", dur_us);
            }
            EventKind::Instant => {
                w.field_str("kind", "instant");
                w.field_str("name", ev.name)
                    .field_str("cat", ev.cat)
                    .field_u64("ts", ev.ts_us)
                    .field_u64("tid", ev.tid)
                    .field_u64("id", ev.id);
            }
            EventKind::Counter { value } => {
                w.field_str("kind", "counter");
                w.field_str("name", ev.name)
                    .field_str("cat", ev.cat)
                    .field_u64("ts", ev.ts_us)
                    .field_u64("tid", ev.tid)
                    .field_i64("value", value);
            }
        }
        out.push_str(&w.finish());
        out.push('\n');
    }
    out
}

/// Writes both export formats: chrome JSON at `path`, JSONL alongside it
/// with an `.jsonl` extension.
pub fn write_files(trace: &Trace, path: &Path) -> io::Result<()> {
    std::fs::write(path, chrome_trace_json(trace))?;
    std::fs::write(path.with_extension("jsonl"), jsonl(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn sample_trace() -> Trace {
        Trace {
            events: vec![
                Event {
                    name: "node.gather",
                    cat: "live",
                    ts_us: 10,
                    tid: 1,
                    id: 0x1_0000_0007,
                    kind: EventKind::Span { dur_us: 40 },
                },
                Event {
                    name: "cache.hit",
                    cat: "cache",
                    ts_us: 20,
                    tid: 2,
                    id: 0,
                    kind: EventKind::Instant,
                },
                Event {
                    name: "reactor.wake_lag_us",
                    cat: "live",
                    ts_us: 30,
                    tid: 1,
                    id: 0,
                    kind: EventKind::Counter { value: 120 },
                },
            ],
            threads: vec![(1, "cb-reactor-0".into()), (2, "cb-checker-lane-0".into())],
            dropped: 3,
        }
    }

    #[test]
    fn chrome_schema_round_trip() {
        let trace = sample_trace();
        let doc = parse(&chrome_trace_json(&trace)).expect("chrome output is valid JSON");
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Value::as_str),
            Some("ms")
        );
        assert_eq!(
            doc.get("otherData")
                .and_then(|o| o.get("dropped_events"))
                .and_then(Value::as_u64),
            Some(3)
        );
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents array");
        // 2 thread_name metadata records + 3 events.
        assert_eq!(events.len(), 5);
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .collect();
        assert_eq!(metas.len(), 2);
        assert_eq!(
            metas[0]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str),
            Some("cb-reactor-0")
        );
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .expect("complete span present");
        assert_eq!(
            span.get("name").and_then(Value::as_str),
            Some("node.gather")
        );
        assert_eq!(span.get("ts").and_then(Value::as_u64), Some(10));
        assert_eq!(span.get("dur").and_then(Value::as_u64), Some(40));
        assert_eq!(
            span.get("args")
                .and_then(|a| a.get("round"))
                .and_then(Value::as_u64),
            Some(0x1_0000_0007)
        );
        let counter = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("C"))
            .expect("counter present");
        assert_eq!(
            counter
                .get("args")
                .and_then(|a| a.get("reactor.wake_lag_us"))
                .and_then(Value::as_f64),
            Some(120.0)
        );
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Value::as_str) == Some("i")));
    }

    #[test]
    fn jsonl_lines_parse_and_cover_all_events() {
        let trace = sample_trace();
        let text = jsonl(&trace);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "meta line + one line per event");
        let meta = parse(lines[0]).expect("meta line parses");
        assert_eq!(meta.get("kind").and_then(Value::as_str), Some("meta"));
        assert_eq!(meta.get("dropped").and_then(Value::as_u64), Some(3));
        for line in &lines[1..] {
            let v = parse(line).expect("event line parses");
            let kind = v.get("kind").and_then(Value::as_str);
            assert!(
                matches!(kind, Some("span" | "instant" | "counter")),
                "{line}"
            );
            assert!(v.get("ts").is_some());
        }
        let span = parse(lines[1]).expect("span line");
        assert_eq!(span.get("id").and_then(Value::as_u64), Some(0x1_0000_0007));
        assert_eq!(span.get("dur").and_then(Value::as_u64), Some(40));
    }

    /// The trace-event format's structural rules, over every record the
    /// exporter writes: each event names a thread that has a
    /// `thread_name` record, carries a name and a numeric `ts`, and has a
    /// known phase; each span (`X`) has a `dur` and each counter (`C`)
    /// its value under its own name.
    #[test]
    fn every_thread_is_named_and_every_span_has_a_duration() {
        let doc = parse(&chrome_trace_json(&sample_trace())).expect("valid JSON");
        let records = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("array");
        let text = |e: &Value, k: &str| e.get(k).and_then(Value::as_str).map(str::to_owned);
        let number = |e: Option<&Value>| e.and_then(Value::as_f64).is_some();
        let (meta, events): (Vec<&Value>, Vec<&Value>) = records
            .iter()
            .partition(|e| text(e, "ph").as_deref() == Some("M"));
        let named: Vec<_> = meta
            .iter()
            .filter(|e| text(e, "name").as_deref() == Some("thread_name"))
            .map(|e| e.get("tid"))
            .collect();
        assert!(events.iter().any(|e| text(e, "ph").as_deref() == Some("X")));
        for ev in events {
            let name = text(ev, "name").filter(|n| !n.is_empty()).expect("a name");
            assert!(named.contains(&ev.get("tid")), "{name}: unnamed thread");
            assert!(number(ev.get("ts")), "{name}: ts");
            match text(ev, "ph").as_deref() {
                Some("X") => assert!(number(ev.get("dur")), "{name}: dur"),
                Some("C") => assert!(number(ev.get("args").and_then(|a| a.get(&name)))),
                Some("i") => {}
                other => panic!("{name}: phase {other:?}"),
            }
        }
    }
}
