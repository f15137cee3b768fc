//! Round-trips a recorded session through the JSONL exporter and the
//! minimal parser: escaping, stability of field ordering, and value
//! fidelity.

// Test target: the workspace `unwrap_used`/`expect_used`/`panic` deny wall
// applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmf_obs::json::{self, Json};
use dmf_obs::Recorder;
use std::time::Duration;

fn record_session() -> Recorder {
    let rec = Recorder::new();
    {
        let _plan = rec.span("engine_plan");
        let _sched = rec.span("sched_srs");
    }
    rec.count("sim.mix_splits", 27);
    rec.count("sim.droplet_hops", 413);
    rec.gauge_set("plan.storage_peak", 5);
    rec.record_duration("route.astar", Duration::from_micros(42));
    rec
}

#[test]
fn session_roundtrips_through_jsonl() {
    let rec = record_session();
    let mut wire = Vec::new();
    rec.export_jsonl(&mut wire).unwrap();
    let text = String::from_utf8(wire).unwrap();
    let lines = json::parse_lines(&text).unwrap();

    // meta, 2 spans, 2 counters, 1 gauge, 3 histograms (2 span-fed + 1 direct).
    assert_eq!(lines.len(), 9, "unexpected line count in:\n{text}");
    assert_eq!(lines[0].get("type").unwrap().as_str(), Some("meta"));
    assert_eq!(lines[0].get("version").unwrap().as_u64(), Some(2));
    assert_eq!(lines[0].get("spans_dropped").unwrap().as_u64(), Some(0));

    let spans: Vec<&Json> =
        lines.iter().filter(|l| l.get("type").and_then(Json::as_str) == Some("span")).collect();
    assert_eq!(spans.len(), 2);
    // Inner span (sched_srs) finishes first; both carry offsets + durations.
    assert_eq!(spans[0].get("name").unwrap().as_str(), Some("sched_srs"));
    assert_eq!(spans[1].get("name").unwrap().as_str(), Some("engine_plan"));
    for s in &spans {
        assert!(s.get("start_ns").unwrap().as_u64().is_some());
        assert!(s.get("dur_ns").unwrap().as_u64().is_some());
    }

    // Trace-tree fields: 16-hex-digit ID strings that decode back to the
    // in-memory records, with the nesting intact on the wire.
    let hex_id = |s: &Json, key: &str| {
        let text = s.get(key).unwrap().as_str().unwrap();
        assert_eq!(text.len(), 16, "{key} must be 16 hex digits, got {text:?}");
        u64::from_str_radix(text, 16).unwrap()
    };
    let snap = rec.snapshot();
    let inner = &snap.spans[0];
    assert_eq!(hex_id(spans[0], "span_id"), inner.span_id);
    assert_eq!(hex_id(spans[0], "trace_id"), inner.trace_id);
    assert_eq!(hex_id(spans[0], "parent_id"), inner.parent_id);
    assert_eq!(spans[0].get("tid").unwrap().as_u64(), Some(u64::from(inner.tid)));
    // sched_srs nests under engine_plan; both share the root's trace.
    assert_eq!(hex_id(spans[0], "parent_id"), hex_id(spans[1], "span_id"));
    assert_eq!(hex_id(spans[0], "trace_id"), hex_id(spans[1], "trace_id"));
    assert_eq!(hex_id(spans[1], "parent_id"), 0);

    let counter = |name: &str| {
        lines
            .iter()
            .find(|l| {
                l.get("type").and_then(Json::as_str) == Some("counter")
                    && l.get("name").and_then(Json::as_str) == Some(name)
            })
            .and_then(|l| l.get("value").unwrap().as_u64())
    };
    assert_eq!(counter("sim.mix_splits"), Some(27));
    assert_eq!(counter("sim.droplet_hops"), Some(413));

    let gauge =
        lines.iter().find(|l| l.get("type").and_then(Json::as_str) == Some("gauge")).unwrap();
    assert_eq!(gauge.get("name").unwrap().as_str(), Some("plan.storage_peak"));
    assert_eq!(gauge.get("value").unwrap().as_u64(), Some(5));

    let hist =
        lines.iter().find(|l| l.get("name").and_then(Json::as_str) == Some("route.astar")).unwrap();
    assert_eq!(hist.get("type").unwrap().as_str(), Some("hist"));
    assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
    assert_eq!(hist.get("sum_ns").unwrap().as_u64(), Some(42_000));
    match hist.get("buckets").unwrap() {
        Json::Arr(buckets) => {
            assert_eq!(buckets.len(), 1);
            match &buckets[0] {
                Json::Arr(pair) => assert_eq!(pair[1].as_u64(), Some(1)),
                other => panic!("bucket should be a pair, got {other:?}"),
            }
        }
        other => panic!("buckets should be an array, got {other:?}"),
    }
}

#[test]
fn field_order_is_stable() {
    let rec = record_session();
    let mut wire = Vec::new();
    rec.export_jsonl(&mut wire).unwrap();
    let text = String::from_utf8(wire).unwrap();
    for line in text.lines() {
        // The writer leads every record with its type then its name; this
        // ordering is part of the schema (documented in DESIGN.md) so
        // stream consumers can dispatch on a prefix.
        assert!(line.starts_with("{\"type\":\""), "line: {line}");
        if !line.contains("\"meta\"") {
            let after_type = line.split("\"name\":").nth(1);
            assert!(after_type.is_some(), "records carry a name: {line}");
        }
    }
    // Two exports of the same session are byte-identical except the meta
    // elapsed_ns line.
    let mut wire2 = Vec::new();
    rec.export_jsonl(&mut wire2).unwrap();
    let text2 = String::from_utf8(wire2).unwrap();
    let tail = |t: &str| t.lines().skip(1).collect::<Vec<_>>().join("\n");
    assert_eq!(tail(&text), tail(&text2));
}

#[test]
fn hostile_names_escape_and_roundtrip() {
    let rec = Recorder::new();
    let hostile = "weird \"name\"\\ with\nnewline\tand \u{1} ctrl";
    rec.count(hostile, 7);
    let mut wire = Vec::new();
    rec.export_jsonl(&mut wire).unwrap();
    let text = String::from_utf8(wire).unwrap();
    // Every record stays on one physical line even with raw newlines in
    // the metric name.
    assert_eq!(text.lines().count(), 2);
    let lines = json::parse_lines(&text).unwrap();
    assert_eq!(lines[1].get("name").unwrap().as_str(), Some(hostile));
    assert_eq!(lines[1].get("value").unwrap().as_u64(), Some(7));
}

#[test]
fn export_to_path_creates_directories() {
    let dir = std::env::temp_dir().join("dmf_obs_test_export");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("nested").join("session.jsonl");
    let rec = record_session();
    rec.export_jsonl_path(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(json::parse_lines(&text).unwrap().len() > 1);
    let _ = std::fs::remove_dir_all(&dir);
}
