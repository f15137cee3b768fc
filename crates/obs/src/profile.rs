//! Profile trees and trace exporters built over recorded span trees.
//!
//! [`ProfileReport`] folds a [`Snapshot`]'s spans into a
//! name-aggregated call tree with total/self wall time per node — the
//! text answer to "where did the time go". The same tree serialises to
//! flamegraph.pl's folded-stacks format ([`ProfileReport::folded`]), and
//! the raw spans serialise to Chrome trace-event JSON ([`chrome_trace`])
//! loadable in Perfetto or `chrome://tracing`.

use crate::json::{Fixed, Object};
use crate::json_object;
use crate::{fmt_ns, Snapshot, SpanRecord, Table};
use dmf_hash::FnvBuildHasher;
use std::collections::HashMap;
use std::fmt;

/// One node of the aggregated profile tree: all spans sharing a name
/// under the same parent path, folded together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Span name.
    pub name: String,
    /// Number of spans folded into this node.
    pub calls: u64,
    /// Total wall time including children, nanoseconds.
    pub total_ns: u64,
    /// Wall time not covered by child spans, nanoseconds.
    pub self_ns: u64,
    /// Child nodes, ordered by earliest start.
    pub children: Vec<ProfileNode>,
}

/// A snapshot's span forest aggregated by name-path, with per-node total
/// and self (exclusive) wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Root nodes (spans with no recorded parent), ordered by earliest
    /// start.
    pub roots: Vec<ProfileNode>,
    /// Spans folded into the report.
    pub span_count: usize,
    /// Spans evicted from the recorder's bounded window before the
    /// snapshot — the report cannot account for their time.
    pub spans_dropped: u64,
}

impl ProfileReport {
    /// Builds the aggregated tree from a snapshot.
    ///
    /// A span whose parent was evicted from the bounded window (or that
    /// was adopted from a trace recorded elsewhere) is treated as a root,
    /// so the report never silently drops time.
    pub fn from_snapshot(snapshot: &Snapshot) -> Self {
        let spans = &snapshot.spans;
        let mut by_id: HashMap<u64, usize, FnvBuildHasher> = HashMap::default();
        for (i, s) in spans.iter().enumerate() {
            by_id.insert(s.span_id, i);
        }
        let mut children: HashMap<u64, Vec<usize>, FnvBuildHasher> = HashMap::default();
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            // A self-parent (impossible from the recorder, conceivable in
            // a hand-built snapshot) must not recurse forever.
            if s.parent_id != 0 && s.parent_id != s.span_id && by_id.contains_key(&s.parent_id) {
                children.entry(s.parent_id).or_default().push(i);
            } else {
                roots.push(i);
            }
        }
        let roots = fold(spans, &roots, &children);
        ProfileReport { roots, span_count: spans.len(), spans_dropped: snapshot.spans_dropped }
    }

    /// Total wall time across all roots, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.total_ns).sum()
    }

    /// The report as flamegraph.pl-compatible folded stacks: one
    /// `root;child;leaf self_ns` line per node with non-zero self time,
    /// sorted lexicographically. Feed the output straight to
    /// `flamegraph.pl` (weights are nanoseconds).
    pub fn folded(&self) -> String {
        let mut lines = Vec::new();
        for root in &self.roots {
            fold_lines(root, "", &mut lines);
        }
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }
}

fn fold(
    spans: &[SpanRecord],
    members: &[usize],
    children: &HashMap<u64, Vec<usize>, FnvBuildHasher>,
) -> Vec<ProfileNode> {
    // Group sibling spans by name, preserving earliest-start order.
    let mut order: Vec<&'static str> = Vec::new();
    let mut groups: HashMap<&'static str, Vec<usize>, FnvBuildHasher> = HashMap::default();
    let mut sorted: Vec<usize> = members.to_vec();
    sorted.sort_by_key(|&i| (spans[i].start_ns, spans[i].span_id));
    for i in sorted {
        let name = spans[i].name;
        if !groups.contains_key(name) {
            order.push(name);
        }
        groups.entry(name).or_default().push(i);
    }
    order
        .into_iter()
        .map(|name| {
            let member_ids = &groups[name];
            let calls = member_ids.len() as u64;
            let total_ns: u64 = member_ids.iter().map(|&i| spans[i].dur_ns).sum();
            let child_ids: Vec<usize> = member_ids
                .iter()
                .flat_map(|&i| {
                    children.get(&spans[i].span_id).map_or(&[] as &[usize], Vec::as_slice)
                })
                .copied()
                .collect();
            let nodes = fold(spans, &child_ids, children);
            let child_total: u64 = nodes.iter().map(|c| c.total_ns).sum();
            ProfileNode {
                name: name.to_owned(),
                calls,
                total_ns,
                // Children overlapping their parent's end (clock skew,
                // cross-thread adoption) could exceed it; saturate.
                self_ns: total_ns.saturating_sub(child_total),
                children: nodes,
            }
        })
        .collect()
}

fn fold_lines(node: &ProfileNode, prefix: &str, out: &mut Vec<String>) {
    let path =
        if prefix.is_empty() { node.name.clone() } else { format!("{prefix};{}", node.name) };
    if node.self_ns > 0 {
        out.push(format!("{path} {}", node.self_ns));
    }
    for child in &node.children {
        fold_lines(child, &path, out);
    }
}

impl fmt::Display for ProfileReport {
    /// The text profile: an indented tree with per-node calls, total,
    /// self, and self time as a share of the report total.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total_ns().max(1);
        writeln!(
            f,
            "profile ({} spans, {} total{}):",
            self.span_count,
            fmt_ns(self.total_ns()),
            if self.spans_dropped > 0 {
                format!(", {} spans evicted", self.spans_dropped)
            } else {
                String::new()
            }
        )?;
        let mut t = Table::new(["span", "calls", "total", "self", "self%"]);
        for root in &self.roots {
            table_rows(root, 0, total, &mut t);
        }
        write!(f, "{t}")
    }
}

fn table_rows(node: &ProfileNode, depth: usize, report_total: u64, t: &mut Table) {
    t.row([
        format!("{}{}", "  ".repeat(depth), node.name),
        node.calls.to_string(),
        fmt_ns(node.total_ns),
        fmt_ns(node.self_ns),
        format!("{:.1}%", 100.0 * node.self_ns as f64 / report_total as f64),
    ]);
    for child in &node.children {
        table_rows(child, depth + 1, report_total, t);
    }
}

/// Serialises a snapshot's spans as Chrome trace-event JSON (`X` complete
/// events, microsecond timestamps), loadable in Perfetto and
/// `chrome://tracing`. The recorder's thread ordinal becomes `tid`;
/// trace/span/parent IDs ride along in `args` as 16-hex-digit strings.
///
/// Events are sorted by `(start_ns, span_id)`, so equal sessions
/// serialise byte-identically.
pub fn chrome_trace(snapshot: &Snapshot) -> String {
    let mut spans: Vec<&SpanRecord> = snapshot.spans.iter().collect();
    spans.sort_by_key(|s| (s.start_ns, s.span_id));
    let hex = |id: u64| format!("{id:016x}");
    let events: Vec<Object> = spans
        .iter()
        .map(|s| {
            let ids = json_object!("trace_id": hex(s.trace_id), "span_id": hex(s.span_id),
                "parent_id": hex(s.parent_id));
            json_object!("name": s.name, "cat": "span", "ph": "X", "ts": micros(s.start_ns),
                "dur": micros(s.dur_ns), "pid": 1u32, "tid": s.tid, "args": ids)
        })
        .collect();
    json_object!("traceEvents": events).finish() + "\n"
}

/// Nanoseconds as microseconds with sub-µs precision (`1234` ns →
/// `1.234`), the unit Chrome trace events use.
fn micros(ns: u64) -> Fixed {
    Fixed(ns as f64 / 1_000.0, 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use std::collections::BTreeMap;

    fn span(
        name: &'static str,
        trace_id: u64,
        span_id: u64,
        parent_id: u64,
        start_ns: u64,
        dur_ns: u64,
    ) -> SpanRecord {
        SpanRecord { name, trace_id, span_id, parent_id, tid: 1, start_ns, dur_ns }
    }

    fn snapshot(spans: Vec<SpanRecord>) -> Snapshot {
        Snapshot {
            elapsed_ns: 10_000,
            spans,
            spans_dropped: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    #[test]
    fn aggregates_self_and_total_time() {
        // root(1000) -> a(300), a(200); second root-less span is a root.
        let snap = snapshot(vec![
            span("a", 7, 2, 1, 100, 300),
            span("a", 7, 3, 1, 500, 200),
            span("root", 7, 1, 0, 0, 1000),
        ]);
        let report = ProfileReport::from_snapshot(&snap);
        assert_eq!(report.roots.len(), 1);
        let root = &report.roots[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.calls, 1);
        assert_eq!(root.total_ns, 1000);
        assert_eq!(root.self_ns, 500);
        assert_eq!(root.children.len(), 1);
        let a = &root.children[0];
        assert_eq!((a.name.as_str(), a.calls, a.total_ns, a.self_ns), ("a", 2, 500, 500));
        assert_eq!(report.total_ns(), 1000);
    }

    #[test]
    fn orphans_become_roots() {
        // Parent 99 was evicted; the span must still be accounted for.
        let snap = snapshot(vec![span("lost", 7, 2, 99, 100, 300)]);
        let report = ProfileReport::from_snapshot(&snap);
        assert_eq!(report.roots.len(), 1);
        assert_eq!(report.roots[0].name, "lost");
    }

    #[test]
    fn folded_output_is_sorted_and_semicolon_joined() {
        let snap = snapshot(vec![
            span("root", 7, 1, 0, 0, 1000),
            span("b", 7, 2, 1, 100, 300),
            span("a", 7, 3, 1, 500, 200),
        ]);
        let folded = ProfileReport::from_snapshot(&snap).folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines, vec!["root 500", "root;a 200", "root;b 300"]);
        assert!(folded.ends_with('\n'));
    }

    #[test]
    fn zero_self_time_nodes_are_omitted_from_folded() {
        let snap = snapshot(vec![span("root", 7, 1, 0, 0, 500), span("all", 7, 2, 1, 0, 500)]);
        let folded = ProfileReport::from_snapshot(&snap).folded();
        assert_eq!(folded, "root;all 500\n");
    }

    #[test]
    fn chrome_trace_parses_back_with_ids_and_micros() {
        let rec = Recorder::new();
        {
            let _outer = rec.span("outer");
            let _inner = rec.span("inner");
        }
        let snap = rec.snapshot();
        let text = chrome_trace(&snap);
        let v = crate::json::parse(&text).expect("chrome trace must parse");
        let crate::json::Json::Arr(events) = v.get("traceEvents").expect("traceEvents") else {
            panic!("traceEvents must be an array");
        };
        assert_eq!(events.len(), 2);
        for e in events {
            assert!(e.get("ts").is_some() && e.get("dur").is_some());
            assert_eq!(e.get("ph").and_then(crate::json::Json::as_str), Some("X"));
        }
        // Events are start-ordered: outer first despite finishing last.
        let names: Vec<_> = events
            .iter()
            .map(|e| e.get("name").and_then(crate::json::Json::as_str).unwrap_or(""))
            .collect();
        assert_eq!(names, vec!["outer", "inner"]);
        let args = events[1].get("args").expect("args");
        let parent = args.get("parent_id").and_then(crate::json::Json::as_str).expect("parent");
        let outer_id = events[0]
            .get("args")
            .and_then(|a| a.get("span_id"))
            .and_then(crate::json::Json::as_str)
            .expect("span_id");
        assert_eq!(parent, outer_id, "inner's parent must be outer");
    }

    #[test]
    fn micros_renders_sub_microsecond_precision() {
        let text = |ns| crate::json::write(&micros(ns));
        assert_eq!(text(0), "0.000");
        assert_eq!(text(1_234), "1.234");
        assert_eq!(text(999), "0.999");
        // A day-long session keeps every nanosecond digit.
        assert_eq!(text(86_400_000_000_123), "86400000000.123");
    }

    #[test]
    fn display_renders_an_indented_tree() {
        let snap = snapshot(vec![span("root", 7, 1, 0, 0, 1000), span("kid", 7, 2, 1, 0, 400)]);
        let text = ProfileReport::from_snapshot(&snap).to_string();
        assert!(text.contains("profile (2 spans"));
        assert!(text.contains("root"));
        assert!(text.contains("  kid"), "children indent: {text}");
        assert!(text.contains("self%"));
    }
}
