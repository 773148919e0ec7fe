//! The deterministic trace stitcher: merges flushed JSONL event streams
//! from many processes into ordered per-trace timelines.
//!
//! Each replica (and the router) flushes its own JSONL stream; a traced
//! event carries `trace`/`span`/`parent` hex fields (see
//! [`crate::TraceContext`]). The [`TraceStitcher`] ingests any number of
//! named streams, groups traced events by trace id, rebuilds the span
//! tree from the explicit parent links, and reports:
//!
//! * **per-trace timelines** — spans nested under their parents, siblings
//!   ordered by `(ord, source, stream position)`: a total, deterministic
//!   order built only from replayable inputs (events carry no
//!   timestamps), so the same streams always stitch to the same bytes;
//! * **orphaned spans** — a span whose parent id appears in no stream
//!   (a lost hop: the parent's process died before flushing, or a stream
//!   is missing);
//! * **gaps** — a router attempt that claims success (`outcome = "ok"`)
//!   with no server-side span under it: the replica answered but its
//!   events never made it into any stream.
//!
//! [`StitchReport::render_flame`] renders the whole report as an
//! indented text flame summary, the artifact the fleet chaos test
//! (`aqua-serve`'s `fleet_tests.rs`) asserts is byte-identical across runs.

use std::collections::BTreeMap;

use crate::event::{Event, Value};
use crate::trace::{FIELD_PARENT, FIELD_SPAN, FIELD_TRACE};

/// One event tagged with the stream it came from and its position there.
#[derive(Debug, Clone)]
struct SourcedEvent {
    source: String,
    pos: usize,
    event: Event,
}

fn hex_field(event: &Event, name: &str) -> Option<u64> {
    match event.field(name)? {
        Value::Str(s) => u64::from_str_radix(s, 16).ok(),
        _ => None,
    }
}

/// `(trace, span, parent)` of a traced event, or `None` for plain events.
fn trace_coords(event: &Event) -> Option<(u64, u64, u64)> {
    Some((
        hex_field(event, FIELD_TRACE)?,
        hex_field(event, FIELD_SPAN)?,
        hex_field(event, FIELD_PARENT)?,
    ))
}

/// One span in a stitched trace: its identity, the stream that emitted
/// it, every event stamped with its span id (first = the defining event),
/// and its children in deterministic order.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span's id.
    pub span_id: u64,
    /// Parent span id (`0` at the root).
    pub parent_span_id: u64,
    /// Stream the defining event came from.
    pub source: String,
    /// Events stamped with this span id, in `(ord, source, pos)` order.
    /// The first defines the span's name and fields; later ones are
    /// annotations (e.g. an ejection fired under a failover attempt).
    pub events: Vec<Event>,
    /// Child spans in `(ord, source, pos)` order of their defining events.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// The defining event's name.
    pub fn name(&self) -> &str {
        &self.events[0].name
    }

    /// The defining event's field `name` as a string, if present.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        match self.events[0].field(name) {
            Some(Value::Str(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Spans in this subtree (this node included).
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanNode::span_count)
            .sum::<usize>()
    }
}

/// One request's stitched timeline.
#[derive(Debug, Clone)]
pub struct StitchedTrace {
    /// The trace id shared by every span below.
    pub trace_id: u64,
    /// The request ordinal the trace was minted from (minimum event
    /// ordinal — the timeline's sort key across traces).
    pub ordinal: u64,
    /// Root spans (parent id 0). A well-formed request trace has exactly
    /// one.
    pub roots: Vec<SpanNode>,
    /// Spans whose parent id appears in no ingested stream.
    pub orphans: Vec<SpanNode>,
    /// Human-readable gap findings (successful attempts with no
    /// server-side span).
    pub gaps: Vec<String>,
}

impl StitchedTrace {
    /// `true` when the trace is one tree: a single root and no orphans.
    pub fn single_rooted(&self) -> bool {
        self.roots.len() == 1 && self.orphans.is_empty()
    }

    /// Total spans stitched into this trace (roots and orphans).
    pub fn span_count(&self) -> usize {
        self.roots
            .iter()
            .chain(&self.orphans)
            .map(SpanNode::span_count)
            .sum()
    }

    /// The trace's hop sequence: every `*.attempt` span in timeline
    /// order as `(backend, outcome)` — comparable against the router's
    /// recorded failover decisions.
    pub fn hops(&self) -> Vec<(String, String)> {
        fn walk(node: &SpanNode, out: &mut Vec<(String, String)>) {
            if node.name().ends_with(".attempt") {
                out.push((
                    node.str_field("backend").unwrap_or("?").to_string(),
                    node.str_field("outcome").unwrap_or("?").to_string(),
                ));
            }
            for child in &node.children {
                walk(child, out);
            }
        }
        let mut out = Vec::new();
        for root in self.roots.iter().chain(&self.orphans) {
            walk(root, &mut out);
        }
        out
    }
}

/// The stitcher's full output over every ingested stream.
#[derive(Debug, Clone)]
pub struct StitchReport {
    /// Stitched traces ordered by `(ordinal, trace_id)`.
    pub traces: Vec<StitchedTrace>,
    /// Events carrying no trace fields (per-sample pipeline events,
    /// untraced swaps, ...): counted, not stitched.
    pub untraced_events: usize,
}

impl StitchReport {
    /// The stitched trace with `trace_id`, if present.
    pub fn trace(&self, trace_id: u64) -> Option<&StitchedTrace> {
        self.traces.iter().find(|t| t.trace_id == trace_id)
    }

    /// Renders the whole report as an indented text flame summary. Pure
    /// function of the ingested streams: identical streams render to
    /// identical bytes.
    pub fn render_flame(&self) -> String {
        let mut out = String::new();
        for trace in &self.traces {
            out.push_str(&format!(
                "trace {:016x} ord={} spans={}\n",
                trace.trace_id,
                trace.ordinal,
                trace.span_count()
            ));
            for root in &trace.roots {
                render_node(&mut out, root, 1, "");
            }
            for orphan in &trace.orphans {
                out.push_str(&format!(
                    "  ! orphan (parent {:016x} missing)\n",
                    orphan.parent_span_id
                ));
                render_node(&mut out, orphan, 2, "");
            }
            for gap in &trace.gaps {
                out.push_str(&format!("  ! gap: {gap}\n"));
            }
        }
        out.push_str(&format!(
            "traces: {}  untraced events: {}\n",
            self.traces.len(),
            self.untraced_events
        ));
        out
    }
}

fn render_value(v: &Value) -> String {
    match v {
        Value::U64(x) => x.to_string(),
        Value::I64(x) => x.to_string(),
        Value::F64(x) => format!("{x}"),
        Value::Str(x) => format!("{x:?}"),
        Value::Bool(x) => x.to_string(),
    }
}

fn render_event_line(out: &mut String, event: &Event, source: &str, indent: usize, mark: &str) {
    out.push_str(&"  ".repeat(indent));
    out.push_str(mark);
    out.push_str(&event.name);
    out.push_str(&format!(" [{source}]"));
    for (k, v) in &event.fields {
        if k == FIELD_TRACE || k == FIELD_SPAN || k == FIELD_PARENT {
            continue;
        }
        out.push_str(&format!(" {k}={}", render_value(v)));
    }
    out.push('\n');
}

fn render_node(out: &mut String, node: &SpanNode, indent: usize, mark: &str) {
    render_event_line(out, &node.events[0], &node.source, indent, mark);
    for annotation in &node.events[1..] {
        render_event_line(out, annotation, &node.source, indent + 1, "· ");
    }
    for child in &node.children {
        render_node(out, child, indent + 1, "");
    }
}

/// Merges named JSONL event streams into per-trace span trees.
#[derive(Debug, Default)]
pub struct TraceStitcher {
    events: Vec<SourcedEvent>,
}

impl TraceStitcher {
    /// An empty stitcher.
    pub fn new() -> TraceStitcher {
        TraceStitcher::default()
    }

    /// Ingests already-parsed events flushed from `source` (stream order
    /// preserved — it breaks ties between equal ordinals within a source).
    pub fn add_stream(&mut self, source: &str, events: &[Event]) {
        let base = self.events.len();
        self.events
            .extend(events.iter().enumerate().map(|(i, event)| SourcedEvent {
                source: source.to_string(),
                pos: base + i,
                event: event.clone(),
            }));
    }

    /// Parses one JSONL document (one event per non-empty line) and
    /// ingests it as `source`. Returns the number of events ingested.
    ///
    /// # Errors
    ///
    /// The first malformed line, prefixed with its 1-based line number.
    pub fn add_jsonl(&mut self, source: &str, jsonl: &str) -> Result<usize, String> {
        let mut events = Vec::new();
        for (i, line) in jsonl.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            events.push(
                Event::from_json_line(line).map_err(|e| format!("{source} line {}: {e}", i + 1))?,
            );
        }
        self.add_stream(source, &events);
        Ok(events.len())
    }

    /// Stitches everything ingested so far into per-trace timelines.
    pub fn stitch(&self) -> StitchReport {
        let mut untraced = 0usize;
        // trace id → traced events, in deterministic (ord, source, pos)
        // order within each trace.
        let mut by_trace: BTreeMap<u64, Vec<&SourcedEvent>> = BTreeMap::new();
        for se in &self.events {
            match trace_coords(&se.event) {
                Some((trace_id, _, _)) => by_trace.entry(trace_id).or_default().push(se),
                None => untraced += 1,
            }
        }

        let mut traces: Vec<StitchedTrace> = by_trace
            .into_iter()
            .map(|(trace_id, mut entries)| {
                entries.sort_by(|a, b| {
                    (a.event.ord, a.source.as_str(), a.pos).cmp(&(
                        b.event.ord,
                        b.source.as_str(),
                        b.pos,
                    ))
                });
                stitch_one(trace_id, &entries)
            })
            .collect();
        traces.sort_by_key(|t| (t.ordinal, t.trace_id));
        StitchReport {
            traces,
            untraced_events: untraced,
        }
    }
}

fn stitch_one(trace_id: u64, entries: &[&SourcedEvent]) -> StitchedTrace {
    // Group by span id, preserving first-seen (timeline) order.
    let mut span_order: Vec<u64> = Vec::new();
    let mut groups: BTreeMap<u64, (u64, String, Vec<Event>)> = BTreeMap::new();
    for se in entries {
        // Entries are pre-filtered to traced events; skip defensively if not.
        let Some((_, span, parent)) = trace_coords(&se.event) else {
            continue;
        };
        match groups.get_mut(&span) {
            Some((_, _, events)) => events.push(se.event.clone()),
            None => {
                span_order.push(span);
                groups.insert(span, (parent, se.source.clone(), vec![se.event.clone()]));
            }
        }
    }

    // parent span id → child span ids in timeline order.
    let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &span in &span_order {
        let parent = groups[&span].0;
        children.entry(parent).or_default().push(span);
    }

    fn build(
        span: u64,
        groups: &BTreeMap<u64, (u64, String, Vec<Event>)>,
        children: &BTreeMap<u64, Vec<u64>>,
        built: &mut std::collections::BTreeSet<u64>,
    ) -> SpanNode {
        built.insert(span);
        let (parent, source, events) = groups[&span].clone();
        let mut kids = Vec::new();
        if let Some(ids) = children.get(&span) {
            for &id in ids {
                if !built.contains(&id) {
                    // cycle guard
                    kids.push(build(id, groups, children, built));
                }
            }
        }
        SpanNode {
            span_id: span,
            parent_span_id: parent,
            source,
            events,
            children: kids,
        }
    }

    let mut built = std::collections::BTreeSet::new();
    let mut roots = Vec::new();
    let mut orphans = Vec::new();
    for &span in &span_order {
        if built.contains(&span) {
            continue;
        }
        let parent = groups[&span].0;
        if parent == 0 {
            roots.push(build(span, &groups, &children, &mut built));
        } else if !groups.contains_key(&parent) {
            orphans.push(build(span, &groups, &children, &mut built));
        }
    }
    // Anything left is stranded in a parent cycle — surface as orphans.
    for &span in &span_order {
        if !built.contains(&span) {
            orphans.push(build(span, &groups, &children, &mut built));
        }
    }

    // Gap check: a successful attempt must have produced a server span.
    let mut gaps = Vec::new();
    fn find_gaps(node: &SpanNode, gaps: &mut Vec<String>) {
        if node.name().ends_with(".attempt")
            && node.str_field("outcome") == Some("ok")
            && node.children.is_empty()
        {
            gaps.push(format!(
                "attempt on {} answered ok but emitted no server span (span {:016x})",
                node.str_field("backend").unwrap_or("?"),
                node.span_id
            ));
        }
        for child in &node.children {
            find_gaps(child, gaps);
        }
    }
    for node in roots.iter().chain(&orphans) {
        find_gaps(node, &mut gaps);
    }

    let ordinal = entries.iter().map(|se| se.event.ord).min().unwrap_or(0);
    StitchedTrace {
        trace_id,
        ordinal,
        roots,
        orphans,
        gaps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceContext;
    use crate::TelemetryHub;

    /// Emits a three-hop request into two hubs (a "router" and a
    /// "replica") and returns the flushed streams plus the span ids used.
    fn two_source_streams() -> (Vec<Event>, Vec<Event>, TraceContext, TraceContext) {
        let router = TelemetryHub::new();
        let replica = TelemetryHub::new();
        let root = TraceContext::root(7, 5);
        router
            .ctx()
            .with_trace(root)
            .emit(5, "serve.router.forward", &[("session", "s-1".into())]);
        let attempt = root.child(1);
        router.ctx().with_trace(attempt).emit(
            5,
            "serve.router.attempt",
            &[("backend", "replica-0".into()), ("outcome", "ok".into())],
        );
        // The replica receives the attempt's header and derives its span.
        let server = TraceContext::from_header(&attempt.header_value()).unwrap();
        replica.ctx().with_trace(server).emit(
            5,
            "serve.http.request",
            &[("route", "ingest".into()), ("status", 200u64.into())],
        );
        (router.drain_events(), replica.drain_events(), root, attempt)
    }

    #[test]
    fn stitches_cross_process_spans_into_one_tree() {
        let (router_events, replica_events, root, attempt) = two_source_streams();
        let mut stitcher = TraceStitcher::new();
        stitcher.add_stream("router", &router_events);
        stitcher.add_stream("replica-0", &replica_events);
        let report = stitcher.stitch();
        assert_eq!(report.traces.len(), 1);
        assert_eq!(report.untraced_events, 0);
        let trace = &report.traces[0];
        assert_eq!(trace.trace_id, root.trace_id);
        assert_eq!(trace.ordinal, 5);
        assert!(trace.single_rooted(), "{trace:?}");
        assert!(trace.gaps.is_empty());
        assert_eq!(trace.span_count(), 3);
        let forward = &trace.roots[0];
        assert_eq!(forward.name(), "serve.router.forward");
        assert_eq!(forward.children.len(), 1);
        assert_eq!(forward.children[0].span_id, attempt.span_id);
        assert_eq!(forward.children[0].children[0].name(), "serve.http.request");
        assert_eq!(forward.children[0].children[0].source, "replica-0");
        assert_eq!(
            trace.hops(),
            vec![("replica-0".to_string(), "ok".to_string())]
        );
    }

    #[test]
    fn jsonl_round_trip_stitches_identically() {
        let (router_events, replica_events, _, _) = two_source_streams();
        let to_jsonl = |events: &[Event]| {
            events
                .iter()
                .map(|e| e.to_json_line())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let mut direct = TraceStitcher::new();
        direct.add_stream("router", &router_events);
        direct.add_stream("replica-0", &replica_events);
        let mut parsed = TraceStitcher::new();
        assert_eq!(
            parsed
                .add_jsonl("router", &to_jsonl(&router_events))
                .unwrap(),
            router_events.len()
        );
        parsed
            .add_jsonl("replica-0", &to_jsonl(&replica_events))
            .unwrap();
        assert_eq!(
            direct.stitch().render_flame(),
            parsed.stitch().render_flame()
        );
    }

    #[test]
    fn missing_parent_streams_surface_as_orphans() {
        let (_, replica_events, _, _) = two_source_streams();
        let mut stitcher = TraceStitcher::new();
        // Only the replica's stream arrives: the server span's parent
        // (the router attempt) is in no stream.
        stitcher.add_stream("replica-0", &replica_events);
        let report = stitcher.stitch();
        let trace = &report.traces[0];
        assert!(!trace.single_rooted());
        assert!(trace.roots.is_empty());
        assert_eq!(trace.orphans.len(), 1);
        assert_eq!(trace.orphans[0].name(), "serve.http.request");
        assert!(report.render_flame().contains("! orphan"));
    }

    #[test]
    fn successful_attempts_without_server_spans_are_gaps() {
        let (router_events, _, _, _) = two_source_streams();
        let mut stitcher = TraceStitcher::new();
        // The replica's stream is lost; the router claims the attempt ok.
        stitcher.add_stream("router", &router_events);
        let report = stitcher.stitch();
        let trace = &report.traces[0];
        assert!(trace.single_rooted(), "router-side tree is still whole");
        assert_eq!(trace.gaps.len(), 1);
        assert!(trace.gaps[0].contains("replica-0"));
        assert!(report.render_flame().contains("! gap"));
    }

    #[test]
    fn untraced_events_are_counted_not_stitched() {
        let hub = TelemetryHub::new();
        hub.ctx().emit(0, "sensing.build.sample", &[]);
        let mut stitcher = TraceStitcher::new();
        stitcher.add_stream("pipeline", &hub.drain_events());
        let report = stitcher.stitch();
        assert!(report.traces.is_empty());
        assert_eq!(report.untraced_events, 1);
    }

    #[test]
    fn annotations_share_their_span_and_render_marked() {
        let hub = TelemetryHub::new();
        let attempt = TraceContext::root(1, 0).child(1);
        let ctx = hub.ctx().with_trace(attempt);
        ctx.emit(
            0,
            "serve.router.attempt",
            &[("backend", "replica-2".into()), ("outcome", "error".into())],
        );
        ctx.emit(0, "serve.fleet.eject", &[("backend", "replica-2".into())]);
        let mut stitcher = TraceStitcher::new();
        stitcher.add_stream("router", &hub.drain_events());
        let report = stitcher.stitch();
        let trace = &report.traces[0];
        let node = &trace.orphans[0]; // root (the forward) was never emitted
        assert_eq!(node.events.len(), 2);
        assert_eq!(node.events[1].name, "serve.fleet.eject");
        assert!(report.render_flame().contains("· serve.fleet.eject"));
        // An error attempt with no children is not a gap.
        assert!(trace.gaps.is_empty());
    }

    #[test]
    fn stitched_output_is_deterministic_across_ingest_order() {
        let (router_events, replica_events, _, _) = two_source_streams();
        let mut a = TraceStitcher::new();
        a.add_stream("router", &router_events);
        a.add_stream("replica-0", &replica_events);
        let mut b = TraceStitcher::new();
        b.add_stream("replica-0", &replica_events);
        b.add_stream("router", &router_events);
        assert_eq!(a.stitch().render_flame(), b.stitch().render_flame());
    }
}
