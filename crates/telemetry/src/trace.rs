//! Structured tracing: a bounded ring buffer of spans, and a slow-query log.
//!
//! Both logs are *off by default* and designed so that the disabled path does
//! no allocation and takes no lock: payloads are produced by closures that are
//! only invoked once the log has decided to keep the record.
//!
//! Since the mesh tier landed, spans can also carry a *distributed* identity: a
//! [`TraceContext`] names one logical operation (`trace_id`) across every
//! container it touches, and [`RemoteSpan`]s collected from peers are stitched
//! into one [`AssembledTrace`] client-side.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identity of one span inside a [`TraceLog`].  Id 0 is the null span — what
/// [`TraceLog::begin`] hands out while tracing is disabled, and the parent id
/// of root spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span (no parent / tracing disabled).
    pub const NONE: SpanId = SpanId(0);

    /// True for the null span.
    pub fn is_none(&self) -> bool {
        self.0 == 0
    }
}

/// The distributed identity a span carries across the federation wire: which
/// logical operation it belongs to (`trace_id`, unique mesh-wide) and which
/// span on the *sending* container is its parent.
///
/// A `trace_id` of 0 means "untraced" and is never put on the wire: an untraced
/// message carries `None` in its `trace` field instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Mesh-wide identity of the logical operation (never 0 on the wire).
    pub trace_id: u128,
    /// The parent span on the originating container.
    pub parent_span: SpanId,
}

/// A completed span as stored in the ring buffer.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// This span's id (never 0).
    pub id: SpanId,
    /// Parent span id (0 for roots).
    pub parent: SpanId,
    /// Mesh-wide trace this span belongs to (0 for purely local spans).
    pub trace_id: u128,
    /// Static operation name, e.g. `pipeline.eval`.
    pub name: &'static str,
    /// Dynamic detail (element source, table name, SQL …), produced lazily.
    pub detail: String,
    /// Microseconds since the trace log was created when the span started.
    pub start_micros: u64,
    /// Span duration in microseconds.
    pub duration_micros: u64,
}

/// An in-flight span returned by [`TraceLog::begin`].  Carries everything
/// needed to finish the span without touching the log again; when tracing was
/// disabled at begin time the token is inert (id 0) and finishing it is free.
#[derive(Debug, Clone, Copy)]
pub struct SpanToken {
    id: SpanId,
    parent: SpanId,
    trace_id: u128,
    name: &'static str,
    started: Option<Instant>,
}

impl SpanToken {
    /// The id this span will be stored under (pass as `parent` to children).
    /// [`SpanId::NONE`] when tracing was disabled at begin time.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// The distributed trace this span belongs to (0 = purely local).
    pub fn trace_id(&self) -> u128 {
        self.trace_id
    }

    /// The [`TraceContext`] to put on the wire for work this span delegates to
    /// a peer: the token's trace with the token itself as remote parent.
    /// `None` when the span is inert or not part of a distributed trace.
    pub fn context(&self) -> Option<TraceContext> {
        if self.trace_id == 0 || self.id.is_none() {
            return None;
        }
        Some(TraceContext {
            trace_id: self.trace_id,
            parent_span: self.id,
        })
    }
}

struct TraceInner {
    spans: VecDeque<TraceSpan>,
    dropped: u64,
}

/// Bounded ring buffer of completed spans.
///
/// A span is opened with [`begin`](TraceLog::begin) (cheap: one relaxed load
/// when disabled) and closed with [`finish`](TraceLog::finish), whose detail
/// closure only runs if the span is actually kept.  When the buffer is full
/// the oldest span is dropped and counted.
pub struct TraceLog {
    enabled: AtomicBool,
    next_id: AtomicU64,
    epoch: Instant,
    capacity: usize,
    inner: Mutex<TraceInner>,
}

/// Default span capacity of a [`TraceLog`].
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

impl Default for TraceLog {
    fn default() -> TraceLog {
        TraceLog::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceLog {
    /// A disabled trace log with the default capacity.
    pub fn new() -> TraceLog {
        TraceLog::default()
    }

    /// A disabled trace log retaining at most `capacity` spans.
    pub fn with_capacity(capacity: usize) -> TraceLog {
        TraceLog {
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            capacity: capacity.max(1),
            inner: Mutex::new(TraceInner {
                spans: VecDeque::new(),
                dropped: 0,
            }),
        }
    }

    /// Turns span collection on or off.  Spans already collected stay.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// True when spans are being collected.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Namespaces the span-id counter by node id so that span ids stay unique
    /// across the whole mesh: ids from node `n` live in `(n & 0xFFFF) << 48 | …`.
    /// Assembled cross-container trees rely on this — two containers must never
    /// mint the same id for different spans.  Call once at container build,
    /// before any span is opened.
    pub fn set_id_namespace(&self, node: u64) {
        self.next_id
            .store(((node & 0xFFFF) << 48) | 1, Ordering::Relaxed);
    }

    /// Opens a purely local span.  While tracing is disabled this is one atomic
    /// load and returns an inert token — no id is consumed, no clock is read,
    /// nothing is allocated.
    pub fn begin(&self, name: &'static str, parent: SpanId) -> SpanToken {
        self.begin_traced(name, parent, 0)
    }

    /// Opens a span inside a distributed trace received from a peer: the new
    /// span's parent is the *remote* parent from the context, and every child
    /// opened under it inherits the trace id.
    pub fn begin_in_trace(&self, name: &'static str, ctx: TraceContext) -> SpanToken {
        self.begin_traced(name, ctx.parent_span, ctx.trace_id)
    }

    /// Opens a span with an explicit trace id (0 = local).
    pub fn begin_traced(&self, name: &'static str, parent: SpanId, trace_id: u128) -> SpanToken {
        if !self.is_enabled() {
            return SpanToken {
                id: SpanId::NONE,
                parent,
                trace_id,
                name,
                started: None,
            };
        }
        SpanToken {
            id: SpanId(self.next_id.fetch_add(1, Ordering::Relaxed)),
            parent,
            trace_id,
            name,
            started: Some(Instant::now()),
        }
    }

    /// Closes a span with no detail text.
    pub fn finish(&self, token: SpanToken) {
        self.finish_with(token, String::new);
    }

    /// Closes a span; `detail` runs only when the span is actually recorded.
    pub fn finish_with(&self, token: SpanToken, detail: impl FnOnce() -> String) {
        let Some(started) = token.started else { return };
        let duration_micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let start_micros =
            u64::try_from(started.duration_since(self.epoch).as_micros()).unwrap_or(u64::MAX);
        let span = TraceSpan {
            id: token.id,
            parent: token.parent,
            trace_id: token.trace_id,
            name: token.name,
            detail: detail(),
            start_micros,
            duration_micros,
        };
        let mut inner = self.inner.lock().expect("trace log poisoned");
        if inner.spans.len() >= self.capacity {
            inner.spans.pop_front();
            inner.dropped += 1;
        }
        inner.spans.push_back(span);
    }

    /// All retained spans, oldest first.
    pub fn snapshot(&self) -> Vec<TraceSpan> {
        self.inner
            .lock()
            .expect("trace log poisoned")
            .spans
            .iter()
            .cloned()
            .collect()
    }

    /// All retained spans belonging to the distributed trace `trace_id`,
    /// oldest first.  This is what a peer ships back for
    /// `collect_remote_spans`.
    pub fn spans_of_trace(&self, trace_id: u128) -> Vec<TraceSpan> {
        self.inner
            .lock()
            .expect("trace log poisoned")
            .spans
            .iter()
            .filter(|s| s.trace_id == trace_id && trace_id != 0)
            .cloned()
            .collect()
    }

    /// Retained spans whose ancestry (following parent ids inside the buffer)
    /// reaches `root` — the "follow one element through the layers" view.
    ///
    /// Equivalent to [`tree_of`](TraceLog::tree_of)`.spans`; use `tree_of` when
    /// you need to know whether ring wraparound truncated the tree.
    pub fn descendants_of(&self, root: SpanId) -> Vec<TraceSpan> {
        self.tree_of(root).spans
    }

    /// The tree under `root`, with truncation detection: when a span that was
    /// opened after `root` has a parent pointer that leads *outside* the buffer
    /// (its ancestors were overwritten by ring wraparound), the walk cannot
    /// decide whether that span belonged to the tree.  Such broken links mark
    /// the tree [`incomplete`](TraceTree::incomplete) and count one drop in
    /// [`dropped`](TraceLog::dropped), instead of silently returning a
    /// truncated result.
    pub fn tree_of(&self, root: SpanId) -> TraceTree {
        let spans = self.snapshot();
        let ids: std::collections::HashSet<SpanId> = spans.iter().map(|s| s.id).collect();
        let mut keep: std::collections::HashSet<SpanId> = std::collections::HashSet::new();
        keep.insert(root);
        // Spans are stored in completion order; children may complete before
        // parents, so fix-point over the buffer.
        let mut changed = true;
        while changed {
            changed = false;
            for s in &spans {
                if keep.contains(&s.parent) && keep.insert(s.id) {
                    changed = true;
                }
            }
        }
        // A broken link: a span opened after `root` (ids are monotonic) whose
        // parent chain left the buffer before reaching any kept span.  Its
        // evicted ancestors may have reached `root`, so the tree is suspect.
        let incomplete = spans.iter().any(|s| {
            !keep.contains(&s.id)
                && !s.parent.is_none()
                && !ids.contains(&s.parent)
                && s.id.0 > root.0
        });
        if incomplete {
            self.inner.lock().expect("trace log poisoned").dropped += 1;
        }
        let spans = spans
            .into_iter()
            .filter(|s| s.id != root && keep.contains(&s.id))
            .collect();
        TraceTree {
            root,
            spans,
            incomplete,
        }
    }

    /// Spans dropped because the buffer was full, plus trees detected as
    /// truncated by [`tree_of`](TraceLog::tree_of).
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("trace log poisoned").dropped
    }

    /// Discards all retained spans.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("trace log poisoned");
        inner.spans.clear();
    }
}

impl std::fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TraceLog(enabled={}, capacity={})",
            self.is_enabled(),
            self.capacity
        )
    }
}

/// The result of [`TraceLog::tree_of`]: the spans reachable from `root`, and
/// whether ring wraparound may have severed part of the tree.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The root the walk started from.
    pub root: SpanId,
    /// Spans whose ancestry reaches `root` (excluding the root span itself).
    pub spans: Vec<TraceSpan>,
    /// True when a parent chain left the buffer before it could be resolved —
    /// the tree may be missing subtrees whose ancestors were overwritten.
    pub incomplete: bool,
}

/// A span as shipped across the wire from a peer: like [`TraceSpan`] but owning
/// its name and stamped with the node it was recorded on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteSpan {
    /// Node id of the container that recorded the span.
    pub node: u64,
    /// The distributed trace the span belongs to.
    pub trace_id: u128,
    /// Span id (unique mesh-wide thanks to id namespacing).
    pub id: u64,
    /// Parent span id (possibly on a different node).
    pub parent: u64,
    /// Operation name.
    pub name: String,
    /// Dynamic detail.
    pub detail: String,
    /// Microseconds since the recording container's trace epoch.
    pub start_micros: u64,
    /// Span duration in microseconds.
    pub duration_micros: u64,
}

impl RemoteSpan {
    /// Converts a locally stored span into its wire form.
    pub fn from_span(node: u64, span: &TraceSpan) -> RemoteSpan {
        RemoteSpan {
            node,
            trace_id: span.trace_id,
            id: span.id.0,
            parent: span.parent.0,
            name: span.name.to_string(),
            detail: span.detail.clone(),
            start_micros: span.start_micros,
            duration_micros: span.duration_micros,
        }
    }
}

/// One distributed trace assembled client-side from local spans plus
/// [`RemoteSpan`]s collected off every participating peer.
#[derive(Debug, Clone)]
pub struct AssembledTrace {
    /// The trace identity.
    pub trace_id: u128,
    /// The root span id (on the coordinating container).
    pub root: u64,
    /// All spans, duplicates removed, ordered by start time.
    pub spans: Vec<RemoteSpan>,
    /// The distinct nodes that contributed spans, ascending.
    pub nodes: Vec<u64>,
    /// True when some span's parent is missing from the assembled set (a peer
    /// evicted it, or a collect request never completed).
    pub incomplete: bool,
}

impl AssembledTrace {
    /// Stitches collected spans into one tree: duplicates (same node + span
    /// id, e.g. from retransmitted collect replies) are dropped, spans are
    /// ordered by start time, and broken parent links mark the trace
    /// incomplete.
    pub fn assemble(trace_id: u128, root: u64, spans: Vec<RemoteSpan>) -> AssembledTrace {
        let mut seen: std::collections::HashSet<(u64, u64)> = std::collections::HashSet::new();
        let mut kept: Vec<RemoteSpan> = Vec::with_capacity(spans.len());
        for s in spans {
            if seen.insert((s.node, s.id)) {
                kept.push(s);
            }
        }
        kept.sort_by_key(|s| (s.start_micros, s.id));
        let ids: std::collections::HashSet<u64> = kept.iter().map(|s| s.id).collect();
        let incomplete = kept
            .iter()
            .any(|s| s.parent != 0 && s.id != root && !ids.contains(&s.parent));
        let mut nodes: Vec<u64> = kept.iter().map(|s| s.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        AssembledTrace {
            trace_id,
            root,
            spans: kept,
            nodes,
            incomplete,
        }
    }

    /// Renders the trace as a JSON object (for the `/traces` endpoint).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"trace_id\":\"{:032x}\",\"root\":{},\"incomplete\":{},\"nodes\":{:?},\"spans\":[",
            self.trace_id, self.root, self.incomplete, self.nodes
        ));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"node\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"detail\":\"{}\",\"start_micros\":{},\"duration_micros\":{}}}",
                s.node,
                s.id,
                s.parent,
                escape_json(&s.name),
                escape_json(&s.detail),
                s.start_micros,
                s.duration_micros
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string for embedding in JSON output.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Per-peer timing breakdown of one hop of a federated query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HopBreakdown {
    /// The peer node id.
    pub peer: u64,
    /// Time spent encoding the request frame(s), in microseconds.
    pub serialize_micros: u64,
    /// Request-to-reply round trip over the (simulated) network, milliseconds.
    pub rtt_millis: u64,
    /// Time the remote container spent opening/executing the query, µs.
    pub remote_micros: u64,
    /// Frames re-sent to this peer after loss.
    pub retransmits: u64,
}

/// One slow query kept by the [`SlowQueryLog`].
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The SQL text.
    pub sql: String,
    /// How long the cursor ran, in microseconds.
    pub micros: u64,
    /// The plan explain captured when the query crossed the threshold.
    pub explain: String,
    /// Rows the cursor scanned.
    pub rows_scanned: u64,
    /// Rows the cursor returned.
    pub rows_returned: u64,
    /// Per-hop breakdown for federated queries (empty for local cursors).
    pub hops: Vec<HopBreakdown>,
}

/// Threshold-gated log of the slowest queries.
///
/// A threshold of 0 disables the log entirely; the record closure (which
/// formats SQL and plan explain) only runs for queries at or over the
/// threshold, so fast queries cost one relaxed atomic load.
pub struct SlowQueryLog {
    threshold_micros: AtomicU64,
    capacity: usize,
    inner: Mutex<VecDeque<SlowQuery>>,
}

/// Default entry capacity of a [`SlowQueryLog`].
pub const DEFAULT_SLOW_QUERY_CAPACITY: usize = 128;

impl Default for SlowQueryLog {
    fn default() -> SlowQueryLog {
        SlowQueryLog::with_capacity(DEFAULT_SLOW_QUERY_CAPACITY)
    }
}

impl SlowQueryLog {
    /// A disabled slow-query log (threshold 0).
    pub fn new() -> SlowQueryLog {
        SlowQueryLog::default()
    }

    /// A disabled slow-query log retaining at most `capacity` entries.
    pub fn with_capacity(capacity: usize) -> SlowQueryLog {
        SlowQueryLog {
            threshold_micros: AtomicU64::new(0),
            capacity: capacity.max(1),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Sets the slow threshold in microseconds; 0 disables the log.
    pub fn set_threshold_micros(&self, micros: u64) {
        self.threshold_micros.store(micros, Ordering::Relaxed);
    }

    /// Current threshold (0 = disabled).
    pub fn threshold_micros(&self) -> u64 {
        self.threshold_micros.load(Ordering::Relaxed)
    }

    /// Records a query that took `micros` if the log is enabled and the
    /// threshold is crossed; `make` runs only in that case.
    pub fn observe(&self, micros: u64, make: impl FnOnce() -> SlowQuery) {
        let threshold = self.threshold_micros();
        if threshold == 0 || micros < threshold {
            return;
        }
        let entry = make();
        let mut inner = self.inner.lock().expect("slow query log poisoned");
        if inner.len() >= self.capacity {
            inner.pop_front();
        }
        inner.push_back(entry);
    }

    /// Retained slow queries, oldest first.
    pub fn snapshot(&self) -> Vec<SlowQuery> {
        self.inner
            .lock()
            .expect("slow query log poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Discards all retained entries.
    pub fn clear(&self) {
        self.inner.lock().expect("slow query log poisoned").clear();
    }
}

impl std::fmt::Debug for SlowQueryLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SlowQueryLog(threshold_micros={})",
            self.threshold_micros()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_log_is_inert() {
        let log = TraceLog::new();
        let token = log.begin("step", SpanId::NONE);
        assert!(token.id().is_none());
        log.finish_with(token, || {
            panic!("detail closure must not run when disabled")
        });
        assert!(log.snapshot().is_empty());
    }

    #[test]
    fn spans_nest_by_parent_id() {
        let log = TraceLog::new();
        log.set_enabled(true);
        let root = log.begin("pipeline", SpanId::NONE);
        let child = log.begin("storage.insert", root.id());
        log.finish_with(child, || "motes".to_string());
        let grandchild = log.begin("notify", root.id());
        log.finish(grandchild);
        log.finish(root);
        let spans = log.snapshot();
        assert_eq!(spans.len(), 3);
        let tree = log.tree_of(root.id());
        assert_eq!(tree.spans.len(), 2);
        assert!(!tree.incomplete);
        assert!(tree
            .spans
            .iter()
            .any(|s| s.name == "storage.insert" && s.detail == "motes"));
        assert_eq!(log.descendants_of(root.id()).len(), 2);
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let log = TraceLog::with_capacity(2);
        log.set_enabled(true);
        for name in ["a", "b", "c"] {
            let t = log.begin(name, SpanId::NONE);
            log.finish(t);
        }
        let spans = log.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "b");
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn wraparound_marks_tree_incomplete() {
        let log = TraceLog::with_capacity(3);
        log.set_enabled(true);
        let root = log.begin("federated", SpanId::NONE);
        log.finish(root);
        let mid = log.begin("scatter", root.id());
        log.finish(mid);
        let leaf = log.begin("hop", mid.id());
        log.finish(leaf);
        // Two more spans evict `federated` and `scatter`; `hop` now has a
        // parent pointer leading outside the buffer.
        for name in ["x", "y"] {
            let t = log.begin(name, SpanId::NONE);
            log.finish(t);
        }
        let dropped_before = log.dropped();
        let tree = log.tree_of(root.id());
        assert!(tree.incomplete, "severed ancestry must be flagged");
        assert_eq!(log.dropped(), dropped_before + 1);
    }

    #[test]
    fn traced_spans_carry_and_filter_by_trace_id() {
        let log = TraceLog::new();
        log.set_enabled(true);
        log.set_id_namespace(7);
        let ctx = TraceContext {
            trace_id: 42,
            parent_span: SpanId(5),
        };
        let serve = log.begin_in_trace("federated.serve", ctx);
        assert_eq!(serve.trace_id(), 42);
        assert!(
            serve.id().0 >= (7u64 << 48),
            "id must live in the namespace"
        );
        let child = log.begin_traced("query.open", serve.id(), serve.trace_id());
        log.finish(child);
        log.finish(serve);
        let local = log.begin("step", SpanId::NONE);
        log.finish(local);
        let traced = log.spans_of_trace(42);
        assert_eq!(traced.len(), 2);
        assert!(traced.iter().all(|s| s.trace_id == 42));
        let serve_span = traced
            .iter()
            .find(|s| s.name == "federated.serve")
            .expect("serve span recorded");
        assert_eq!(serve_span.parent, SpanId(5));
        assert!(log.spans_of_trace(0).is_empty(), "0 is never a trace id");
        let wire = RemoteSpan::from_span(7, serve_span);
        assert_eq!(wire.node, 7);
        assert_eq!(wire.trace_id, 42);
        assert_eq!(wire.name, "federated.serve");
    }

    #[test]
    fn assemble_dedupes_and_detects_broken_links() {
        let span = |node: u64, id: u64, parent: u64, start: u64| RemoteSpan {
            node,
            trace_id: 9,
            id,
            parent,
            name: "op".into(),
            detail: String::new(),
            start_micros: start,
            duration_micros: 1,
        };
        // Root 1 on node 1; node 2 contributed a child and a duplicate
        // (retransmitted collect reply).
        let trace = AssembledTrace::assemble(
            9,
            1,
            vec![
                span(1, 1, 0, 0),
                span(2, 10, 1, 5),
                span(2, 10, 1, 5),
                span(2, 11, 10, 6),
            ],
        );
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.nodes, vec![1, 2]);
        assert!(!trace.incomplete);
        // Missing parent 99 => incomplete.
        let broken = AssembledTrace::assemble(9, 1, vec![span(1, 1, 0, 0), span(2, 12, 99, 3)]);
        assert!(broken.incomplete);
        assert!(broken.render_json().contains("\"incomplete\":true"));
    }

    #[test]
    fn slow_query_log_gates_on_threshold() {
        let log = SlowQueryLog::new();
        // Disabled: closure must not run.
        log.observe(1_000_000, || panic!("disabled log must not record"));
        log.set_threshold_micros(500);
        log.observe(100, || panic!("fast query must not record"));
        log.observe(700, || SlowQuery {
            sql: "select * from t".into(),
            micros: 700,
            explain: "scan t".into(),
            rows_scanned: 10,
            rows_returned: 10,
            hops: Vec::new(),
        });
        let entries = log.snapshot();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].micros, 700);
    }

    #[test]
    fn slow_query_log_is_bounded() {
        let log = SlowQueryLog::with_capacity(2);
        log.set_threshold_micros(1);
        for i in 0..5u64 {
            log.observe(10 + i, || SlowQuery {
                sql: format!("q{i}"),
                micros: 10 + i,
                explain: String::new(),
                rows_scanned: 0,
                rows_returned: 0,
                hops: Vec::new(),
            });
        }
        let entries = log.snapshot();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].sql, "q3");
    }
}
