//! Telemetry over the federation wire: peer metrics scrapes and distributed-trace
//! collects, client and server side.
//!
//! Both servers are stateless and idempotent — a re-sent request just ships the answer
//! again — and both clients trust the envelope, not the payload: an answer counts only
//! when it comes from a peer this node is still awaiting.

use gsn_network::{Message, RequestId};
use gsn_telemetry::{AssembledTrace, MetricsSnapshot, RemoteSpan};
use gsn_types::{GsnResult, NodeId, Timestamp};

use super::exchange::{Flight, Kind};
use super::GsnContainer;

/// How many assembled distributed traces the container retains for `/traces` readers.
const MAX_ASSEMBLED_TRACES: usize = 16;

/// Coordinator-side state of one distributed-trace collection: spans of one trace id
/// being gathered off every participating peer (see
/// [`GsnContainer::collect_remote_spans`]).
pub(super) struct TraceCollect {
    /// The trace being assembled.
    trace_id: u128,
    /// The root span id (on this coordinator).
    root: u64,
    /// Spans gathered so far (this node's own spans are seeded at issue time).
    spans: Vec<RemoteSpan>,
}

impl GsnContainer {
    /// Asks a peer container for its metrics snapshot over the federation wire.
    /// The answer arrives over subsequent [`step`](Self::step)s; poll
    /// [`take_peer_metrics`](Self::take_peer_metrics) with the returned request id.
    /// Lost requests are re-sent by the exchange engine.
    pub fn request_peer_metrics(&mut self, target: NodeId) -> GsnResult<RequestId> {
        let network = self.network_for("peer metrics scrapes")?;
        let request = self.exchanges.next_request();
        let now = self.clock.now();
        let message = Message::MetricsRequest { request };
        network.send(self.config.node_id, target, message.clone(), now)?;
        let flight = Flight::new(vec![target], Some(message), now, Kind::Scrape(None));
        self.exchanges.insert(request, flight);
        Ok(request)
    }

    /// Takes the snapshot answering a [`request_peer_metrics`](Self::request_peer_metrics)
    /// scrape: `None` while still in flight.
    pub fn take_peer_metrics(&mut self, request: RequestId) -> Option<MetricsSnapshot> {
        let flight = self
            .exchanges
            .take(request, |f| matches!(f.kind, Kind::Scrape(Some(_))))?;
        match flight.kind {
            Kind::Scrape(snapshot) => snapshot,
            _ => None,
        }
    }

    /// The most recent snapshot received from `node`, whichever scrape delivered it.
    pub fn peer_metrics(&self, node: NodeId) -> Option<&MetricsSnapshot> {
        self.peer_metrics.get(&node)
    }

    /// The federation scrape: answers with a full registry snapshot so cooperating
    /// peers can monitor each other without a side channel.
    pub(super) fn serve_metrics_request(&self, from: NodeId, request: RequestId, now: Timestamp) {
        self.telemetry.scrapes_served_total.inc();
        let snapshot = self.metrics_snapshot();
        self.send(from, Message::MetricsSnapshot { request, snapshot }, now);
    }

    /// Stores a peer's snapshot, but only when it answers a scrape of that peer still
    /// in flight — an unsolicited or duplicate snapshot is dropped, so a peer can
    /// neither grow [`peer_metrics`](Self::peer_metrics) nor write another node's entry.
    pub(super) fn accept_metrics_snapshot(
        &mut self,
        from: NodeId,
        request: RequestId,
        snapshot: MetricsSnapshot,
        now: Timestamp,
    ) {
        let Some(flight) = self.exchanges.get_mut(request) else {
            return;
        };
        if !matches!(flight.kind, Kind::Scrape(_)) || !flight.answered(from, now) {
            return;
        }
        self.telemetry.peer_snapshots_total.inc();
        flight.kind = Kind::Scrape(Some(snapshot.clone()));
        self.peer_metrics.insert(from, snapshot);
    }

    /// Starts collecting every participant's spans of one distributed trace.
    /// This node's own spans are seeded immediately; each peer answers with its
    /// slice over subsequent [`step`](Self::step)s (lost requests are re-sent by
    /// the exchange engine), and the completed tree lands in
    /// [`assembled_traces`](Self::assembled_traces).  Traced
    /// [`federated_query`](Self::federated_query) gathers trigger this
    /// automatically for the hosts they scattered to; the explicit call asks
    /// every current ring member instead.
    pub fn collect_remote_spans(&mut self, trace_id: u128) -> GsnResult<RequestId> {
        let peers = self.ring_members();
        let root = self
            .runtime
            .trace
            .spans_of_trace(trace_id)
            .iter()
            .find(|s| s.parent.is_none())
            .map(|s| s.id.0)
            .unwrap_or(0);
        self.start_trace_collect(trace_id, root, peers)
    }

    pub(super) fn start_trace_collect(
        &mut self,
        trace_id: u128,
        root: u64,
        mut peers: Vec<NodeId>,
    ) -> GsnResult<RequestId> {
        self.network_for("trace collections")?;
        let now = self.clock.now();
        let node = self.config.node_id;
        let request = self.exchanges.next_request();
        let spans = self.local_spans(trace_id);
        peers.sort();
        peers.dedup();
        peers.retain(|peer| *peer != node);
        let message = Message::TraceCollectRequest { request, trace_id };
        for peer in &peers {
            self.send(*peer, message.clone(), now);
        }
        let collect = TraceCollect {
            trace_id,
            root,
            spans,
        };
        if peers.is_empty() {
            self.finish_trace_collect(collect);
        } else {
            let flight = Flight::new(peers, Some(message), now, Kind::Collect(collect));
            self.exchanges.insert(request, flight);
        }
        Ok(request)
    }

    /// Every retained span of `trace_id` on this node, in wire form.
    fn local_spans(&self, trace_id: u128) -> Vec<RemoteSpan> {
        let node = self.config.node_id.as_u64();
        self.runtime
            .trace
            .spans_of_trace(trace_id)
            .iter()
            .map(|s| RemoteSpan::from_span(node, s))
            .collect()
    }

    /// Serves our slice of a distributed trace: every retained span stamped with the
    /// requested trace id.
    pub(super) fn serve_trace_collect(
        &self,
        from: NodeId,
        request: RequestId,
        trace_id: u128,
        now: Timestamp,
    ) {
        let spans = self.local_spans(trace_id);
        self.send(from, Message::TraceCollectReply { request, spans }, now);
    }

    /// Folds one peer's span slice into its collect, assembling the tree once the last
    /// awaited peer answered.  Duplicate replies (answers to re-sent collects) are
    /// dropped by the awaited-peer check; the assembler also dedupes span ids.
    pub(super) fn accept_trace_collect_reply(
        &mut self,
        from: NodeId,
        request: RequestId,
        spans: Vec<RemoteSpan>,
        now: Timestamp,
    ) {
        let Some(flight) = self.exchanges.get_mut(request) else {
            return;
        };
        if !matches!(flight.kind, Kind::Collect(_)) || !flight.answered(from, now) {
            return;
        }
        self.telemetry.remote_spans_total.add(spans.len() as u64);
        if let Kind::Collect(collect) = &mut flight.kind {
            collect.spans.extend(spans);
        }
        if let Some(Flight {
            kind: Kind::Collect(collect),
            ..
        }) = self.exchanges.take(request, Flight::finished)
        {
            self.finish_trace_collect(collect);
        }
    }

    /// Stitches a finished (or reaped) collection into an assembled trace and retains
    /// it, bounded by [`MAX_ASSEMBLED_TRACES`].  What did arrive of a reaped collection
    /// still assembles, with broken parent links marking the trace incomplete.
    pub(super) fn finish_trace_collect(&mut self, collect: TraceCollect) {
        let assembled = AssembledTrace::assemble(collect.trace_id, collect.root, collect.spans);
        if self.assembled_traces.len() >= MAX_ASSEMBLED_TRACES {
            self.assembled_traces.pop_front();
        }
        self.assembled_traces.push_back(assembled);
    }

    /// The distributed traces assembled so far, oldest first (bounded; older ones
    /// are evicted as new collections complete).
    pub fn assembled_traces(&self) -> Vec<AssembledTrace> {
        self.assembled_traces.iter().cloned().collect()
    }

    /// Number of trace collections still waiting for peer replies.
    pub fn pending_trace_collects(&self) -> usize {
        self.exchanges
            .ids(|f| matches!(f.kind, Kind::Collect(_)))
            .len()
    }
}
