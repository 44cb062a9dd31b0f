//! The exchange engine: every request this node issues to its peers is issued, re-sent
//! and reaped here.
//!
//! Four client protocols ride the federation wire — remote streaming queries, peer
//! metrics scrapes, distributed-trace collects and federated scatter-gathers — and they
//! share one lossy-link policy.  A request whose last send is
//! [`REMOTE_QUERY_RETRY_AFTER`] old is re-sent to every peer still awaited; each
//! protocol's server side is idempotent, so a duplicate is harmless.  A request that made
//! no progress for [`REMOTE_CURSOR_IDLE_TIMEOUT`] is reaped.  A finished request waits
//! for its taker.  Requests are kept by id in a `BTreeMap`, so re-sends go out in issue
//! order and a seeded simulated-network run replays exactly.
//!
//! Remote subscriptions are standing state, not requests: they are re-sent on every step
//! until acknowledged and never reaped.

use std::collections::BTreeMap;

use gsn_network::{Message, RequestId};
use gsn_telemetry::{Counter, MetricsSnapshot};
use gsn_types::{Duration, NodeId, Timestamp};

use super::peer_telemetry::TraceCollect;
use super::remote_query::RemoteQuery;
use super::scatter::Scatter;
use super::GsnContainer;

/// How long a request waits for an answer before it is re-sent.  A frame dropped on a
/// lossy link is thereby recovered instead of stalling the request until the
/// [`REMOTE_CURSOR_IDLE_TIMEOUT`] reap.
pub(super) const REMOTE_QUERY_RETRY_AFTER: Duration = Duration::from_secs(2);

/// How long a request may go without progress before it is reaped, and how long a
/// server-side remote cursor may sit idle before the step loop closes it.
pub(super) const REMOTE_CURSOR_IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// The protocol state of one request.
pub(super) enum Kind {
    /// A remote streaming query (row-ship legs of a scatter included).
    Query(RemoteQuery),
    /// A peer metrics scrape; the snapshot once it arrived.
    Scrape(Option<MetricsSnapshot>),
    /// A distributed-trace collect.
    Collect(TraceCollect),
    /// A federated scatter-gather query this node coordinates.
    Scatter(Scatter),
}

/// One request this node issued and still tracks.
pub(super) struct Flight {
    /// Peers whose answer is still awaited; the request is finished when none is.
    pub(super) awaiting: Vec<NodeId>,
    /// The frame a re-send repeats to every awaited peer; `None` when the request's
    /// own sub-requests re-send themselves.
    pub(super) resend: Option<Message>,
    /// When the request (or its latest follow-up frame) last went out.
    pub(super) last_sent: Timestamp,
    /// When the request was issued or last made progress.
    pub(super) last_progress: Timestamp,
    /// Re-send rounds so far.
    pub(super) retransmits: u64,
    /// The protocol state.
    pub(super) kind: Kind,
}

impl Flight {
    /// A request just sent to `awaiting` at `now`.
    pub(super) fn new(
        awaiting: Vec<NodeId>,
        resend: Option<Message>,
        now: Timestamp,
        kind: Kind,
    ) -> Flight {
        Flight {
            awaiting,
            resend,
            last_sent: now,
            last_progress: now,
            retransmits: 0,
            kind,
        }
    }

    /// True once no peer's answer is awaited.
    pub(super) fn finished(&self) -> bool {
        self.awaiting.is_empty()
    }

    /// Records `peer`'s answer as progress and stops awaiting it; false (and nothing
    /// recorded) when `peer` was not awaited — a duplicate or an unsolicited frame.
    pub(super) fn answered(&mut self, peer: NodeId, now: Timestamp) -> bool {
        let Some(pos) = self.awaiting.iter().position(|p| *p == peer) else {
            return false;
        };
        self.awaiting.remove(pos);
        self.last_progress = now;
        true
    }
}

/// Every in-flight request of one container, by request id.
pub(super) struct Exchanges {
    flights: BTreeMap<RequestId, Flight>,
    next_request: RequestId,
    /// `gsn_federation_retransmits_total`: one per re-sent frame.
    retransmits: Counter,
}

impl Exchanges {
    /// An empty engine counting re-sent frames into `retransmits`.
    pub(super) fn new(retransmits: Counter) -> Exchanges {
        Exchanges {
            flights: BTreeMap::new(),
            next_request: 1,
            retransmits,
        }
    }

    /// Allocates the next request id (subscriptions draw from the same sequence).
    pub(super) fn next_request(&mut self) -> RequestId {
        let request = self.next_request;
        self.next_request += 1;
        request
    }

    /// Starts tracking `request`.
    pub(super) fn insert(&mut self, request: RequestId, flight: Flight) {
        self.flights.insert(request, flight);
    }

    /// The request, if still tracked.
    pub(super) fn get_mut(&mut self, request: RequestId) -> Option<&mut Flight> {
        self.flights.get_mut(&request)
    }

    /// Stops tracking `request`.
    pub(super) fn remove(&mut self, request: RequestId) -> Option<Flight> {
        self.flights.remove(&request)
    }

    /// Hands `request` to its taker once `ready` says so.
    pub(super) fn take(
        &mut self,
        request: RequestId,
        ready: impl FnOnce(&Flight) -> bool,
    ) -> Option<Flight> {
        if ready(self.flights.get(&request)?) {
            self.flights.remove(&request)
        } else {
            None
        }
    }

    /// The tracked requests `select` picks, in request-id order.
    pub(super) fn ids(&self, select: impl Fn(&Flight) -> bool) -> Vec<RequestId> {
        self.flights
            .iter()
            .filter(|(_, f)| select(f))
            .map(|(request, _)| *request)
            .collect()
    }

    /// Reaps every unfinished request without progress for
    /// [`REMOTE_CURSOR_IDLE_TIMEOUT`], then re-sends, in request-id order, every
    /// unfinished request whose last send is [`REMOTE_QUERY_RETRY_AFTER`] old: one
    /// `send` and one counted retransmit per awaited peer.  Returns the reaped requests.
    pub(super) fn tick(
        &mut self,
        now: Timestamp,
        mut send: impl FnMut(NodeId, &Message),
    ) -> Vec<Flight> {
        let idle_since = now.saturating_sub(REMOTE_CURSOR_IDLE_TIMEOUT);
        let stalled = self.ids(|f| !f.finished() && f.last_progress < idle_since);
        let reaped = stalled
            .into_iter()
            .filter_map(|request| self.flights.remove(&request))
            .collect();
        let due = now.saturating_sub(REMOTE_QUERY_RETRY_AFTER);
        for flight in self.flights.values_mut() {
            if flight.finished() || flight.last_sent > due {
                continue;
            }
            let Some(frame) = &flight.resend else {
                continue;
            };
            for peer in &flight.awaiting {
                self.retransmits.inc();
                send(*peer, frame);
            }
            flight.last_sent = now;
            flight.retransmits += 1;
        }
        reaped
    }
}

impl GsnContainer {
    /// One engine tick: re-sends stalled requests over the network, and settles what
    /// the reaped ones leave behind — a reaped trace collect still assembles the spans
    /// that arrived, a reaped scatter cancels its row-ship legs.
    pub(super) fn tick_exchanges(&mut self, now: Timestamp) {
        let network = self.runtime.network.clone();
        let node = self.config.node_id;
        let reaped = self.exchanges.tick(now, |peer, frame| {
            if let Some(network) = &network {
                let _ = network.send(node, peer, frame.clone(), now);
            }
        });
        for flight in reaped {
            match flight.kind {
                Kind::Collect(collect) => self.finish_trace_collect(collect),
                Kind::Scatter(scatter) => self.cancel_legs(scatter),
                Kind::Query(_) | Kind::Scrape(_) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ContainerConfig, GsnContainer};
    use gsn_network::SimulatedNetwork;
    use gsn_types::SimulatedClock;
    use std::sync::Arc;

    /// An engine holding one metrics scrape per `(request, awaited peers)`, issued at 0.
    fn engine(scrapes: &[(RequestId, &[u64])]) -> (Exchanges, Counter) {
        let counter = Counter::new();
        let mut engine = Exchanges::new(counter.clone());
        for (request, peers) in scrapes {
            let frame = Some(Message::MetricsRequest { request: *request });
            let peers = peers.iter().copied().map(NodeId::new).collect();
            let flight = Flight::new(peers, frame, Timestamp::EPOCH, Kind::Scrape(None));
            engine.insert(*request, flight);
        }
        (engine, counter)
    }

    /// Ticks at `millis`, returning `(peer, request)` per frame sent and the reaped count.
    fn tick(engine: &mut Exchanges, millis: i64) -> (Vec<(u64, RequestId)>, usize) {
        let mut sent = Vec::new();
        let reaped = engine.tick(Timestamp::from_millis(millis), |peer, frame| match frame {
            Message::MetricsRequest { request } => sent.push((peer.as_u64(), *request)),
            other => panic!("unexpected frame {other:?}"),
        });
        (sent, reaped.len())
    }

    fn answer(engine: &mut Exchanges, request: RequestId, peer: u64, millis: i64) -> bool {
        let flight = engine.get_mut(request).unwrap();
        flight.answered(NodeId::new(peer), Timestamp::from_millis(millis))
    }

    #[test]
    fn no_resend_before_two_seconds_and_exactly_one_at_two() {
        let (mut engine, _) = engine(&[(1, &[2])]);
        assert_eq!(tick(&mut engine, 1_999), (vec![], 0));
        assert_eq!(tick(&mut engine, 2_000), (vec![(2, 1)], 0));
        // The re-send restarts the clock.
        assert_eq!(tick(&mut engine, 3_999), (vec![], 0));
        assert_eq!(tick(&mut engine, 4_000), (vec![(2, 1)], 0));
        assert_eq!(engine.get_mut(1).unwrap().retransmits, 2);
    }

    #[test]
    fn one_retransmit_is_counted_per_frame_per_awaited_peer() {
        let (mut engine, counter) = engine(&[(1, &[2, 3, 4])]);
        assert!(answer(&mut engine, 1, 3, 500));
        assert!(
            !answer(&mut engine, 1, 3, 600),
            "a duplicate answer is no progress"
        );
        assert_eq!(tick(&mut engine, 2_000).0, vec![(2, 1), (4, 1)]);
        assert_eq!(counter.get(), 2);
        // One round, however many peers it went to.
        assert_eq!(engine.get_mut(1).unwrap().retransmits, 1);
    }

    /// Any awaited peer's answer is progress: a trace collect waiting on several peers
    /// is reaped 60 s after the *last* reply, not after issue.
    #[test]
    fn unfinished_requests_are_reaped_after_sixty_seconds_without_progress() {
        let (mut engine, _) = engine(&[(1, &[2, 3]), (2, &[2])]);
        answer(&mut engine, 1, 3, 10_000);
        assert_eq!(tick(&mut engine, 60_000).1, 0);
        assert_eq!(tick(&mut engine, 60_001).1, 1);
        assert!(engine.get_mut(2).is_none());
        assert_eq!(tick(&mut engine, 70_000).1, 0);
        assert_eq!(tick(&mut engine, 70_001).1, 1);
        assert!(engine.ids(|_| true).is_empty());
    }

    #[test]
    fn a_finished_request_outlives_the_idle_timeout_until_taken() {
        let (mut engine, _) = engine(&[(1, &[2])]);
        assert!(engine.take(1, Flight::finished).is_none());
        answer(&mut engine, 1, 2, 1_000);
        assert_eq!(tick(&mut engine, 600_000), (vec![], 0));
        // Nothing was re-sent for it either.
        assert_eq!(engine.take(1, Flight::finished).unwrap().retransmits, 0);
        assert!(engine.take(1, Flight::finished).is_none());
    }

    #[test]
    fn retries_go_out_in_request_id_order() {
        let (mut engine, _) = engine(&[(9, &[2]), (3, &[2]), (7, &[2]), (1, &[2]), (5, &[2])]);
        let order: Vec<RequestId> = tick(&mut engine, 2_000).0.iter().map(|s| s.1).collect();
        assert_eq!(order, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn a_reaped_trace_collect_is_assembled_from_the_spans_that_arrived() {
        let clock = SimulatedClock::new();
        let network = Arc::new(SimulatedNetwork::new());
        // A peer that joined the network but never answers.
        network.add_node(NodeId::new(2)).unwrap();
        let config = ContainerConfig::named(NodeId::new(1), "collector").with_tracing(true);
        let mut container =
            GsnContainer::with_mesh(config, Arc::new(clock.clone()), network).unwrap();
        container.mesh_bootstrap(&[NodeId::new(2)], 1);
        let log = container.trace_log();
        log.finish(log.begin_traced("federated.query", gsn_telemetry::SpanId::NONE, 77));
        container.collect_remote_spans(77).unwrap();
        clock.advance(Duration::from_secs(60));
        container.step();
        assert_eq!(container.pending_trace_collects(), 1);
        clock.advance(Duration::from_millis(1));
        container.step();
        assert_eq!(container.pending_trace_collects(), 0);
        let traces = container.assembled_traces();
        assert_eq!((traces.len(), traces[0].trace_id), (1, 77));
        assert_eq!(traces[0].nodes, vec![1]);
    }
}
