//! The federation wire's intake: one handler per message kind, plus the remote
//! subscriptions that feed `wrapper="remote"` sources.
//!
//! Every handler trusts the envelope, not the payload: the sender of a frame is the node
//! the network delivered it from, never a node id the frame names.  So a peer can
//! subscribe, unsubscribe or be answered only as itself.

use std::sync::Arc;

use gsn_network::{
    Envelope, Message, Operation, Principal, RequestId, SimulatedNetwork, WireElement,
};
use gsn_types::{GsnError, GsnResult, NodeId, Timestamp};

use super::{deliver_remote, GsnContainer, ShardOutcome, StepReport};

/// A remote subscription this container requested.  Un-acked subscriptions are re-sent
/// on every step so that a lost `Subscribe` (lossy link, partition during deployment)
/// does not silence the source forever.
pub(super) struct PendingSubscription {
    producer: NodeId,
    sensor: String,
    request: RequestId,
    /// Set once the producer answered, accepting or refusing: no more re-sends.
    answered: bool,
}

impl GsnContainer {
    /// Sends one frame from this node, returning its encoded size when the network
    /// accepted it (`None` on a standalone container, a partition or an unknown peer).
    pub(super) fn send(&self, to: NodeId, message: Message, now: Timestamp) -> Option<usize> {
        let network = self.runtime.network.as_ref()?;
        network.send(self.config.node_id, to, message, now).ok()
    }

    /// The network, or a config error saying `what` needs one.
    pub(super) fn network_for(&self, what: &str) -> GsnResult<Arc<SimulatedNetwork>> {
        self.runtime.network.clone().ok_or_else(|| {
            GsnError::config(format!(
                "this container has no network; {what} are unavailable"
            ))
        })
    }

    /// Drains the simulated network inbox, dispatching each frame to its handler.
    pub(super) fn drain_network(&mut self, now: Timestamp) -> StepReport {
        let mut out = ShardOutcome::default();
        let Some(network) = self.runtime.network.clone() else {
            return out.report;
        };
        for Envelope { from, message, .. } in network.receive(self.config.node_id, now) {
            match message {
                Message::Subscribe { request, sensor } => {
                    self.serve_subscribe(from, request, &sensor, now)
                }
                Message::SubscribeAck { request, .. } => self.accept_subscribe_ack(request),
                Message::Unsubscribe { sensor } => self.serve_unsubscribe(from, &sensor),
                Message::StreamDelivery { sensor, element } => {
                    self.accept_delivery(from, &sensor, element, now, &mut out)
                }
                Message::Ping { request } => {
                    self.send(from, Message::Pong { request }, now);
                }
                // Pongs are informational for the container.
                Message::Pong { .. } => {}
                Message::QueryRequest {
                    request,
                    sql,
                    batch_rows,
                    trace,
                } => {
                    for reply in
                        self.serve_query_request(from, request, &sql, batch_rows as usize, trace)
                    {
                        self.send(from, reply, now);
                    }
                }
                Message::QueryNext {
                    request,
                    cursor,
                    batch_rows,
                    expect_seq,
                    ..
                } => {
                    for reply in self.serve_query_next(
                        from,
                        request,
                        cursor,
                        batch_rows as usize,
                        expect_seq,
                    ) {
                        self.send(from, reply, now);
                    }
                }
                batch @ Message::QueryBatch { .. } => self.accept_query_batch(from, batch, now),
                Message::MetricsRequest { request } => {
                    self.serve_metrics_request(from, request, now)
                }
                Message::MetricsSnapshot { request, snapshot } => {
                    self.accept_metrics_snapshot(from, request, snapshot, now)
                }
                Message::GossipDigest { digest, health, .. } => {
                    self.serve_gossip_digest(from, digest, health, now)
                }
                Message::GossipDelta {
                    records,
                    digest,
                    health,
                    ..
                } => self.accept_gossip_delta(from, records, digest, health, now),
                Message::RingAnnounce { epoch, members } => {
                    self.accept_ring_announce(epoch, members)
                }
                Message::PartialAggregateRequest {
                    request,
                    sql,
                    trace,
                } => self.serve_partial_aggregate(from, request, &sql, trace, now),
                reply @ Message::PartialAggregateReply { .. } => {
                    self.accept_partial_reply(from, reply, now)
                }
                Message::TraceCollectRequest { request, trace_id } => {
                    self.serve_trace_collect(from, request, trace_id, now)
                }
                Message::TraceCollectReply { request, spans } => {
                    self.accept_trace_collect_reply(from, request, spans, now)
                }
            }
        }
        debug_assert!(out.deferred.is_empty());
        out.report
    }

    /// Subscribes this node to `sensor` on the remote `producer`.
    pub(super) fn subscribe_remote(&mut self, producer: NodeId, sensor: &str) {
        let request = self.exchanges.next_request();
        let sensor = sensor.to_owned();
        let subscribe = Message::Subscribe {
            request,
            sensor: sensor.clone(),
        };
        self.send(producer, subscribe, self.clock.now());
        self.pending_subscriptions.push(PendingSubscription {
            producer,
            sensor,
            request,
            answered: false,
        });
    }

    /// Cancels this node's subscription to the remote `sensor`.  The `Unsubscribe` is
    /// sent once; if it is lost, the producer's next delivery finds no route here and
    /// is answered with another (see [`accept_delivery`](Self::accept_delivery)).
    pub(super) fn unsubscribe_remote(&mut self, sensor: &str) {
        let producer = self
            .pending_subscriptions
            .iter()
            .find(|p| p.sensor.eq_ignore_ascii_case(sensor))
            .map(|p| p.producer);
        if let Some(producer) = producer {
            let unsubscribe = Message::Unsubscribe {
                sensor: sensor.to_owned(),
            };
            self.send(producer, unsubscribe, self.clock.now());
        }
        self.pending_subscriptions
            .retain(|p| !p.sensor.eq_ignore_ascii_case(sensor));
    }

    /// Re-sends `Subscribe` for remote sources whose producer has not answered yet.
    pub(super) fn retry_pending_subscriptions(&self, now: Timestamp) {
        for pending in &self.pending_subscriptions {
            if pending.answered {
                continue;
            }
            let subscribe = Message::Subscribe {
                request: pending.request,
                sensor: pending.sensor.clone(),
            };
            self.send(pending.producer, subscribe, now);
        }
    }

    /// Adds the sender as a subscriber of `sensor` when access control allows it, and
    /// acknowledges either way.
    fn serve_subscribe(&self, from: NodeId, request: RequestId, sensor: &str, now: Timestamp) {
        let principal = Principal::named(&from.to_string());
        let accepted = self.access.check(&principal, Operation::Subscribe, sensor)
            && self.require_sensor(sensor).is_ok();
        if accepted {
            self.runtime
                .notifications
                .lock()
                .add_remote_subscriber(from, sensor);
        }
        let reason = if accepted {
            String::new()
        } else {
            format!("subscription to `{sensor}` refused")
        };
        let ack = Message::SubscribeAck {
            request,
            accepted,
            reason,
        };
        self.send(from, ack, now);
    }

    fn accept_subscribe_ack(&mut self, request: RequestId) {
        for pending in &mut self.pending_subscriptions {
            pending.answered |= pending.request == request;
        }
    }

    /// Removes the sender's own subscription to `sensor` — no other node's.
    fn serve_unsubscribe(&self, from: NodeId, sensor: &str) {
        self.runtime
            .notifications
            .lock()
            .remove_remote_subscriber(from, sensor);
    }

    /// Routes one remote element to every local consumer of `sensor`.  An element no
    /// local sensor consumes any more means the `Unsubscribe` sent at undeploy was lost:
    /// it is answered with another, which is idempotent, so the producer stops as soon
    /// as one gets through.
    fn accept_delivery(
        &self,
        from: NodeId,
        sensor: &str,
        element: WireElement,
        now: Timestamp,
        out: &mut ShardOutcome,
    ) {
        let routes = self.runtime.remote_routes.load();
        let Some(consumers) = routes.get(&sensor.to_ascii_lowercase()) else {
            let unsubscribe = Message::Unsubscribe {
                sensor: sensor.to_owned(),
            };
            self.send(from, unsubscribe, now);
            return;
        };
        let Ok(element) = element.into_element() else {
            out.report.errors += 1;
            return;
        };
        for (consumer, source_ref) in consumers {
            out.report.remote_arrivals += 1;
            deliver_remote(
                &self.runtime,
                &self.sensors,
                consumer,
                *source_ref,
                element.clone(),
                now,
                out,
            );
        }
    }
}
