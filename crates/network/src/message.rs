//! Inter-container messages and their wire encoding.
//!
//! GSN nodes "communicate among each other in a peer-to-peer fashion" (paper, Section 4):
//! they publish virtual sensors to a directory, subscribe to remote virtual sensors
//! (logical addressing through `wrapper="remote"`), and deliver stream elements to remote
//! subscribers.  The message set below covers that protocol.  Although the reproduction's
//! network is simulated in-process, messages are genuinely serialised to bytes and parsed
//! back so that the per-element cost of remote delivery (encoding + copying + decoding) is
//! exercised, as it would be over TCP.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use gsn_telemetry::{
    HealthState, HealthSummary, HistogramSummary, MetricSample, MetricsSnapshot, RemoteSpan,
    SampleValue, SpanId, SubsystemHealth, TraceContext,
};
use gsn_types::{GsnError, GsnResult, NodeId, StreamElement, StreamSchema, Timestamp, Value};
use std::sync::Arc;

/// A monotonically increasing identifier for request/response correlation.
pub type RequestId = u64;

/// One message exchanged between GSN containers.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Subscribe to a remote virtual sensor's output stream.
    Subscribe {
        /// Correlation id.
        request: RequestId,
        /// The subscribing node.
        subscriber: NodeId,
        /// The remote virtual sensor name.
        sensor: String,
    },
    /// Acknowledge (or refuse) a subscription.
    SubscribeAck {
        /// Correlation id of the subscription.
        request: RequestId,
        /// Whether the subscription was accepted.
        accepted: bool,
        /// Reason when refused.
        reason: String,
    },
    /// Cancel a subscription.
    Unsubscribe {
        /// The subscribing node.
        subscriber: NodeId,
        /// The remote virtual sensor name.
        sensor: String,
    },
    /// Deliver one output stream element of a virtual sensor to a subscriber.
    StreamDelivery {
        /// The producing virtual sensor.
        sensor: String,
        /// The element payload.
        element: WireElement,
    },
    /// Liveness probe.
    Ping {
        /// Correlation id.
        request: RequestId,
    },
    /// Liveness answer.
    Pong {
        /// Correlation id of the ping.
        request: RequestId,
    },
    /// Open a streaming query on a remote container.  The server opens a pull-based
    /// cursor over its live storage and answers with [`Message::QueryBatch`] messages —
    /// result rows ship incrementally instead of as one monolithic relation, so
    /// constrained links (the mobile-gateway deployments of the GSN follow-up work)
    /// consume arbitrarily large results in bounded memory.
    QueryRequest {
        /// Correlation id.
        request: RequestId,
        /// The SQL text to execute against the remote container's tables.
        sql: String,
        /// How many rows the server should ship per batch.
        batch_rows: u32,
        /// When true the server pipelines: it speculatively pushes a window of batches
        /// ahead of the client's acknowledgements ([`Message::QueryNext`] becomes a
        /// cumulative ack), hiding one link RTT per batch.  When false the wire stays
        /// strictly pull-based (one batch per `QueryNext`).
        prefetch: bool,
        /// The distributed trace this query belongs to, if any.  Encoded as a
        /// trailing extension: old peers simply omit it (decodes as `None`),
        /// and untraced frames are byte-identical to the pre-tracing format.
        trace: Option<TraceContext>,
    },
    /// Pull the next batch of an open remote cursor (the wire stays pull-based: the
    /// server only reads further storage pages when the client asks).
    QueryNext {
        /// Correlation id of the originating request.
        request: RequestId,
        /// The server-side cursor id from the previous [`Message::QueryBatch`].
        cursor: u64,
        /// How many rows to ship in the next batch.
        batch_rows: u32,
        /// The batch sequence number the client expects next.  Lossy-link recovery:
        /// asking again for the *previous* batch (`server next - 1`) makes the server
        /// retransmit its cached copy instead of advancing the cursor, so a dropped
        /// `QueryBatch` is re-requested rather than stalling the query.
        expect_seq: u64,
        /// The distributed trace this pull belongs to, if any (trailing
        /// extension; `None` is byte-identical to the pre-tracing format).
        trace: Option<TraceContext>,
    },
    /// One incremental batch of a remote query result.
    QueryBatch {
        /// Correlation id of the originating request.
        request: RequestId,
        /// Server-side cursor id; quote it in [`Message::QueryNext`] to pull more.
        cursor: u64,
        /// Result column names, in order (sent with every batch — self-describing).
        columns: Vec<String>,
        /// The rows of this batch.
        rows: Vec<Vec<Value>>,
        /// Batch sequence number within this request, starting at 0.  The client
        /// consumes batches in order, ignores duplicates (retransmissions) and
        /// re-requests the expected batch when a number is skipped.
        seq: u64,
        /// True when the cursor is exhausted and closed on the server.
        done: bool,
        /// Non-empty when the query failed (rows are empty and `done` is true).
        error: String,
        /// Microseconds the server spent opening/executing for this batch
        /// (trailing extension; 0 is byte-identical to the old format).
        server_micros: u64,
    },
    /// Ask a peer for its current metrics snapshot (the federation scrape:
    /// EMMA-style cooperating nodes report health to each other).
    MetricsRequest {
        /// Correlation id.
        request: RequestId,
        /// The scraping node (where the snapshot should be sent back).
        from: NodeId,
    },
    /// A peer's typed metrics snapshot, answering [`Message::MetricsRequest`].
    MetricsSnapshot {
        /// Correlation id of the request.
        request: RequestId,
        /// The scraped node.
        node: NodeId,
        /// The full registry snapshot at scrape time.
        snapshot: MetricsSnapshot,
    },
    /// Anti-entropy round opener: a compact summary of the sender's directory replica
    /// (per-origin max version).  The receiver answers with a [`Message::GossipDelta`]
    /// carrying every record the digest proves the sender has not seen.
    GossipDigest {
        /// The gossiping node (replies go here).
        from: NodeId,
        /// `(origin, max version)` pairs — one per origin the sender knows about.
        digest: Vec<(NodeId, u64)>,
        /// Per-node health summaries piggybacked on the round (trailing
        /// extension; empty is byte-identical to the pre-health format).
        health: Vec<HealthSummary>,
        /// The distributed trace this round belongs to, if any (trailing
        /// extension, normally `None` — gossip is background traffic).
        trace: Option<TraceContext>,
    },
    /// Anti-entropy payload: directory records newer than the peer's digest.  When
    /// `digest` is non-empty the sender also wants the records *it* is missing (push–pull);
    /// an empty digest terminates the exchange.
    GossipDelta {
        /// The sending node.
        from: NodeId,
        /// Records the receiver has not seen (by the digest it sent).
        records: Vec<ReplicaRecord>,
        /// The sender's own digest when it wants a return delta; empty to end the round.
        digest: Vec<(NodeId, u64)>,
        /// Per-node health summaries piggybacked on the round (trailing
        /// extension; empty is byte-identical to the pre-health format).
        health: Vec<HealthSummary>,
        /// The distributed trace this round belongs to, if any (trailing
        /// extension, normally `None`).
        trace: Option<TraceContext>,
    },
    /// Placement-ring membership broadcast.  Receivers rebuild the ring deterministically
    /// from the member list; a strictly higher epoch replaces the local view.
    RingAnnounce {
        /// The announcing node.
        from: NodeId,
        /// Monotonic membership epoch (bumped by the node initiating a join/leave).
        epoch: u64,
        /// The full member list at this epoch.
        members: Vec<NodeId>,
    },
    /// Scatter-gather fan-out: run a container-local partial-aggregate query and reply
    /// with the partial rows.  The SQL is the coordinator's rewritten partial shape
    /// (AVG split into SUM+COUNT, group keys first), executed against local storage.
    PartialAggregateRequest {
        /// Correlation id.
        request: RequestId,
        /// The partial-aggregate SQL to execute locally.
        sql: String,
        /// The distributed trace this scatter belongs to, if any (trailing
        /// extension; `None` is byte-identical to the pre-tracing format).
        trace: Option<TraceContext>,
    },
    /// The partial rows answering a [`Message::PartialAggregateRequest`].
    PartialAggregateReply {
        /// Correlation id of the request.
        request: RequestId,
        /// Partial result column names.
        columns: Vec<String>,
        /// Partial result rows (group keys first, then accumulator columns).
        rows: Vec<Vec<Value>>,
        /// Non-empty when the partial execution failed (rows are empty).
        error: String,
        /// Microseconds the server spent executing the partial (trailing
        /// extension; 0 is byte-identical to the old format).
        server_micros: u64,
    },
    /// Ask a peer for every retained span of one distributed trace — the
    /// client-side assembly step of cross-container tracing, issued next to
    /// [`Message::MetricsRequest`] once a federated query completes.
    TraceCollectRequest {
        /// Correlation id.
        request: RequestId,
        /// The collecting node (where the spans should be sent back).
        from: NodeId,
        /// The trace whose spans are wanted.
        trace_id: u128,
    },
    /// A peer's retained spans of one trace, answering
    /// [`Message::TraceCollectRequest`].
    TraceCollectReply {
        /// Correlation id of the request.
        request: RequestId,
        /// The answering node.
        node: NodeId,
        /// The trace the spans belong to.
        trace_id: u128,
        /// Every retained span of the trace on the answering node.
        spans: Vec<RemoteSpan>,
    },
}

/// One versioned entry of the gossip-replicated sensor directory.  The `(version,
/// origin)` pair is a Lamport timestamp: higher version wins, ties break on the larger
/// origin id, so every replica resolves concurrent updates identically.  Deletions are
/// tombstones (`deleted = true`) so they propagate like any other update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaRecord {
    /// The container hosting the virtual sensor.
    pub node: NodeId,
    /// The virtual sensor name (stored lowercased).
    pub sensor: String,
    /// Discovery metadata (key–value predicates).
    pub metadata: Vec<(String, String)>,
    /// Lamport version assigned by `origin` when this update was made.
    pub version: u64,
    /// The node that made this update.
    pub origin: NodeId,
    /// True when this record is a deletion tombstone.
    pub deleted: bool,
}

impl Message {
    /// A short tag naming the message type (for logs and statistics).
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Subscribe { .. } => "subscribe",
            Message::SubscribeAck { .. } => "subscribe-ack",
            Message::Unsubscribe { .. } => "unsubscribe",
            Message::StreamDelivery { .. } => "stream-delivery",
            Message::Ping { .. } => "ping",
            Message::Pong { .. } => "pong",
            Message::QueryRequest { .. } => "query-request",
            Message::QueryNext { .. } => "query-next",
            Message::QueryBatch { .. } => "query-batch",
            Message::MetricsRequest { .. } => "metrics-request",
            Message::MetricsSnapshot { .. } => "metrics-snapshot",
            Message::GossipDigest { .. } => "gossip-digest",
            Message::GossipDelta { .. } => "gossip-delta",
            Message::RingAnnounce { .. } => "ring-announce",
            Message::PartialAggregateRequest { .. } => "partial-aggregate-request",
            Message::PartialAggregateReply { .. } => "partial-aggregate-reply",
            Message::TraceCollectRequest { .. } => "trace-collect-request",
            Message::TraceCollectReply { .. } => "trace-collect-reply",
        }
    }
}

/// A stream element flattened for the wire: field names, types and values travel together
/// so the receiver can reconstruct the schema without an out-of-band exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct WireElement {
    /// Field names in order.
    pub fields: Vec<(String, gsn_types::DataType)>,
    /// Field values in order.
    pub values: Vec<Value>,
    /// The element timestamp.
    pub timestamp: Timestamp,
    /// The producer-side timestamp, if known.
    pub produced_at: Option<Timestamp>,
}

impl WireElement {
    /// Flattens a stream element.
    pub fn from_element(element: &StreamElement) -> WireElement {
        WireElement {
            fields: element
                .schema()
                .fields()
                .map(|f| (f.name.as_str().to_owned(), f.data_type))
                .collect(),
            values: element.values().to_vec(),
            timestamp: element.timestamp(),
            produced_at: element.produced_at(),
        }
    }

    /// Reconstructs a stream element (rebuilding the schema).
    pub fn into_element(self) -> GsnResult<StreamElement> {
        let schema = StreamSchema::from_pairs(
            &self
                .fields
                .iter()
                .map(|(n, t)| (n.as_str(), *t))
                .collect::<Vec<_>>(),
        )?;
        let mut element = StreamElement::new(Arc::new(schema), self.values, self.timestamp)?;
        if let Some(p) = self.produced_at {
            element = element.with_produced_at(p);
        }
        Ok(element)
    }
}

// ---------------------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------------------

// Tags 1–4 are retired (central-directory register/deregister/lookup/result).
// Never reuse them: a frame carrying one must decode as an unknown tag, not as
// some other message.
const TAG_SUBSCRIBE: u8 = 5;
const TAG_SUBSCRIBE_ACK: u8 = 6;
const TAG_UNSUBSCRIBE: u8 = 7;
const TAG_STREAM_DELIVERY: u8 = 8;
const TAG_PING: u8 = 9;
const TAG_PONG: u8 = 10;
const TAG_QUERY_REQUEST: u8 = 11;
const TAG_QUERY_NEXT: u8 = 12;
const TAG_QUERY_BATCH: u8 = 13;
const TAG_METRICS_REQUEST: u8 = 14;
const TAG_METRICS_SNAPSHOT: u8 = 15;
const TAG_GOSSIP_DIGEST: u8 = 16;
const TAG_GOSSIP_DELTA: u8 = 17;
const TAG_RING_ANNOUNCE: u8 = 18;
const TAG_PARTIAL_AGG_REQUEST: u8 = 19;
const TAG_PARTIAL_AGG_REPLY: u8 = 20;
const TAG_TRACE_COLLECT_REQUEST: u8 = 21;
const TAG_TRACE_COLLECT_REPLY: u8 = 22;

// Trailing-extension flag bits.  Extended messages append one flags byte plus
// the flagged payloads *after* their legacy fields, and only when at least one
// extension is present — so frames without extensions stay byte-identical to
// the pre-extension format and decode on old peers, while old frames (which
// end exactly where the legacy fields end) decode here with the defaults.
const EXT_TRACE: u8 = 0x01;
const EXT_HEALTH: u8 = 0x02;
const EXT_SERVER_MICROS: u8 = 0x04;

const SAMPLE_COUNTER: u8 = 0;
const SAMPLE_GAUGE: u8 = 1;
const SAMPLE_HISTOGRAM: u8 = 2;

const VAL_NULL: u8 = 0;
const VAL_INTEGER: u8 = 1;
const VAL_DOUBLE: u8 = 2;
const VAL_VARCHAR: u8 = 3;
const VAL_BOOLEAN: u8 = 4;
const VAL_BINARY: u8 = 5;
const VAL_TIMESTAMP: u8 = 6;

/// Encodes a message to bytes.
pub fn encode(message: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    match message {
        Message::Subscribe {
            request,
            subscriber,
            sensor,
        } => {
            buf.put_u8(TAG_SUBSCRIBE);
            buf.put_u64(*request);
            buf.put_u64(subscriber.as_u64());
            put_string(&mut buf, sensor);
        }
        Message::SubscribeAck {
            request,
            accepted,
            reason,
        } => {
            buf.put_u8(TAG_SUBSCRIBE_ACK);
            buf.put_u64(*request);
            buf.put_u8(u8::from(*accepted));
            put_string(&mut buf, reason);
        }
        Message::Unsubscribe { subscriber, sensor } => {
            buf.put_u8(TAG_UNSUBSCRIBE);
            buf.put_u64(subscriber.as_u64());
            put_string(&mut buf, sensor);
        }
        Message::StreamDelivery { sensor, element } => {
            buf.put_u8(TAG_STREAM_DELIVERY);
            put_string(&mut buf, sensor);
            put_element(&mut buf, element);
        }
        Message::Ping { request } => {
            buf.put_u8(TAG_PING);
            buf.put_u64(*request);
        }
        Message::Pong { request } => {
            buf.put_u8(TAG_PONG);
            buf.put_u64(*request);
        }
        Message::QueryRequest {
            request,
            sql,
            batch_rows,
            prefetch,
            trace,
        } => {
            buf.put_u8(TAG_QUERY_REQUEST);
            buf.put_u64(*request);
            put_string(&mut buf, sql);
            buf.put_u32(*batch_rows);
            buf.put_u8(u8::from(*prefetch));
            put_extensions(&mut buf, trace, &[], 0);
        }
        Message::QueryNext {
            request,
            cursor,
            batch_rows,
            expect_seq,
            trace,
        } => {
            buf.put_u8(TAG_QUERY_NEXT);
            buf.put_u64(*request);
            buf.put_u64(*cursor);
            buf.put_u32(*batch_rows);
            buf.put_u64(*expect_seq);
            put_extensions(&mut buf, trace, &[], 0);
        }
        Message::QueryBatch {
            request,
            cursor,
            columns,
            rows,
            seq,
            done,
            error,
            server_micros,
        } => {
            buf.put_u8(TAG_QUERY_BATCH);
            buf.put_u64(*request);
            buf.put_u64(*cursor);
            buf.put_u64(*seq);
            buf.put_u32(columns.len() as u32);
            for column in columns {
                put_string(&mut buf, column);
            }
            buf.put_u32(rows.len() as u32);
            for row in rows {
                buf.put_u32(row.len() as u32);
                for value in row {
                    put_value(&mut buf, value);
                }
            }
            buf.put_u8(u8::from(*done));
            put_string(&mut buf, error);
            put_extensions(&mut buf, &None, &[], *server_micros);
        }
        Message::MetricsRequest { request, from } => {
            buf.put_u8(TAG_METRICS_REQUEST);
            buf.put_u64(*request);
            buf.put_u64(from.as_u64());
        }
        Message::MetricsSnapshot {
            request,
            node,
            snapshot,
        } => {
            buf.put_u8(TAG_METRICS_SNAPSHOT);
            buf.put_u64(*request);
            buf.put_u64(node.as_u64());
            buf.put_u32(snapshot.metrics.len() as u32);
            for sample in &snapshot.metrics {
                put_string(&mut buf, &sample.name);
                put_string(&mut buf, &sample.help);
                put_string(&mut buf, &sample.unit);
                put_string(&mut buf, &sample.label_key);
                put_string(&mut buf, &sample.label);
                match &sample.value {
                    SampleValue::Counter(v) => {
                        buf.put_u8(SAMPLE_COUNTER);
                        buf.put_u64(*v);
                    }
                    SampleValue::Gauge(v) => {
                        buf.put_u8(SAMPLE_GAUGE);
                        buf.put_i64(*v);
                    }
                    SampleValue::Histogram(h) => {
                        buf.put_u8(SAMPLE_HISTOGRAM);
                        buf.put_u64(h.count);
                        buf.put_u64(h.sum);
                        buf.put_u64(h.p50);
                        buf.put_u64(h.p90);
                        buf.put_u64(h.p99);
                        buf.put_u64(h.max);
                    }
                }
            }
        }
        Message::GossipDigest {
            from,
            digest,
            health,
            trace,
        } => {
            buf.put_u8(TAG_GOSSIP_DIGEST);
            buf.put_u64(from.as_u64());
            put_digest(&mut buf, digest);
            put_extensions(&mut buf, trace, health, 0);
        }
        Message::GossipDelta {
            from,
            records,
            digest,
            health,
            trace,
        } => {
            buf.put_u8(TAG_GOSSIP_DELTA);
            buf.put_u64(from.as_u64());
            buf.put_u32(records.len() as u32);
            for record in records {
                put_replica_record(&mut buf, record);
            }
            put_digest(&mut buf, digest);
            put_extensions(&mut buf, trace, health, 0);
        }
        Message::RingAnnounce {
            from,
            epoch,
            members,
        } => {
            buf.put_u8(TAG_RING_ANNOUNCE);
            buf.put_u64(from.as_u64());
            buf.put_u64(*epoch);
            buf.put_u32(members.len() as u32);
            for member in members {
                buf.put_u64(member.as_u64());
            }
        }
        Message::PartialAggregateRequest {
            request,
            sql,
            trace,
        } => {
            buf.put_u8(TAG_PARTIAL_AGG_REQUEST);
            buf.put_u64(*request);
            put_string(&mut buf, sql);
            put_extensions(&mut buf, trace, &[], 0);
        }
        Message::PartialAggregateReply {
            request,
            columns,
            rows,
            error,
            server_micros,
        } => {
            buf.put_u8(TAG_PARTIAL_AGG_REPLY);
            buf.put_u64(*request);
            buf.put_u32(columns.len() as u32);
            for column in columns {
                put_string(&mut buf, column);
            }
            buf.put_u32(rows.len() as u32);
            for row in rows {
                buf.put_u32(row.len() as u32);
                for value in row {
                    put_value(&mut buf, value);
                }
            }
            put_string(&mut buf, error);
            put_extensions(&mut buf, &None, &[], *server_micros);
        }
        Message::TraceCollectRequest {
            request,
            from,
            trace_id,
        } => {
            buf.put_u8(TAG_TRACE_COLLECT_REQUEST);
            buf.put_u64(*request);
            buf.put_u64(from.as_u64());
            put_u128(&mut buf, *trace_id);
        }
        Message::TraceCollectReply {
            request,
            node,
            trace_id,
            spans,
        } => {
            buf.put_u8(TAG_TRACE_COLLECT_REPLY);
            buf.put_u64(*request);
            buf.put_u64(node.as_u64());
            put_u128(&mut buf, *trace_id);
            put_remote_spans(&mut buf, spans);
        }
    }
    buf.freeze()
}

/// Decodes a message from bytes.
pub fn decode(mut buf: &[u8]) -> GsnResult<Message> {
    let err = |what: &str| GsnError::internal(format!("malformed message: {what}"));
    if buf.is_empty() {
        return Err(err("empty buffer"));
    }
    let tag = buf.get_u8();
    let message = match tag {
        TAG_SUBSCRIBE => Message::Subscribe {
            request: get_u64(&mut buf)?,
            subscriber: NodeId::new(get_u64(&mut buf)?),
            sensor: get_string(&mut buf)?,
        },
        TAG_SUBSCRIBE_ACK => Message::SubscribeAck {
            request: get_u64(&mut buf)?,
            accepted: get_u8(&mut buf)? != 0,
            reason: get_string(&mut buf)?,
        },
        TAG_UNSUBSCRIBE => Message::Unsubscribe {
            subscriber: NodeId::new(get_u64(&mut buf)?),
            sensor: get_string(&mut buf)?,
        },
        TAG_STREAM_DELIVERY => Message::StreamDelivery {
            sensor: get_string(&mut buf)?,
            element: get_element(&mut buf)?,
        },
        TAG_PING => Message::Ping {
            request: get_u64(&mut buf)?,
        },
        TAG_PONG => Message::Pong {
            request: get_u64(&mut buf)?,
        },
        TAG_QUERY_REQUEST => {
            let request = get_u64(&mut buf)?;
            let sql = get_string(&mut buf)?;
            let batch_rows = get_u32(&mut buf)?;
            let prefetch = get_u8(&mut buf)? != 0;
            let (trace, _, _) = get_extensions(&mut buf)?;
            Message::QueryRequest {
                request,
                sql,
                batch_rows,
                prefetch,
                trace,
            }
        }
        TAG_QUERY_NEXT => {
            let request = get_u64(&mut buf)?;
            let cursor = get_u64(&mut buf)?;
            let batch_rows = get_u32(&mut buf)?;
            let expect_seq = get_u64(&mut buf)?;
            let (trace, _, _) = get_extensions(&mut buf)?;
            Message::QueryNext {
                request,
                cursor,
                batch_rows,
                expect_seq,
                trace,
            }
        }
        TAG_QUERY_BATCH => {
            let request = get_u64(&mut buf)?;
            let cursor = get_u64(&mut buf)?;
            let seq = get_u64(&mut buf)?;
            let n_columns = get_u32(&mut buf)? as usize;
            let mut columns = Vec::with_capacity(n_columns.min(1024));
            for _ in 0..n_columns {
                columns.push(get_string(&mut buf)?);
            }
            let n_rows = get_u32(&mut buf)? as usize;
            let mut rows = Vec::with_capacity(n_rows.min(1024));
            for _ in 0..n_rows {
                let width = get_u32(&mut buf)? as usize;
                let mut row = Vec::with_capacity(width.min(1024));
                for _ in 0..width {
                    row.push(get_value(&mut buf)?);
                }
                rows.push(row);
            }
            let done = get_u8(&mut buf)? != 0;
            let error = get_string(&mut buf)?;
            let (_, _, server_micros) = get_extensions(&mut buf)?;
            Message::QueryBatch {
                request,
                cursor,
                columns,
                rows,
                seq,
                done,
                error,
                server_micros,
            }
        }
        TAG_METRICS_REQUEST => Message::MetricsRequest {
            request: get_u64(&mut buf)?,
            from: NodeId::new(get_u64(&mut buf)?),
        },
        TAG_METRICS_SNAPSHOT => {
            let request = get_u64(&mut buf)?;
            let node = NodeId::new(get_u64(&mut buf)?);
            let n = get_u32(&mut buf)? as usize;
            let mut metrics = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let name = get_string(&mut buf)?;
                let help = get_string(&mut buf)?;
                let unit = get_string(&mut buf)?;
                let label_key = get_string(&mut buf)?;
                let label = get_string(&mut buf)?;
                let value = match get_u8(&mut buf)? {
                    SAMPLE_COUNTER => SampleValue::Counter(get_u64(&mut buf)?),
                    SAMPLE_GAUGE => SampleValue::Gauge(get_i64(&mut buf)?),
                    SAMPLE_HISTOGRAM => SampleValue::Histogram(HistogramSummary {
                        count: get_u64(&mut buf)?,
                        sum: get_u64(&mut buf)?,
                        p50: get_u64(&mut buf)?,
                        p90: get_u64(&mut buf)?,
                        p99: get_u64(&mut buf)?,
                        max: get_u64(&mut buf)?,
                    }),
                    other => return Err(err(&format!("unknown sample tag {other}"))),
                };
                metrics.push(MetricSample {
                    name,
                    help,
                    unit,
                    label_key,
                    label,
                    value,
                });
            }
            Message::MetricsSnapshot {
                request,
                node,
                snapshot: MetricsSnapshot { metrics },
            }
        }
        TAG_GOSSIP_DIGEST => {
            let from = NodeId::new(get_u64(&mut buf)?);
            let digest = get_digest(&mut buf)?;
            let (trace, health, _) = get_extensions(&mut buf)?;
            Message::GossipDigest {
                from,
                digest,
                health,
                trace,
            }
        }
        TAG_GOSSIP_DELTA => {
            let from = NodeId::new(get_u64(&mut buf)?);
            let n = get_u32(&mut buf)? as usize;
            let mut records = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                records.push(get_replica_record(&mut buf)?);
            }
            let digest = get_digest(&mut buf)?;
            let (trace, health, _) = get_extensions(&mut buf)?;
            Message::GossipDelta {
                from,
                records,
                digest,
                health,
                trace,
            }
        }
        TAG_RING_ANNOUNCE => {
            let from = NodeId::new(get_u64(&mut buf)?);
            let epoch = get_u64(&mut buf)?;
            let n = get_u32(&mut buf)? as usize;
            let mut members = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                members.push(NodeId::new(get_u64(&mut buf)?));
            }
            Message::RingAnnounce {
                from,
                epoch,
                members,
            }
        }
        TAG_PARTIAL_AGG_REQUEST => {
            let request = get_u64(&mut buf)?;
            let sql = get_string(&mut buf)?;
            let (trace, _, _) = get_extensions(&mut buf)?;
            Message::PartialAggregateRequest {
                request,
                sql,
                trace,
            }
        }
        TAG_PARTIAL_AGG_REPLY => {
            let request = get_u64(&mut buf)?;
            let n_columns = get_u32(&mut buf)? as usize;
            let mut columns = Vec::with_capacity(n_columns.min(1024));
            for _ in 0..n_columns {
                columns.push(get_string(&mut buf)?);
            }
            let n_rows = get_u32(&mut buf)? as usize;
            let mut rows = Vec::with_capacity(n_rows.min(1024));
            for _ in 0..n_rows {
                let width = get_u32(&mut buf)? as usize;
                let mut row = Vec::with_capacity(width.min(1024));
                for _ in 0..width {
                    row.push(get_value(&mut buf)?);
                }
                rows.push(row);
            }
            let error = get_string(&mut buf)?;
            let (_, _, server_micros) = get_extensions(&mut buf)?;
            Message::PartialAggregateReply {
                request,
                columns,
                rows,
                error,
                server_micros,
            }
        }
        TAG_TRACE_COLLECT_REQUEST => Message::TraceCollectRequest {
            request: get_u64(&mut buf)?,
            from: NodeId::new(get_u64(&mut buf)?),
            trace_id: get_u128(&mut buf)?,
        },
        TAG_TRACE_COLLECT_REPLY => Message::TraceCollectReply {
            request: get_u64(&mut buf)?,
            node: NodeId::new(get_u64(&mut buf)?),
            trace_id: get_u128(&mut buf)?,
            spans: get_remote_spans(&mut buf)?,
        },
        other => return Err(err(&format!("unknown tag {other}"))),
    };
    if !buf.is_empty() {
        return Err(err("trailing bytes"));
    }
    Ok(message)
}

/// Appends the trailing-extension block: one flags byte plus the flagged
/// payloads, in flag-bit order (trace, health, server micros).  When nothing
/// is flagged, nothing is written — the frame stays byte-identical to the
/// pre-extension format.
fn put_extensions(
    buf: &mut BytesMut,
    trace: &Option<TraceContext>,
    health: &[HealthSummary],
    server_micros: u64,
) {
    let mut flags = 0u8;
    if trace.is_some() {
        flags |= EXT_TRACE;
    }
    if !health.is_empty() {
        flags |= EXT_HEALTH;
    }
    if server_micros != 0 {
        flags |= EXT_SERVER_MICROS;
    }
    if flags == 0 {
        return;
    }
    buf.put_u8(flags);
    if let Some(trace) = trace {
        put_u128(buf, trace.trace_id);
        buf.put_u64(trace.parent_span.0);
    }
    if !health.is_empty() {
        put_health_summaries(buf, health);
    }
    if server_micros != 0 {
        buf.put_u64(server_micros);
    }
}

/// Reads the trailing-extension block if present, returning
/// `(trace, health, server_micros)` with defaults for absent extensions.
/// Old frames end exactly where the legacy fields end, so an empty buffer
/// means "no extensions".
fn get_extensions(buf: &mut &[u8]) -> GsnResult<(Option<TraceContext>, Vec<HealthSummary>, u64)> {
    if buf.is_empty() {
        return Ok((None, Vec::new(), 0));
    }
    let flags = get_u8(buf)?;
    if flags & !(EXT_TRACE | EXT_HEALTH | EXT_SERVER_MICROS) != 0 {
        return Err(GsnError::internal(format!(
            "malformed message: unknown extension flags {flags:#04x}"
        )));
    }
    let trace = if flags & EXT_TRACE != 0 {
        let trace_id = get_u128(buf)?;
        let parent_span = SpanId(get_u64(buf)?);
        Some(TraceContext {
            trace_id,
            parent_span,
        })
    } else {
        None
    };
    let health = if flags & EXT_HEALTH != 0 {
        get_health_summaries(buf)?
    } else {
        Vec::new()
    };
    let server_micros = if flags & EXT_SERVER_MICROS != 0 {
        get_u64(buf)?
    } else {
        0
    };
    Ok((trace, health, server_micros))
}

fn put_u128(buf: &mut BytesMut, v: u128) {
    buf.put_u64((v >> 64) as u64);
    buf.put_u64(v as u64);
}

fn get_u128(buf: &mut &[u8]) -> GsnResult<u128> {
    let hi = get_u64(buf)?;
    let lo = get_u64(buf)?;
    Ok((u128::from(hi) << 64) | u128::from(lo))
}

fn put_health_summaries(buf: &mut BytesMut, summaries: &[HealthSummary]) {
    buf.put_u32(summaries.len() as u32);
    for summary in summaries {
        buf.put_u64(summary.node);
        buf.put_u64(summary.version);
        buf.put_u32(summary.subsystems.len() as u32);
        for sub in &summary.subsystems {
            put_string(buf, &sub.subsystem);
            buf.put_u8(sub.state.as_u8());
            buf.put_u32(sub.reasons.len() as u32);
            for reason in &sub.reasons {
                put_string(buf, reason);
            }
        }
    }
}

fn get_health_summaries(buf: &mut &[u8]) -> GsnResult<Vec<HealthSummary>> {
    let n = get_u32(buf)? as usize;
    let mut summaries = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let node = get_u64(buf)?;
        let version = get_u64(buf)?;
        let n_subs = get_u32(buf)? as usize;
        let mut subsystems = Vec::with_capacity(n_subs.min(1024));
        for _ in 0..n_subs {
            let subsystem = get_string(buf)?;
            let state = HealthState::from_u8(get_u8(buf)?);
            let n_reasons = get_u32(buf)? as usize;
            let mut reasons = Vec::with_capacity(n_reasons.min(1024));
            for _ in 0..n_reasons {
                reasons.push(get_string(buf)?);
            }
            subsystems.push(SubsystemHealth {
                subsystem,
                state,
                reasons,
            });
        }
        summaries.push(HealthSummary {
            node,
            version,
            subsystems,
        });
    }
    Ok(summaries)
}

fn put_remote_spans(buf: &mut BytesMut, spans: &[RemoteSpan]) {
    buf.put_u32(spans.len() as u32);
    for span in spans {
        buf.put_u64(span.node);
        put_u128(buf, span.trace_id);
        buf.put_u64(span.id);
        buf.put_u64(span.parent);
        put_string(buf, &span.name);
        put_string(buf, &span.detail);
        buf.put_u64(span.start_micros);
        buf.put_u64(span.duration_micros);
    }
}

fn get_remote_spans(buf: &mut &[u8]) -> GsnResult<Vec<RemoteSpan>> {
    let n = get_u32(buf)? as usize;
    let mut spans = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        spans.push(RemoteSpan {
            node: get_u64(buf)?,
            trace_id: get_u128(buf)?,
            id: get_u64(buf)?,
            parent: get_u64(buf)?,
            name: get_string(buf)?,
            detail: get_string(buf)?,
            start_micros: get_u64(buf)?,
            duration_micros: get_u64(buf)?,
        });
    }
    Ok(spans)
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_pairs(buf: &mut BytesMut, pairs: &[(String, String)]) {
    buf.put_u32(pairs.len() as u32);
    for (k, v) in pairs {
        put_string(buf, k);
        put_string(buf, v);
    }
}

fn put_value(buf: &mut BytesMut, value: &Value) {
    match value {
        Value::Null => buf.put_u8(VAL_NULL),
        Value::Integer(i) => {
            buf.put_u8(VAL_INTEGER);
            buf.put_i64(*i);
        }
        Value::Double(d) => {
            buf.put_u8(VAL_DOUBLE);
            buf.put_f64(*d);
        }
        Value::Varchar(s) => {
            buf.put_u8(VAL_VARCHAR);
            put_string(buf, s);
        }
        Value::Boolean(b) => {
            buf.put_u8(VAL_BOOLEAN);
            buf.put_u8(u8::from(*b));
        }
        Value::Binary(bytes) => {
            buf.put_u8(VAL_BINARY);
            buf.put_u32(bytes.len() as u32);
            buf.put_slice(bytes);
        }
        Value::Timestamp(t) => {
            buf.put_u8(VAL_TIMESTAMP);
            buf.put_i64(t.as_millis());
        }
    }
}

fn put_element(buf: &mut BytesMut, element: &WireElement) {
    buf.put_u32(element.fields.len() as u32);
    for (name, ty) in &element.fields {
        put_string(buf, name);
        put_string(buf, ty.canonical_name());
    }
    buf.put_u32(element.values.len() as u32);
    for v in &element.values {
        put_value(buf, v);
    }
    buf.put_i64(element.timestamp.as_millis());
    match element.produced_at {
        Some(t) => {
            buf.put_u8(1);
            buf.put_i64(t.as_millis());
        }
        None => buf.put_u8(0),
    }
}

fn put_digest(buf: &mut BytesMut, digest: &[(NodeId, u64)]) {
    buf.put_u32(digest.len() as u32);
    for (origin, version) in digest {
        buf.put_u64(origin.as_u64());
        buf.put_u64(*version);
    }
}

fn put_replica_record(buf: &mut BytesMut, record: &ReplicaRecord) {
    buf.put_u64(record.node.as_u64());
    put_string(buf, &record.sensor);
    put_pairs(buf, &record.metadata);
    buf.put_u64(record.version);
    buf.put_u64(record.origin.as_u64());
    buf.put_u8(u8::from(record.deleted));
}

fn get_digest(buf: &mut &[u8]) -> GsnResult<Vec<(NodeId, u64)>> {
    let n = get_u32(buf)? as usize;
    let mut digest = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let origin = NodeId::new(get_u64(buf)?);
        let version = get_u64(buf)?;
        digest.push((origin, version));
    }
    Ok(digest)
}

fn get_replica_record(buf: &mut &[u8]) -> GsnResult<ReplicaRecord> {
    Ok(ReplicaRecord {
        node: NodeId::new(get_u64(buf)?),
        sensor: get_string(buf)?,
        metadata: get_pairs(buf)?,
        version: get_u64(buf)?,
        origin: NodeId::new(get_u64(buf)?),
        deleted: get_u8(buf)? != 0,
    })
}

fn get_u8(buf: &mut &[u8]) -> GsnResult<u8> {
    if buf.remaining() < 1 {
        return Err(GsnError::internal("malformed message: truncated u8"));
    }
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut &[u8]) -> GsnResult<u32> {
    if buf.remaining() < 4 {
        return Err(GsnError::internal("malformed message: truncated u32"));
    }
    Ok(buf.get_u32())
}

fn get_u64(buf: &mut &[u8]) -> GsnResult<u64> {
    if buf.remaining() < 8 {
        return Err(GsnError::internal("malformed message: truncated u64"));
    }
    Ok(buf.get_u64())
}

fn get_i64(buf: &mut &[u8]) -> GsnResult<i64> {
    if buf.remaining() < 8 {
        return Err(GsnError::internal("malformed message: truncated i64"));
    }
    Ok(buf.get_i64())
}

fn get_f64(buf: &mut &[u8]) -> GsnResult<f64> {
    if buf.remaining() < 8 {
        return Err(GsnError::internal("malformed message: truncated f64"));
    }
    Ok(buf.get_f64())
}

fn get_string(buf: &mut &[u8]) -> GsnResult<String> {
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(GsnError::internal("malformed message: truncated string"));
    }
    let bytes = buf[..len].to_vec();
    buf.advance(len);
    String::from_utf8(bytes).map_err(|_| GsnError::internal("malformed message: invalid UTF-8"))
}

fn get_pairs(buf: &mut &[u8]) -> GsnResult<Vec<(String, String)>> {
    let n = get_u32(buf)? as usize;
    let mut pairs = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let k = get_string(buf)?;
        let v = get_string(buf)?;
        pairs.push((k, v));
    }
    Ok(pairs)
}

fn get_value(buf: &mut &[u8]) -> GsnResult<Value> {
    let tag = get_u8(buf)?;
    Ok(match tag {
        VAL_NULL => Value::Null,
        VAL_INTEGER => Value::Integer(get_i64(buf)?),
        VAL_DOUBLE => Value::Double(get_f64(buf)?),
        VAL_VARCHAR => Value::Varchar(get_string(buf)?),
        VAL_BOOLEAN => Value::Boolean(get_u8(buf)? != 0),
        VAL_BINARY => {
            let len = get_u32(buf)? as usize;
            if buf.remaining() < len {
                return Err(GsnError::internal("malformed message: truncated binary"));
            }
            let bytes = buf[..len].to_vec();
            buf.advance(len);
            Value::binary(bytes)
        }
        VAL_TIMESTAMP => Value::Timestamp(Timestamp::from_millis(get_i64(buf)?)),
        other => {
            return Err(GsnError::internal(format!(
                "malformed message: unknown value tag {other}"
            )))
        }
    })
}

fn get_element(buf: &mut &[u8]) -> GsnResult<WireElement> {
    let n_fields = get_u32(buf)? as usize;
    let mut fields = Vec::with_capacity(n_fields.min(1024));
    for _ in 0..n_fields {
        let name = get_string(buf)?;
        let ty = gsn_types::DataType::parse(&get_string(buf)?)?;
        fields.push((name, ty));
    }
    let n_values = get_u32(buf)? as usize;
    let mut values = Vec::with_capacity(n_values.min(1024));
    for _ in 0..n_values {
        values.push(get_value(buf)?);
    }
    let timestamp = Timestamp::from_millis(get_i64(buf)?);
    let produced_at = if get_u8(buf)? == 1 {
        Some(Timestamp::from_millis(get_i64(buf)?))
    } else {
        None
    };
    Ok(WireElement {
        fields,
        values,
        timestamp,
        produced_at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsn_types::DataType;

    fn sample_element() -> StreamElement {
        let schema = Arc::new(
            StreamSchema::from_pairs(&[
                ("temperature", DataType::Integer),
                ("room", DataType::Varchar),
                ("image", DataType::Binary),
                ("ok", DataType::Boolean),
                ("light", DataType::Double),
                ("seen", DataType::Timestamp),
                ("missing", DataType::Varchar),
            ])
            .unwrap(),
        );
        StreamElement::new(
            schema,
            vec![
                Value::Integer(21),
                Value::varchar("bc143"),
                Value::binary(vec![1, 2, 3, 4]),
                Value::Boolean(true),
                Value::Double(444.5),
                Value::Timestamp(Timestamp(99)),
                Value::Null,
            ],
            Timestamp(1_234),
        )
        .unwrap()
        .with_produced_at(Timestamp(1_200))
    }

    fn roundtrip(message: Message) {
        let bytes = encode(&message);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded, message);
    }

    #[test]
    fn all_message_kinds_round_trip() {
        roundtrip(Message::Subscribe {
            request: 5,
            subscriber: NodeId::new(9),
            sensor: "cam".into(),
        });
        roundtrip(Message::SubscribeAck {
            request: 5,
            accepted: false,
            reason: "access denied".into(),
        });
        roundtrip(Message::Unsubscribe {
            subscriber: NodeId::new(9),
            sensor: "cam".into(),
        });
        roundtrip(Message::Ping { request: 1 });
        roundtrip(Message::Pong { request: 1 });
        roundtrip(Message::QueryRequest {
            request: 42,
            sql: "select * from motes limit 10".into(),
            batch_rows: 128,
            prefetch: false,
            trace: None,
        });
        roundtrip(Message::QueryRequest {
            request: 44,
            sql: "select * from motes".into(),
            batch_rows: 64,
            prefetch: true,
            trace: Some(TraceContext {
                trace_id: (7u128 << 64) | 44,
                parent_span: SpanId(0x0007_0000_0000_0001),
            }),
        });
        roundtrip(Message::QueryNext {
            request: 42,
            cursor: 7,
            batch_rows: 64,
            expect_seq: 3,
            trace: None,
        });
        roundtrip(Message::QueryNext {
            request: 42,
            cursor: 7,
            batch_rows: 64,
            expect_seq: 4,
            trace: Some(TraceContext {
                trace_id: u128::MAX,
                parent_span: SpanId(u64::MAX),
            }),
        });
        roundtrip(Message::QueryBatch {
            request: 42,
            cursor: 7,
            columns: vec!["PK".into(), "TEMPERATURE".into()],
            rows: vec![
                vec![Value::Integer(1), Value::Double(21.5)],
                vec![Value::Integer(2), Value::Null],
            ],
            seq: 5,
            done: false,
            error: String::new(),
            server_micros: 0,
        });
        roundtrip(Message::QueryBatch {
            request: 43,
            cursor: 0,
            columns: Vec::new(),
            rows: Vec::new(),
            seq: 0,
            done: true,
            error: "unknown table `nosuch`".into(),
            server_micros: 1_375,
        });
        roundtrip(Message::StreamDelivery {
            sensor: "motes".into(),
            element: WireElement::from_element(&sample_element()),
        });
        roundtrip(Message::MetricsRequest {
            request: 9,
            from: NodeId::new(4),
        });
        roundtrip(Message::MetricsSnapshot {
            request: 9,
            node: NodeId::new(2),
            snapshot: MetricsSnapshot {
                metrics: vec![
                    MetricSample {
                        name: "gsn_steps_total".into(),
                        help: "Steps executed".into(),
                        unit: "steps".into(),
                        label_key: String::new(),
                        label: String::new(),
                        value: SampleValue::Counter(17),
                    },
                    MetricSample {
                        name: "gsn_pool_resident_pages".into(),
                        help: "Resident pages".into(),
                        unit: "pages".into(),
                        label_key: String::new(),
                        label: String::new(),
                        value: SampleValue::Gauge(-1),
                    },
                    MetricSample {
                        name: "gsn_step_micros".into(),
                        help: "Step latency".into(),
                        unit: "microseconds".into(),
                        label_key: "phase".into(),
                        label: "pipeline".into(),
                        value: SampleValue::Histogram(HistogramSummary {
                            count: 4,
                            sum: 100,
                            p50: 20,
                            p90: 40,
                            p99: 40,
                            max: 41,
                        }),
                    },
                ],
            },
        });
        roundtrip(Message::MetricsSnapshot {
            request: 10,
            node: NodeId::new(3),
            snapshot: MetricsSnapshot::default(),
        });
        roundtrip(Message::GossipDigest {
            from: NodeId::new(5),
            digest: vec![(NodeId::new(1), 17), (NodeId::new(2), 0)],
            health: Vec::new(),
            trace: None,
        });
        roundtrip(Message::GossipDigest {
            from: NodeId::new(5),
            digest: Vec::new(),
            health: vec![HealthSummary {
                node: 5,
                version: 31,
                subsystems: vec![
                    SubsystemHealth {
                        subsystem: "step".into(),
                        state: HealthState::Healthy,
                        reasons: Vec::new(),
                    },
                    SubsystemHealth {
                        subsystem: "storage".into(),
                        state: HealthState::Degraded,
                        reasons: vec!["wal fsync p99 80000us over budget 50000us".into()],
                    },
                ],
            }],
            trace: None,
        });
        roundtrip(Message::GossipDelta {
            from: NodeId::new(2),
            records: vec![
                ReplicaRecord {
                    node: NodeId::new(2),
                    sensor: "room-temp".into(),
                    metadata: vec![("type".into(), "temperature".into())],
                    version: 9,
                    origin: NodeId::new(2),
                    deleted: false,
                },
                ReplicaRecord {
                    node: NodeId::new(3),
                    sensor: "cam-0".into(),
                    metadata: Vec::new(),
                    version: 12,
                    origin: NodeId::new(1),
                    deleted: true,
                },
            ],
            digest: vec![(NodeId::new(2), 9)],
            health: Vec::new(),
            trace: None,
        });
        roundtrip(Message::GossipDelta {
            from: NodeId::new(2),
            records: Vec::new(),
            digest: Vec::new(),
            health: vec![
                HealthSummary {
                    node: 2,
                    version: 8,
                    subsystems: vec![SubsystemHealth {
                        subsystem: "federation".into(),
                        state: HealthState::Unhealthy,
                        reasons: vec!["retransmit ratio 412 per mille".into()],
                    }],
                },
                HealthSummary::default(),
            ],
            trace: Some(TraceContext {
                trace_id: 1,
                parent_span: SpanId(2),
            }),
        });
        roundtrip(Message::RingAnnounce {
            from: NodeId::new(1),
            epoch: 4,
            members: vec![NodeId::new(1), NodeId::new(2), NodeId::new(7)],
        });
        roundtrip(Message::PartialAggregateRequest {
            request: 81,
            sql: "select count(*) as a0_count, sum(temperature) as a0_sum from motes".into(),
            trace: None,
        });
        roundtrip(Message::PartialAggregateRequest {
            request: 83,
            sql: "select count(*) as a0_count from motes".into(),
            trace: Some(TraceContext {
                trace_id: (3u128 << 64) | 83,
                parent_span: SpanId(0x0003_0000_0000_0009),
            }),
        });
        roundtrip(Message::PartialAggregateReply {
            request: 81,
            columns: vec!["a0_count".into(), "a0_sum".into()],
            rows: vec![vec![Value::Integer(10), Value::Double(215.5)]],
            error: String::new(),
            server_micros: 912,
        });
        roundtrip(Message::PartialAggregateReply {
            request: 82,
            columns: Vec::new(),
            rows: Vec::new(),
            error: "unknown table `nosuch`".into(),
            server_micros: 0,
        });
        roundtrip(Message::TraceCollectRequest {
            request: 90,
            from: NodeId::new(1),
            trace_id: (1u128 << 64) | 42,
        });
        roundtrip(Message::TraceCollectReply {
            request: 90,
            node: NodeId::new(4),
            trace_id: (1u128 << 64) | 42,
            spans: vec![
                RemoteSpan {
                    node: 4,
                    trace_id: (1u128 << 64) | 42,
                    id: 0x0004_0000_0000_0002,
                    parent: 0x0001_0000_0000_0001,
                    name: "federated.serve".into(),
                    detail: "select avg(temperature) from mesh-temp".into(),
                    start_micros: 12_000,
                    duration_micros: 640,
                },
                RemoteSpan {
                    node: 4,
                    trace_id: (1u128 << 64) | 42,
                    id: 0x0004_0000_0000_0003,
                    parent: 0x0004_0000_0000_0002,
                    name: "query.exec".into(),
                    detail: String::new(),
                    start_micros: 12_100,
                    duration_micros: 500,
                },
            ],
        });
        roundtrip(Message::TraceCollectReply {
            request: 91,
            node: NodeId::new(5),
            trace_id: 7,
            spans: Vec::new(),
        });
    }

    #[test]
    fn wire_element_reconstructs_stream_element() {
        let original = sample_element();
        let wire = WireElement::from_element(&original);
        let bytes = encode(&Message::StreamDelivery {
            sensor: "s".into(),
            element: wire,
        });
        let decoded = decode(&bytes).unwrap();
        match decoded {
            Message::StreamDelivery { element, .. } => {
                let rebuilt = element.into_element().unwrap();
                assert_eq!(rebuilt.values(), original.values());
                assert_eq!(rebuilt.timestamp(), original.timestamp());
                assert_eq!(rebuilt.produced_at(), original.produced_at());
                assert_eq!(rebuilt.schema().names(), original.schema().names());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_malformed_input() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[255]).is_err());
        assert!(decode(&[TAG_PING]).is_err()); // truncated request id
                                               // Trailing garbage after a valid message.
        let mut bytes = encode(&Message::Ping { request: 1 }).to_vec();
        bytes.push(0);
        assert!(decode(&bytes).is_err());
        // Corrupted string length.
        let unsubscribe = encode(&Message::Unsubscribe {
            subscriber: NodeId::new(1),
            sensor: "x".into(),
        })
        .to_vec();
        let mut bytes = unsubscribe.clone();
        let len = bytes.len();
        bytes[len - 3] = 0xFF; // inflate the sensor-name length prefix
        assert!(decode(&bytes).is_err());
        // The retired tags 1–4 are rejected, even in front of a well-formed body.
        for tag in 1..=4u8 {
            let mut frame = unsubscribe.clone();
            frame[0] = tag;
            assert!(decode(&frame).is_err(), "retired tag {tag} decoded");
        }
    }

    #[test]
    fn untraced_frames_match_the_pre_extension_format() {
        // An untraced QueryRequest must be byte-identical to the legacy
        // encoding (no flags byte at all), so old peers still decode it.
        let bytes = encode(&Message::QueryRequest {
            request: 42,
            sql: "select 1".into(),
            batch_rows: 8,
            prefetch: true,
            trace: None,
        });
        let mut legacy = BytesMut::new();
        legacy.put_u8(TAG_QUERY_REQUEST);
        legacy.put_u64(42);
        put_string(&mut legacy, "select 1");
        legacy.put_u32(8);
        legacy.put_u8(1);
        assert_eq!(&bytes[..], &legacy[..]);
        // And a legacy frame (ending at the legacy fields) decodes here with
        // the extension defaults.
        match decode(&legacy).unwrap() {
            Message::QueryRequest { trace, .. } => assert_eq!(trace, None),
            other => panic!("unexpected {other:?}"),
        }
        // Same for a health-free gossip digest.
        let bytes = encode(&Message::GossipDigest {
            from: NodeId::new(5),
            digest: vec![(NodeId::new(1), 17)],
            health: Vec::new(),
            trace: None,
        });
        let mut legacy = BytesMut::new();
        legacy.put_u8(TAG_GOSSIP_DIGEST);
        legacy.put_u64(5);
        put_digest(&mut legacy, &[(NodeId::new(1), 17)]);
        assert_eq!(&bytes[..], &legacy[..]);
        // A zero server_micros QueryBatch also omits the extension block.
        let plain = encode(&Message::QueryBatch {
            request: 1,
            cursor: 2,
            columns: Vec::new(),
            rows: Vec::new(),
            seq: 0,
            done: true,
            error: String::new(),
            server_micros: 0,
        });
        let timed = encode(&Message::QueryBatch {
            request: 1,
            cursor: 2,
            columns: Vec::new(),
            rows: Vec::new(),
            seq: 0,
            done: true,
            error: String::new(),
            server_micros: 99,
        });
        assert_eq!(timed.len(), plain.len() + 9); // flags byte + u64
    }

    #[test]
    fn unknown_extension_flags_are_rejected() {
        let mut bytes = encode(&Message::QueryNext {
            request: 1,
            cursor: 2,
            batch_rows: 3,
            expect_seq: 4,
            trace: None,
        })
        .to_vec();
        bytes.push(0x80); // a flags byte with an unassigned bit set
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(Message::Ping { request: 0 }.kind(), "ping");
        assert_eq!(
            Message::StreamDelivery {
                sensor: "s".into(),
                element: WireElement::from_element(&sample_element())
            }
            .kind(),
            "stream-delivery"
        );
    }

    #[test]
    fn encoded_size_scales_with_payload() {
        let small = encode(&Message::StreamDelivery {
            sensor: "s".into(),
            element: WireElement {
                fields: vec![("image".into(), DataType::Binary)],
                values: vec![Value::binary(vec![0; 15])],
                timestamp: Timestamp(0),
                produced_at: None,
            },
        });
        let large = encode(&Message::StreamDelivery {
            sensor: "s".into(),
            element: WireElement {
                fields: vec![("image".into(), DataType::Binary)],
                values: vec![Value::binary(vec![0; 32 * 1024])],
                timestamp: Timestamp(0),
                produced_at: None,
            },
        });
        assert!(large.len() - small.len() >= 32 * 1024 - 15);
    }
}
