//! Inter-container messages and their wire encoding.
//!
//! GSN nodes "communicate among each other in a peer-to-peer fashion" (paper, Section 4):
//! they publish virtual sensors to a directory, subscribe to remote virtual sensors
//! (logical addressing through `wrapper="remote"`), and deliver stream elements to remote
//! subscribers.  The message set below covers that protocol.  Although the reproduction's
//! network is simulated in-process, messages are genuinely serialised to bytes and parsed
//! back so that the per-element cost of remote delivery (encoding + copying + decoding) is
//! exercised, as it would be over TCP.
//!
//! A frame is one tag byte followed by the variant's fields in declaration order, each
//! laid out by [`gsn_types::codec`] — the same little-endian primitives, value tags and
//! length prefixes as storage pages and the WAL.  There is no version or extension
//! block: every container of a mesh runs this codec and no frame is ever stored.  A frame
//! that is truncated, carries invalid UTF-8 or an unknown message, value or sample tag,
//! or has trailing bytes is rejected as a malformed message.

use gsn_telemetry::{
    HealthState, HealthSummary, HistogramSummary, MetricSample, MetricsSnapshot, RemoteSpan,
    SampleValue, SpanId, SubsystemHealth, TraceContext,
};
use gsn_types::codec::{self, read_i64, read_u32, read_u64, read_u8};
use gsn_types::{
    DataType, GsnError, GsnResult, NodeId, StreamElement, StreamSchema, Timestamp, Value,
};
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
        /// The distributed trace this query belongs to, if any.
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
        /// The distributed trace this pull belongs to, if any.
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
        /// Microseconds the server spent opening/executing for this batch.
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
        /// Per-node health summaries piggybacked on the round.
        health: Vec<HealthSummary>,
        /// The distributed trace this round belongs to, if any (normally `None` —
        /// gossip is background traffic).
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
        /// Per-node health summaries piggybacked on the round.
        health: Vec<HealthSummary>,
        /// The distributed trace this round belongs to, if any (normally `None`).
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
        /// The distributed trace this scatter belongs to, if any.
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
        /// Microseconds the server spent executing the partial.
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

/// A stream element flattened for the wire: field names, types and values travel together
/// so the receiver can reconstruct the schema without an out-of-band exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct WireElement {
    /// Field names in order.
    pub fields: Vec<(String, DataType)>,
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

/// Encodes a message to bytes.
pub fn encode(message: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    message.put(&mut out);
    out
}

/// Decodes a message from bytes.
pub fn decode(mut buf: &[u8]) -> GsnResult<Message> {
    Message::get(&mut buf)
        .and_then(|message| {
            if buf.is_empty() {
                Ok(message)
            } else {
                Err(GsnError::internal("trailing bytes"))
            }
        })
        .map_err(|e| GsnError::internal(format!("malformed message: {}", e.message())))
}

/// The wire layout of one type: `put` appends it, `get` reads it back and advances the
/// buffer.  Every implementation bottoms out in [`gsn_types::codec`].
trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(buf: &mut &[u8]) -> GsnResult<Self>;
}

macro_rules! wire_int {
    ($($ty:ty => $read:ident),*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(buf: &mut &[u8]) -> GsnResult<Self> {
                $read(buf, stringify!($ty))
            }
        }
    )*};
}

wire_int!(u8 => read_u8, u32 => read_u32, u64 => read_u64, i64 => read_i64);

impl Wire for u128 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get(buf: &mut &[u8]) -> GsnResult<Self> {
        let bytes = codec::take(buf, 16, "u128")?;
        Ok(u128::from_le_bytes(
            bytes.try_into().expect("took 16 bytes"),
        ))
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(buf: &mut &[u8]) -> GsnResult<Self> {
        Ok(read_u8(buf, "bool")? != 0)
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        codec::write_bytes(out, self.as_bytes());
    }
    fn get(buf: &mut &[u8]) -> GsnResult<Self> {
        codec::read_string(buf, "string")
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for item in self {
            item.put(out);
        }
    }
    fn get(buf: &mut &[u8]) -> GsnResult<Self> {
        codec::read_vec(buf, "count", T::get)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn get(buf: &mut &[u8]) -> GsnResult<Self> {
        match read_u8(buf, "option flag")? {
            0 => Ok(None),
            1 => Ok(Some(T::get(buf)?)),
            other => Err(GsnError::internal(format!("invalid option flag {other}"))),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(buf: &mut &[u8]) -> GsnResult<Self> {
        Ok((A::get(buf)?, B::get(buf)?))
    }
}

/// Newtypes that travel as their inner value.
macro_rules! wire_via {
    ($($ty:ident: $inner:ty = |$v:ident| $to:expr, $from:expr;)*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                let $v = self;
                $to.put(out);
            }
            fn get(buf: &mut &[u8]) -> GsnResult<Self> {
                Ok($from(<$inner>::get(buf)?))
            }
        }
    )*};
}

wire_via! {
    NodeId: u64 = |v| v.as_u64(), NodeId::new;
    SpanId: u64 = |v| v.0, SpanId;
    Timestamp: i64 = |v| v.as_millis(), Timestamp::from_millis;
    HealthState: u8 = |v| v.as_u8(), HealthState::from_u8;
}

impl Wire for DataType {
    fn put(&self, out: &mut Vec<u8>) {
        codec::write_bytes(out, self.canonical_name().as_bytes());
    }
    fn get(buf: &mut &[u8]) -> GsnResult<Self> {
        DataType::parse(&codec::read_string(buf, "type name")?)
    }
}

impl Wire for Value {
    fn put(&self, out: &mut Vec<u8>) {
        codec::encode_value(out, self);
    }
    fn get(buf: &mut &[u8]) -> GsnResult<Self> {
        codec::decode_value(buf)
    }
}

impl Wire for SampleValue {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            SampleValue::Counter(v) => {
                out.push(0);
                v.put(out);
            }
            SampleValue::Gauge(v) => {
                out.push(1);
                v.put(out);
            }
            SampleValue::Histogram(h) => {
                out.push(2);
                h.put(out);
            }
        }
    }
    fn get(buf: &mut &[u8]) -> GsnResult<Self> {
        Ok(match read_u8(buf, "sample tag")? {
            0 => SampleValue::Counter(u64::get(buf)?),
            1 => SampleValue::Gauge(i64::get(buf)?),
            2 => SampleValue::Histogram(HistogramSummary::get(buf)?),
            other => return Err(GsnError::internal(format!("unknown sample tag {other}"))),
        })
    }
}

/// Structs that travel as their fields, in the order listed.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }
            fn get(buf: &mut &[u8]) -> GsnResult<Self> {
                Ok($ty { $($field: Wire::get(buf)?),* })
            }
        }
    )*};
}

wire_struct! {
    WireElement { fields, values, timestamp, produced_at }
    ReplicaRecord { node, sensor, metadata, version, origin, deleted }
    TraceContext { trace_id, parent_span }
    MetricsSnapshot { metrics }
    MetricSample { name, help, unit, label_key, label, value }
    HistogramSummary { count, sum, p50, p90, p99, max }
    HealthSummary { node, version, subsystems }
    SubsystemHealth { subsystem, state, reasons }
    RemoteSpan { node, trace_id, id, parent, name, detail, start_micros, duration_micros }
}

/// The message table: each variant's tag, its [`Message::kind`] name and its fields in
/// wire order.
macro_rules! wire_messages {
    ($($tag:literal $kind:literal $variant:ident { $($field:ident),* })*) => {
        impl Message {
            /// A short tag naming the message type (for logs and statistics).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Message::$variant { .. } => $kind,)*
                }
            }
        }

        impl Wire for Message {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $(Message::$variant { $($field),* } => {
                        out.push($tag);
                        $($field.put(out);)*
                    })*
                }
            }
            fn get(buf: &mut &[u8]) -> GsnResult<Self> {
                Ok(match read_u8(buf, "message tag")? {
                    $($tag => Message::$variant { $($field: Wire::get(buf)?),* },)*
                    other => return Err(GsnError::internal(format!("unknown tag {other}"))),
                })
            }
        }
    };
}

// Tags 1–4 are retired (central-directory register/deregister/lookup/result).  Never
// reuse them: a frame carrying one must decode as an unknown tag, not as some other
// message.
wire_messages! {
    5 "subscribe" Subscribe { request, subscriber, sensor }
    6 "subscribe-ack" SubscribeAck { request, accepted, reason }
    7 "unsubscribe" Unsubscribe { subscriber, sensor }
    8 "stream-delivery" StreamDelivery { sensor, element }
    9 "ping" Ping { request }
    10 "pong" Pong { request }
    11 "query-request" QueryRequest { request, sql, batch_rows, prefetch, trace }
    12 "query-next" QueryNext { request, cursor, batch_rows, expect_seq, trace }
    13 "query-batch" QueryBatch { request, cursor, seq, columns, rows, done, error, server_micros }
    14 "metrics-request" MetricsRequest { request, from }
    15 "metrics-snapshot" MetricsSnapshot { request, node, snapshot }
    16 "gossip-digest" GossipDigest { from, digest, health, trace }
    17 "gossip-delta" GossipDelta { from, records, digest, health, trace }
    18 "ring-announce" RingAnnounce { from, epoch, members }
    19 "partial-aggregate-request" PartialAggregateRequest { request, sql, trace }
    20 "partial-aggregate-reply" PartialAggregateReply { request, columns, rows, error, server_micros }
    21 "trace-collect-request" TraceCollectRequest { request, from, trace_id }
    22 "trace-collect-reply" TraceCollectReply { request, node, trace_id, spans }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            from: NodeId::new(6),
            digest: vec![(NodeId::new(6), 3)],
            health: Vec::new(),
            trace: Some(TraceContext {
                trace_id: 9,
                parent_span: SpanId(10),
            }),
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
        let malformed = |bytes: &[u8]| match decode(bytes) {
            Err(GsnError::Internal(m)) => assert!(m.starts_with("malformed message"), "{m}"),
            other => panic!("expected a malformed-message error, got {other:?}"),
        };
        malformed(&[]);
        malformed(&[255]);
        malformed(&[9]); // a ping with its request id truncated
                         // Trailing garbage after a valid message.
        let mut bytes = encode(&Message::Ping { request: 1 });
        bytes.push(0);
        malformed(&bytes);
        // Corrupted string length.
        let unsubscribe = encode(&Message::Unsubscribe {
            subscriber: NodeId::new(1),
            sensor: "x".into(),
        });
        let mut bytes = unsubscribe.clone();
        let len = bytes.len();
        bytes[len - 3] = 0xFF; // inflate the sensor-name length prefix
        malformed(&bytes);
        // Invalid UTF-8 in a string.
        let mut bytes = unsubscribe.clone();
        *bytes.last_mut().unwrap() = 0xFF;
        malformed(&bytes);
        // The retired tags 1–4 are rejected, even in front of a well-formed body.
        for tag in 1..=4u8 {
            let mut frame = unsubscribe.clone();
            frame[0] = tag;
            malformed(&frame);
        }
        // An unknown value tag inside a result row.
        let batch = Message::PartialAggregateReply {
            request: 1,
            columns: Vec::new(),
            rows: vec![vec![Value::Null]],
            error: String::new(),
            server_micros: 0,
        };
        let mut bytes = encode(&batch);
        let null_at = bytes.len() - 4 - 8 - 1; // before the error string and micros
        assert_eq!(bytes[null_at], 0);
        bytes[null_at] = 200;
        malformed(&bytes);
        // An unknown metric-sample tag.
        let mut bytes = encode(&Message::MetricsSnapshot {
            request: 1,
            node: NodeId::new(2),
            snapshot: MetricsSnapshot {
                metrics: vec![MetricSample {
                    name: String::new(),
                    help: String::new(),
                    unit: String::new(),
                    label_key: String::new(),
                    label: String::new(),
                    value: SampleValue::Counter(3),
                }],
            },
        });
        let tag_at = bytes.len() - 9;
        bytes[tag_at] = 7;
        malformed(&bytes);
        // An option flag other than 0 or 1.
        let mut bytes = encode(&Message::QueryNext {
            request: 1,
            cursor: 2,
            batch_rows: 3,
            expect_seq: 4,
            trace: None,
        });
        *bytes.last_mut().unwrap() = 0x80;
        malformed(&bytes);
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
