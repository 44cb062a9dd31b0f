//! Decoding never panics: every decoder that reads bytes from disk or from a peer —
//! `gsn_network::decode`, `codec::decode_row` and `codec::decode_schema` — returns `Ok` or
//! `Err` on arbitrary input and on damaged valid encodings (one byte flipped, tail cut
//! off), and every valid encoding round-trips.

use std::sync::Arc;

use gsn::network::{decode, encode, Message, ReplicaRecord, WireElement};
use gsn::telemetry::{
    HealthState, HealthSummary, MetricSample, MetricsSnapshot, RemoteSpan, SampleValue, SpanId,
    SubsystemHealth, TraceContext,
};
use gsn::types::{codec, DataType, NodeId, StreamElement, StreamSchema, Timestamp, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    (
        0u32..7,
        -1_000_000i64..1_000_000,
        -1e6f64..1e6,
        "[a-zé ]{0,8}",
    )
        .prop_map(|(variant, i, d, s)| match variant {
            0 => Value::Null,
            1 => Value::Integer(i),
            2 => Value::Double(d),
            3 => Value::varchar(s),
            4 => Value::Boolean(i % 2 == 0),
            5 => Value::binary(s.into_bytes()),
            _ => Value::Timestamp(Timestamp(i)),
        })
}

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u32..256, 0..96).prop_map(|v| v.into_iter().map(|b| b as u8).collect())
}

/// A row with a schema derived from its values (nulls get a varchar column).
fn row_of(values: Vec<Value>, at: i64, produced: Option<i64>) -> StreamElement {
    let pairs: Vec<(String, DataType)> = values
        .iter()
        .enumerate()
        .map(|(i, v)| (format!("c{i}"), v.data_type().unwrap_or(DataType::Varchar)))
        .collect();
    let borrowed: Vec<(&str, DataType)> = pairs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = Arc::new(StreamSchema::from_pairs(&borrowed).unwrap());
    let element = StreamElement::new(schema, values, Timestamp(at))
        .unwrap()
        .with_sequence(at.unsigned_abs());
    match produced {
        Some(p) => element.with_produced_at(Timestamp(p)),
        None => element,
    }
}

/// One message of kind `kind % 18`, filled from the generated parts; `set` chooses
/// whether the optional fields (`trace`, `health`, `server_micros`) are present.
fn message_of(kind: u32, values: Vec<Value>, text: String, n: u64, set: bool) -> Message {
    let node = NodeId::new(n);
    let trace = set.then_some(TraceContext {
        trace_id: u128::from(n) << 64 | 1,
        parent_span: SpanId(n | 1),
    });
    let health = if set {
        vec![HealthSummary {
            node: n,
            version: n / 2,
            subsystems: vec![SubsystemHealth {
                subsystem: text.clone(),
                state: HealthState::from_u8(n as u8 % 3),
                reasons: vec![text.clone()],
            }],
        }]
    } else {
        Vec::new()
    };
    let server_micros = if set { n } else { 0 };
    let rows = vec![values.clone(), values.clone()];
    let columns: Vec<String> = (0..values.len()).map(|i| format!("{text}{i}")).collect();
    match kind % 18 {
        0 => Message::Subscribe {
            request: n,
            sensor: text,
        },
        1 => Message::SubscribeAck {
            request: n,
            accepted: set,
            reason: text,
        },
        2 => Message::Unsubscribe { sensor: text },
        3 => Message::StreamDelivery {
            sensor: text,
            element: WireElement::from_element(&row_of(values, n as i64, set.then_some(7))),
        },
        4 => Message::Ping { request: n },
        5 => Message::Pong { request: n },
        6 => Message::QueryRequest {
            request: n,
            sql: text,
            batch_rows: n as u32,
            trace,
        },
        7 => Message::QueryNext {
            request: n,
            cursor: n / 3,
            batch_rows: 64,
            expect_seq: n / 5,
            trace,
        },
        8 => Message::QueryBatch {
            request: n,
            cursor: n / 3,
            columns,
            rows,
            seq: n / 7,
            done: set,
            error: text,
            server_micros,
        },
        9 => Message::MetricsRequest { request: n },
        10 => Message::MetricsSnapshot {
            request: n,
            snapshot: MetricsSnapshot {
                metrics: vec![MetricSample {
                    name: text.clone(),
                    help: text.clone(),
                    unit: text.clone(),
                    label_key: String::new(),
                    label: text,
                    value: if set {
                        SampleValue::Gauge(-(n as i64))
                    } else {
                        SampleValue::Counter(n)
                    },
                }],
            },
        },
        11 => Message::GossipDigest {
            digest: vec![(node, n)],
            health,
            trace,
        },
        12 => Message::GossipDelta {
            records: vec![ReplicaRecord {
                node,
                sensor: text.clone(),
                metadata: vec![(text.clone(), text)],
                version: n,
                origin: node,
                deleted: set,
            }],
            digest: Vec::new(),
            health,
            trace,
        },
        13 => Message::RingAnnounce {
            epoch: n,
            members: vec![node, NodeId::new(n / 2)],
        },
        14 => Message::PartialAggregateRequest {
            request: n,
            sql: text,
            trace,
        },
        15 => Message::PartialAggregateReply {
            request: n,
            columns,
            rows,
            error: text,
            server_micros,
        },
        16 => Message::TraceCollectRequest {
            request: n,
            trace_id: u128::from(n),
        },
        _ => Message::TraceCollectReply {
            request: n,
            spans: vec![RemoteSpan {
                node: n,
                trace_id: u128::from(n),
                id: n,
                parent: n / 2,
                name: text.clone(),
                detail: text,
                start_micros: n,
                duration_micros: n / 3,
            }],
        },
    }
}

/// Copies of `bytes` with the byte at `at` xor-ed by `mask` (non-zero) and with the tail
/// cut at `at`.
fn damaged(bytes: &[u8], at: usize, mask: u8) -> [Vec<u8>; 2] {
    let at = at % bytes.len().max(1);
    let mut flipped = bytes.to_vec();
    if let Some(b) = flipped.get_mut(at) {
        *b ^= mask;
    }
    [flipped, bytes[..at].to_vec()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(bytes in arb_bytes(), tag in 5u32..23) {
        let schema = Arc::new(
            StreamSchema::from_pairs(&[("v", DataType::Integer), ("s", DataType::Varchar)])
                .unwrap(),
        );
        let _ = decode(&bytes);
        // Behind a valid message tag, the bytes reach the field decoders.
        let tagged: Vec<u8> = std::iter::once(tag as u8).chain(bytes.iter().copied()).collect();
        let _ = decode(&tagged);
        let _ = codec::decode_row(&mut bytes.as_slice(), &schema);
        let _ = codec::decode_schema(&mut bytes.as_slice());
    }

    #[test]
    fn messages_round_trip_and_damage_never_panics(
        kind in 0u32..18,
        values in prop::collection::vec(arb_value(), 0..5),
        text in "[a-zé]{0,6}",
        n in 0u64..1_000_000,
        set in prop::bool::ANY,
        at in 0usize..4096,
        mask in 1u32..256,
    ) {
        let message = message_of(kind, values, text, n, set);
        let bytes = encode(&message);
        prop_assert_eq!(decode(&bytes).unwrap(), message);
        for bad in damaged(&bytes, at, mask as u8) {
            let _ = decode(&bad);
        }
    }

    #[test]
    fn rows_and_schemas_round_trip_and_damage_never_panics(
        values in prop::collection::vec(arb_value(), 0..6),
        ts in -1_000_000i64..1_000_000,
        produced in prop::option::of(0i64..1_000_000),
        at in 0usize..4096,
        mask in 1u32..256,
    ) {
        let row = row_of(values, ts, produced);
        let schema = Arc::clone(row.schema());
        let bytes = codec::encode_row(&row);
        let mut cursor = bytes.as_slice();
        let decoded = codec::decode_row(&mut cursor, &schema).unwrap();
        prop_assert!(cursor.is_empty());
        prop_assert_eq!(decoded.values(), row.values());
        prop_assert_eq!(decoded.sequence(), row.sequence());
        prop_assert_eq!(decoded.produced_at(), row.produced_at());
        for bad in damaged(&bytes, at, mask as u8) {
            let _ = codec::decode_row(&mut bad.as_slice(), &schema);
        }

        let bytes = codec::encode_schema(&schema);
        let mut cursor = bytes.as_slice();
        prop_assert_eq!(&codec::decode_schema(&mut cursor).unwrap(), schema.as_ref());
        prop_assert!(cursor.is_empty());
        for bad in damaged(&bytes, at, mask as u8) {
            let _ = codec::decode_schema(&mut bad.as_slice());
        }
    }
}
