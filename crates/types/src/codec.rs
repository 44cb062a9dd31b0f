//! The one binary layout of values, rows and schemas, for disk and wire alike.
//!
//! The page-based storage layer (`gsn-storage`) stores stream elements as flat byte
//! records inside fixed-size pages and in the write-ahead log, and `gsn-network` frames
//! every inter-container message with the same primitives.  This module defines that
//! layout in one place so that pages, the WAL, recovery and the wire all agree:
//!
//! * **primitives**: little-endian integers; strings and blobs as a `u32` length prefix
//!   followed by the bytes,
//! * **value**: one tag byte followed by a type-specific payload,
//! * **row**: sequence number, timestamps and the value vector of one [`StreamElement`]
//!   (the schema itself is *not* repeated per row — it is stored once in the table file
//!   header via [`encode_schema`]),
//! * **schema**: a `u32` count of `(name, canonical type name)` string pairs.
//!
//! The format is self-delimiting: every decode consumes exactly the bytes its encode
//! produced, so records can be packed back to back in a page without padding.  Decoding
//! is hardened for input read from disk or a peer: a truncated, corrupt or hostile
//! buffer yields a [`GsnError::Storage`], never a panic, and no count read from the
//! buffer can make a decoder reserve more elements than bytes remain ([`read_vec`]).

use std::sync::Arc;

use crate::element::StreamElement;
use crate::error::{GsnError, GsnResult};
use crate::schema::StreamSchema;
use crate::time::Timestamp;
use crate::value::{DataType, Value};

const TAG_NULL: u8 = 0;
const TAG_INTEGER: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_VARCHAR: u8 = 3;
const TAG_BOOLEAN_FALSE: u8 = 4;
const TAG_BOOLEAN_TRUE: u8 = 5;
const TAG_BINARY: u8 = 6;
const TAG_TIMESTAMP: u8 = 7;

fn truncated(what: &str) -> GsnError {
    GsnError::storage(format!("corrupt record: truncated {what}"))
}

/// Consumes the next `n` bytes of `buf`.
pub fn take<'a>(buf: &mut &'a [u8], n: usize, what: &str) -> GsnResult<&'a [u8]> {
    if buf.len() < n {
        return Err(truncated(what));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// Reads one byte.
pub fn read_u8(buf: &mut &[u8], what: &str) -> GsnResult<u8> {
    Ok(take(buf, 1, what)?[0])
}

/// Reads a little-endian `u32`.
pub fn read_u32(buf: &mut &[u8], what: &str) -> GsnResult<u32> {
    Ok(u32::from_le_bytes(take(buf, 4, what)?.try_into().unwrap()))
}

/// Reads a little-endian `u64`.
pub fn read_u64(buf: &mut &[u8], what: &str) -> GsnResult<u64> {
    Ok(u64::from_le_bytes(take(buf, 8, what)?.try_into().unwrap()))
}

/// Reads a little-endian `i64`.
pub fn read_i64(buf: &mut &[u8], what: &str) -> GsnResult<i64> {
    Ok(i64::from_le_bytes(take(buf, 8, what)?.try_into().unwrap()))
}

/// Appends `bytes` with its `u32` length prefix.
pub fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Reads a blob written by [`write_bytes`].
pub fn read_bytes<'a>(buf: &mut &'a [u8], what: &str) -> GsnResult<&'a [u8]> {
    let len = read_u32(buf, what)? as usize;
    take(buf, len, what)
}

/// Reads a string written by [`write_bytes`], rejecting invalid UTF-8.
pub fn read_string(buf: &mut &[u8], what: &str) -> GsnResult<String> {
    String::from_utf8(read_bytes(buf, what)?.to_vec())
        .map_err(|_| GsnError::storage(format!("corrupt record: invalid UTF-8 {what}")))
}

/// Reads a `u32` element count, then that many elements with `item`.
///
/// Every element takes at least one byte, so the pre-allocation is capped by the bytes
/// left in `buf`: a corrupt count fails on truncation instead of reserving memory.
pub fn read_vec<T>(
    buf: &mut &[u8],
    what: &str,
    mut item: impl FnMut(&mut &[u8]) -> GsnResult<T>,
) -> GsnResult<Vec<T>> {
    let count = read_u32(buf, what)? as usize;
    let mut out = Vec::with_capacity(count.min(buf.len()));
    for _ in 0..count {
        out.push(item(buf)?);
    }
    Ok(out)
}

/// Appends the binary encoding of one value to `out`.
pub fn encode_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Integer(i) => {
            out.push(TAG_INTEGER);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            out.push(TAG_DOUBLE);
            out.extend_from_slice(&d.to_bits().to_le_bytes());
        }
        Value::Varchar(s) => {
            out.push(TAG_VARCHAR);
            write_bytes(out, s.as_bytes());
        }
        Value::Boolean(b) => out.push(if *b {
            TAG_BOOLEAN_TRUE
        } else {
            TAG_BOOLEAN_FALSE
        }),
        Value::Binary(b) => {
            out.push(TAG_BINARY);
            write_bytes(out, b);
        }
        Value::Timestamp(t) => {
            out.push(TAG_TIMESTAMP);
            out.extend_from_slice(&t.as_millis().to_le_bytes());
        }
    }
}

/// Decodes one value, advancing `buf` past it.
pub fn decode_value(buf: &mut &[u8]) -> GsnResult<Value> {
    let tag = read_u8(buf, "value tag")?;
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_INTEGER => Value::Integer(read_i64(buf, "integer")?),
        TAG_DOUBLE => Value::Double(f64::from_bits(read_u64(buf, "double")?)),
        TAG_VARCHAR => Value::Varchar(read_string(buf, "varchar")?),
        TAG_BOOLEAN_FALSE => Value::Boolean(false),
        TAG_BOOLEAN_TRUE => Value::Boolean(true),
        TAG_BINARY => Value::binary(read_bytes(buf, "binary")?.to_vec()),
        TAG_TIMESTAMP => Value::Timestamp(Timestamp::from_millis(read_i64(buf, "timestamp")?)),
        other => {
            return Err(GsnError::storage(format!(
                "corrupt record: unknown value tag {other}"
            )))
        }
    })
}

/// Encodes the row portion of a stream element (sequence, timestamps, values).
///
/// The element's schema is intentionally not included; rows are decoded against the
/// table schema stored once in the file header ([`decode_row`]).
pub fn encode_row(element: &StreamElement) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + element.size_bytes());
    out.extend_from_slice(&element.sequence().to_le_bytes());
    out.extend_from_slice(&element.timestamp().as_millis().to_le_bytes());
    match element.produced_at() {
        Some(p) => {
            out.push(1);
            out.extend_from_slice(&p.as_millis().to_le_bytes());
        }
        None => out.push(0),
    }
    out.extend_from_slice(&(element.values().len() as u32).to_le_bytes());
    for value in element.values() {
        encode_value(&mut out, value);
    }
    out
}

/// Decodes one row against `schema`, advancing `buf` past it.
pub fn decode_row(buf: &mut &[u8], schema: &Arc<StreamSchema>) -> GsnResult<StreamElement> {
    let sequence = read_u64(buf, "sequence")?;
    let timestamp = Timestamp::from_millis(read_i64(buf, "row timestamp")?);
    let produced_at = match read_u8(buf, "produced-at flag")? {
        0 => None,
        1 => Some(Timestamp::from_millis(read_i64(buf, "produced-at")?)),
        other => {
            return Err(GsnError::storage(format!(
                "corrupt record: invalid produced-at flag {other}"
            )))
        }
    };
    let count = read_u32(buf, "value count")? as usize;
    if count != schema.len() {
        return Err(GsnError::storage(format!(
            "corrupt record: row has {count} values, table schema has {}",
            schema.len()
        )));
    }
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(decode_value(buf)?);
    }
    let mut element =
        StreamElement::new_unchecked(Arc::clone(schema), values, timestamp).with_sequence(sequence);
    if let Some(p) = produced_at {
        element = element.with_produced_at(p);
    }
    Ok(element)
}

/// Encodes a schema as length-prefixed `(name, canonical type name)` pairs.
pub fn encode_schema(schema: &StreamSchema) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(schema.len() as u32).to_le_bytes());
    for field in schema.fields() {
        write_bytes(&mut out, field.name.as_str().as_bytes());
        write_bytes(&mut out, field.data_type.canonical_name().as_bytes());
    }
    out
}

/// Decodes a schema written by [`encode_schema`], advancing `buf` past it.
pub fn decode_schema(buf: &mut &[u8]) -> GsnResult<StreamSchema> {
    let pairs = read_vec(buf, "schema field count", |buf| {
        let name = read_string(buf, "field name")?;
        let type_name = read_string(buf, "field type")?;
        Ok((name, DataType::parse(&type_name)?))
    })?;
    let borrowed: Vec<(&str, DataType)> = pairs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    StreamSchema::from_pairs(&borrowed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn schema() -> Arc<StreamSchema> {
        Arc::new(
            StreamSchema::from_pairs(&[
                ("temperature", DataType::Integer),
                ("room", DataType::Varchar),
                ("frame", DataType::Binary),
                ("ok", DataType::Boolean),
                ("light", DataType::Double),
                ("seen", DataType::Timestamp),
                ("missing", DataType::Varchar),
            ])
            .unwrap(),
        )
    }

    fn sample() -> StreamElement {
        StreamElement::new(
            schema(),
            vec![
                Value::Integer(-21),
                Value::varchar("bc143"),
                Value::binary(vec![0, 1, 2, 255]),
                Value::Boolean(true),
                Value::Double(444.5),
                Value::Timestamp(Timestamp(99)),
                Value::Null,
            ],
            Timestamp(1_234),
        )
        .unwrap()
        .with_sequence(77)
        .with_produced_at(Timestamp(1_200))
    }

    #[test]
    fn values_round_trip() {
        for value in [
            Value::Null,
            Value::Integer(i64::MIN),
            Value::Integer(i64::MAX),
            Value::Double(f64::NAN),
            Value::Double(-0.0),
            Value::varchar(""),
            Value::varchar("héllo wörld"),
            Value::Boolean(false),
            Value::Boolean(true),
            Value::binary(vec![]),
            Value::binary(vec![7; 10_000]),
            Value::Timestamp(Timestamp(i64::MAX)),
        ] {
            let mut out = Vec::new();
            encode_value(&mut out, &value);
            let mut cursor: &[u8] = &out;
            let decoded = decode_value(&mut cursor).unwrap();
            assert_eq!(decoded, value);
            assert!(cursor.is_empty(), "undrained bytes for {value:?}");
        }
    }

    #[test]
    fn rows_round_trip_with_metadata() {
        let element = sample();
        let bytes = encode_row(&element);
        let mut cursor: &[u8] = &bytes;
        let decoded = decode_row(&mut cursor, &schema()).unwrap();
        assert!(cursor.is_empty());
        assert_eq!(decoded, element);
        assert_eq!(decoded.sequence(), 77);
        assert_eq!(decoded.produced_at(), Some(Timestamp(1_200)));
        assert_eq!(decoded.observation_delay(), Some(Duration(34)));
    }

    #[test]
    fn rows_are_self_delimiting() {
        let a = sample();
        let b = sample().with_sequence(78);
        let mut bytes = encode_row(&a);
        bytes.extend_from_slice(&encode_row(&b));
        let mut cursor: &[u8] = &bytes;
        assert_eq!(decode_row(&mut cursor, &schema()).unwrap().sequence(), 77);
        assert_eq!(decode_row(&mut cursor, &schema()).unwrap().sequence(), 78);
        assert!(cursor.is_empty());
    }

    #[test]
    fn schema_round_trips() {
        let s = schema();
        let bytes = encode_schema(&s);
        let mut cursor: &[u8] = &bytes;
        let decoded = decode_schema(&mut cursor).unwrap();
        assert!(cursor.is_empty());
        assert_eq!(&decoded, s.as_ref());
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn disk_bytes_are_pinned() {
        // The on-disk layout of pages, heap headers and the WAL: these bytes must not
        // change, or existing data directories stop reading back.
        let element = sample();
        assert_eq!(
            hex(&encode_row(&element)),
            "4d00000000000000d20400000000000001b004000000000000070000\
             0001ebffffffffffffff030500000062633134330604000000000102ff\
             05020000000000c87b4007630000000000000000"
        );
        assert_eq!(
            hex(&encode_schema(element.schema())),
            "070000000b00000054454d504552415455524507000000696e746567\
             657204000000524f4f4d0700000076617263686172050000004652414d\
             450600000062696e617279020000004f4b07000000626f6f6c65616e05\
             0000004c4947485406000000646f75626c65040000005345454e090000\
             0074696d657374616d70070000004d495353494e470700000076617263\
             686172"
        );
    }

    #[test]
    fn corrupt_counts_fail_without_reserving_memory() {
        // A schema claiming u32::MAX fields in a 4-byte buffer must fail on truncation,
        // not try to reserve room for four billion fields.
        let mut cursor: &[u8] = &u32::MAX.to_le_bytes();
        let err = decode_schema(&mut cursor).unwrap_err();
        assert!(matches!(err, GsnError::Storage(_)), "{err:?}");
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicked() {
        // Truncations at every prefix length must error cleanly.
        let bytes = encode_row(&sample());
        for cut in 0..bytes.len() {
            let mut cursor = &bytes[..cut];
            assert!(decode_row(&mut cursor, &schema()).is_err(), "cut at {cut}");
        }
        // Unknown tag.
        let mut cursor: &[u8] = &[200];
        assert!(decode_value(&mut cursor).is_err());
        // Arity mismatch.
        let narrow = Arc::new(StreamSchema::from_pairs(&[("x", DataType::Integer)]).unwrap());
        let mut cursor: &[u8] = &bytes;
        assert!(decode_row(&mut cursor, &narrow).is_err());
    }
}
