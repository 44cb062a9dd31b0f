//! [`StreamElement`]: one timestamped tuple of a data stream.
//!
//! In GSN "a data stream is a sequence of timestamped tuples" (paper, Section 3).  The
//! stream element is the unit that wrappers emit, the input stream manager timestamps,
//! windows select over, SQL queries consume and the notification manager delivers.

use std::fmt;
use std::sync::Arc;

use crate::error::{GsnError, GsnResult};
use crate::schema::StreamSchema;
use crate::time::Timestamp;
use crate::value::Value;

/// A single timestamped tuple.
///
/// The schema is shared (`Arc`) between all elements of the same stream so that producing
/// an element is one small allocation for the value vector, not a schema clone.  The
/// element also carries an optional *production* timestamp distinct from the reception
/// timestamp — GSN explicitly supports multiple time attributes to make observation delays
/// visible rather than hiding them.
#[derive(Debug, Clone)]
pub struct StreamElement {
    schema: Arc<StreamSchema>,
    values: Vec<Value>,
    /// The element's primary timestamp (`TIMED`): reception time at the container unless
    /// the producer supplied its own.
    timestamp: Timestamp,
    /// The producer-side timestamp, when known (e.g. a mote's local clock).
    produced_at: Option<Timestamp>,
    /// Monotonically increasing id assigned by storage on insertion (`PK`), 0 until stored.
    sequence: u64,
}

impl StreamElement {
    /// Creates an element, coercing `values` to the schema's declared types.
    pub fn new(
        schema: Arc<StreamSchema>,
        values: Vec<Value>,
        timestamp: Timestamp,
    ) -> GsnResult<StreamElement> {
        let values = schema.coerce_row(&values)?;
        Ok(StreamElement {
            schema,
            values,
            timestamp,
            produced_at: None,
            sequence: 0,
        })
    }

    /// Creates an element without validating the row against the schema.
    ///
    /// Intended for the SQL executor and storage layer, which construct rows that are
    /// correct by construction; wrappers should use [`StreamElement::new`].
    pub fn new_unchecked(
        schema: Arc<StreamSchema>,
        values: Vec<Value>,
        timestamp: Timestamp,
    ) -> StreamElement {
        StreamElement {
            schema,
            values,
            timestamp,
            produced_at: None,
            sequence: 0,
        }
    }

    /// Sets the producer-side timestamp.
    pub fn with_produced_at(mut self, produced_at: Timestamp) -> StreamElement {
        self.produced_at = Some(produced_at);
        self
    }

    /// Sets the storage sequence number (`PK`).
    pub fn with_sequence(mut self, sequence: u64) -> StreamElement {
        self.sequence = sequence;
        self
    }

    /// Replaces the primary timestamp (used by the ISM when an element arrives without
    /// one, per processing step 1 of Section 3).
    pub fn with_timestamp(mut self, ts: Timestamp) -> StreamElement {
        self.timestamp = ts;
        self
    }

    /// The stream schema.
    pub fn schema(&self) -> &Arc<StreamSchema> {
        &self.schema
    }

    /// The field values in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consumes the element, returning its field values in schema order.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// The primary (`TIMED`) timestamp.
    pub fn timestamp(&self) -> Timestamp {
        self.timestamp
    }

    /// The producer-side timestamp, if the producer supplied one.
    pub fn produced_at(&self) -> Option<Timestamp> {
        self.produced_at
    }

    /// The storage sequence number (`PK`); 0 if the element has not been stored yet.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// Looks a value up by case-insensitive field name, including the implicit `TIMED` and
    /// `PK` attributes.
    pub fn value(&self, field: &str) -> Option<Value> {
        if field.eq_ignore_ascii_case(StreamSchema::TIMED) {
            return Some(Value::Timestamp(self.timestamp));
        }
        if field.eq_ignore_ascii_case(StreamSchema::PK) {
            return Some(Value::Integer(self.sequence as i64));
        }
        self.schema.index_of(field).map(|i| self.values[i].clone())
    }

    /// Looks a value up by position.
    pub fn value_at(&self, index: usize) -> Option<&Value> {
        self.values.get(index)
    }

    /// Total payload size in bytes (sum of field sizes plus the timestamp), the "stream
    /// element size" (SES) quantity of the paper's Figure 4 experiment.
    pub fn size_bytes(&self) -> usize {
        8 + self.values.iter().map(Value::size_bytes).sum::<usize>()
    }

    /// The observation latency — the difference between reception and production time —
    /// when both are known.  GSN exposes rather than hides this delay.
    pub fn observation_delay(&self) -> Option<crate::time::Duration> {
        self.produced_at.map(|p| self.timestamp - p)
    }

    /// Re-binds the element to a different (compatible) schema, coercing values.
    ///
    /// Used when a local wrapper's native structure is mapped onto the declared
    /// `<output-structure>` of the enclosing virtual sensor.
    pub fn rebind(&self, schema: Arc<StreamSchema>) -> GsnResult<StreamElement> {
        if self.values.len() != schema.len() {
            return Err(GsnError::type_error(format!(
                "cannot rebind element with {} values to schema with {} fields",
                self.values.len(),
                schema.len()
            )));
        }
        let values = schema.coerce_row(&self.values)?;
        Ok(StreamElement {
            schema,
            values,
            timestamp: self.timestamp,
            produced_at: self.produced_at,
            sequence: self.sequence,
        })
    }
}

impl fmt::Display for StreamElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{} {{", self.timestamp)?;
        for (i, (field, value)) in self.schema.fields().zip(&self.values).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}={}", field.name, value)?;
        }
        write!(f, "}}")
    }
}

impl PartialEq for StreamElement {
    fn eq(&self, other: &Self) -> bool {
        self.timestamp == other.timestamp
            && self.values == other.values
            && self.schema.as_ref() == other.schema.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn schema() -> Arc<StreamSchema> {
        Arc::new(
            StreamSchema::from_pairs(&[
                ("temperature", DataType::Integer),
                ("label", DataType::Varchar),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn new_coerces_values() {
        let e = StreamElement::new(
            schema(),
            vec![Value::Double(20.0), Value::Integer(7)],
            Timestamp(100),
        )
        .unwrap();
        assert_eq!(e.values()[0], Value::Integer(20));
        assert_eq!(e.values()[1], Value::varchar("7"));
        assert_eq!(e.timestamp(), Timestamp(100));
    }

    #[test]
    fn new_rejects_bad_rows() {
        assert!(StreamElement::new(schema(), vec![Value::Integer(1)], Timestamp(0)).is_err());
        assert!(StreamElement::new(
            schema(),
            vec![Value::varchar("warm"), Value::Null],
            Timestamp(0)
        )
        .is_err());
    }

    #[test]
    fn implicit_attributes_are_accessible() {
        let e = StreamElement::new(
            schema(),
            vec![Value::Integer(21), Value::varchar("bc143")],
            Timestamp(500),
        )
        .unwrap()
        .with_sequence(42);
        assert_eq!(e.value("TIMED"), Some(Value::Timestamp(Timestamp(500))));
        assert_eq!(e.value("timed"), Some(Value::Timestamp(Timestamp(500))));
        assert_eq!(e.value("PK"), Some(Value::Integer(42)));
        assert_eq!(e.value("TEMPERATURE"), Some(Value::Integer(21)));
        assert_eq!(e.value("label"), Some(Value::varchar("bc143")));
        assert_eq!(e.value("missing"), None);
        assert_eq!(e.value_at(0), Some(&Value::Integer(21)));
        assert_eq!(e.value_at(9), None);
    }

    #[test]
    fn size_accounts_for_payload() {
        let s = Arc::new(StreamSchema::from_pairs(&[("image", DataType::Binary)]).unwrap());
        let e = StreamElement::new(s, vec![Value::binary(vec![0u8; 1000])], Timestamp(0)).unwrap();
        assert_eq!(e.size_bytes(), 1008);
    }

    #[test]
    fn observation_delay_requires_produced_at() {
        let e = StreamElement::new(
            schema(),
            vec![Value::Integer(1), Value::varchar("x")],
            Timestamp(150),
        )
        .unwrap();
        assert_eq!(e.observation_delay(), None);
        let e = e.with_produced_at(Timestamp(100));
        assert_eq!(e.observation_delay(), Some(crate::time::Duration(50)));
        assert_eq!(e.produced_at(), Some(Timestamp(100)));
    }

    #[test]
    fn rebind_to_compatible_schema() {
        let e = StreamElement::new(
            schema(),
            vec![Value::Integer(21), Value::varchar("a")],
            Timestamp(0),
        )
        .unwrap();
        let wider = Arc::new(
            StreamSchema::from_pairs(&[
                ("temperature", DataType::Double),
                ("label", DataType::Varchar),
            ])
            .unwrap(),
        );
        let r = e.rebind(wider.clone()).unwrap();
        assert_eq!(r.values()[0], Value::Double(21.0));
        assert!(Arc::ptr_eq(r.schema(), &wider));

        let narrow = Arc::new(StreamSchema::from_pairs(&[("x", DataType::Integer)]).unwrap());
        assert!(e.rebind(narrow).is_err());
    }

    #[test]
    fn display_contains_fields_and_timestamp() {
        let e = StreamElement::new(
            schema(),
            vec![Value::Integer(5), Value::varchar("lab")],
            Timestamp(77),
        )
        .unwrap();
        let s = e.to_string();
        assert!(s.contains("77ms"));
        assert!(s.contains("TEMPERATURE=5"));
        assert!(s.contains("LABEL=lab"));
    }

    #[test]
    fn equality_ignores_sequence_and_produced_at() {
        let a = StreamElement::new(
            schema(),
            vec![Value::Integer(1), Value::varchar("x")],
            Timestamp(5),
        )
        .unwrap();
        let b = a.clone().with_sequence(99).with_produced_at(Timestamp(1));
        assert_eq!(a, b);
    }
}
