//! Stream schemas: the typed *output structure* of a virtual sensor.
//!
//! A deployment descriptor's `<output-structure>` element declares the fields a virtual
//! sensor produces.  The same structure is used for wrapper output formats and for the
//! relations the SQL engine materialises.

use std::fmt;

use crate::error::GsnError;
use crate::ident::FieldName;
use crate::value::{DataType, Value};

/// One declared field of a stream: a validated name plus a data type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSpec {
    /// The (case-insensitive, stored upper-case) field name.
    pub name: FieldName,
    /// Declared type.
    pub data_type: DataType,
    /// Free-text description carried from the descriptor (used by discovery metadata).
    pub description: Option<String>,
}

impl FieldSpec {
    /// Creates a field spec, validating the name.
    pub fn new(name: &str, data_type: DataType) -> Result<FieldSpec, GsnError> {
        Ok(FieldSpec {
            name: FieldName::new(name)?,
            data_type,
            description: None,
        })
    }

    /// Creates a field spec with a description.
    pub fn with_description(
        name: &str,
        data_type: DataType,
        description: impl Into<String>,
    ) -> Result<FieldSpec, GsnError> {
        Ok(FieldSpec {
            name: FieldName::new(name)?,
            data_type,
            description: Some(description.into()),
        })
    }
}

impl fmt::Display for FieldSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.data_type)
    }
}

/// An ordered collection of [`FieldSpec`]s with unique names.
///
/// GSN reserves two implicit attributes on every stream: `TIMED` (the tuple timestamp) and
/// `PK` (a monotonically increasing element id).  Those are **not** part of the schema; the
/// storage layer and SQL engine expose them as virtual columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StreamSchema {
    fields: Vec<FieldSpec>,
}

impl StreamSchema {
    /// The reserved name of the implicit timestamp attribute.
    pub const TIMED: &'static str = "TIMED";
    /// The reserved name of the implicit element-id attribute.
    pub const PK: &'static str = "PK";

    /// Creates an empty schema (used by control-only streams, e.g. RFID presence pings
    /// whose only information is the timestamp).
    pub fn empty() -> StreamSchema {
        StreamSchema { fields: Vec::new() }
    }

    /// Creates a schema from field specs, rejecting duplicate or reserved names.
    pub fn new(fields: Vec<FieldSpec>) -> Result<StreamSchema, GsnError> {
        let mut schema = StreamSchema::empty();
        for f in fields {
            schema.push(f)?;
        }
        Ok(schema)
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Result<StreamSchema, GsnError> {
        StreamSchema::new(
            pairs
                .iter()
                .map(|(n, t)| FieldSpec::new(n, *t))
                .collect::<Result<Vec<_>, _>>()?,
        )
    }

    /// Appends a field, rejecting duplicates and the reserved `TIMED`/`PK` names.
    pub fn push(&mut self, field: FieldSpec) -> Result<(), GsnError> {
        let upper = field.name.as_str();
        if upper == Self::TIMED || upper == Self::PK {
            return Err(GsnError::descriptor(format!(
                "field name `{upper}` is reserved for the implicit stream attributes"
            )));
        }
        if self.index_of(upper).is_some() {
            return Err(GsnError::descriptor(format!(
                "duplicate field `{upper}` in output structure"
            )));
        }
        self.fields.push(field);
        Ok(())
    }

    /// Number of declared fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no declared fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterates over the declared fields in order.
    pub fn fields(&self) -> impl Iterator<Item = &FieldSpec> {
        self.fields.iter()
    }

    /// Returns the position of a field by case-insensitive name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields
            .iter()
            .position(|f| f.name.as_str().eq_ignore_ascii_case(name))
    }

    /// Returns a field spec by case-insensitive name.
    pub fn field(&self, name: &str) -> Option<&FieldSpec> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// Returns the field spec at a position.
    pub fn field_at(&self, index: usize) -> Option<&FieldSpec> {
        self.fields.get(index)
    }

    /// The declared field names in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Validates a row of values against the schema, coercing each value to its declared
    /// type.  Used when a wrapper posts a reading and when SQL results are bound to an
    /// output structure.
    pub fn coerce_row(&self, values: &[Value]) -> Result<Vec<Value>, GsnError> {
        if values.len() != self.fields.len() {
            return Err(GsnError::type_error(format!(
                "row has {} values but schema `{}` declares {} fields",
                values.len(),
                self,
                self.fields.len()
            )));
        }
        values
            .iter()
            .zip(&self.fields)
            .map(|(v, f)| {
                v.coerce_to(f.data_type)
                    .map_err(|e| GsnError::type_error(format!("field {}: {}", f.name, e)))
            })
            .collect()
    }

    /// True when `other` produces rows that can be consumed anywhere this schema is
    /// expected: same field names in the same order, with types that coerce.
    pub fn is_compatible_with(&self, other: &StreamSchema) -> bool {
        self.len() == other.len()
            && self.fields.iter().zip(other.fields()).all(|(a, b)| {
                a.name == b.name
                    && (a.data_type == b.data_type
                        || (a.data_type.is_numeric() && b.data_type.is_numeric())
                        || a.data_type == DataType::Varchar)
            })
    }
}

impl fmt::Display for StreamSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temperature_schema() -> StreamSchema {
        StreamSchema::from_pairs(&[
            ("temperature", DataType::Integer),
            ("light", DataType::Double),
            ("label", DataType::Varchar),
        ])
        .unwrap()
    }

    #[test]
    fn schema_construction_and_lookup() {
        let s = temperature_schema();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.index_of("TEMPERATURE"), Some(0));
        assert_eq!(s.index_of("temperature"), Some(0));
        assert_eq!(s.index_of("Light"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.field("label").unwrap().data_type, DataType::Varchar);
        assert_eq!(s.field_at(0).unwrap().name.as_str(), "TEMPERATURE");
        assert_eq!(s.names(), vec!["TEMPERATURE", "LIGHT", "LABEL"]);
    }

    #[test]
    fn duplicate_fields_rejected() {
        let err = StreamSchema::from_pairs(&[("a", DataType::Integer), ("A", DataType::Double)])
            .unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn reserved_names_rejected() {
        for reserved in ["timed", "TIMED", "pk", "PK"] {
            let err = StreamSchema::from_pairs(&[(reserved, DataType::Integer)]).unwrap_err();
            assert!(err.to_string().contains("reserved"), "{reserved}");
        }
    }

    #[test]
    fn empty_schema_is_allowed() {
        let s = StreamSchema::empty();
        assert!(s.is_empty());
        assert_eq!(s.coerce_row(&[]).unwrap(), Vec::<Value>::new());
    }

    #[test]
    fn coerce_row_applies_declared_types() {
        let s = temperature_schema();
        let row = s
            .coerce_row(&[
                Value::Double(21.0),
                Value::Integer(500),
                Value::varchar("bc143"),
            ])
            .unwrap();
        assert_eq!(row[0], Value::Integer(21));
        assert_eq!(row[1], Value::Double(500.0));
        assert_eq!(row[2], Value::varchar("bc143"));
    }

    #[test]
    fn coerce_row_rejects_arity_mismatch() {
        let s = temperature_schema();
        assert!(s.coerce_row(&[Value::Integer(1)]).is_err());
    }

    #[test]
    fn coerce_row_reports_offending_field() {
        let s = temperature_schema();
        let err = s
            .coerce_row(&[Value::varchar("warm"), Value::Integer(1), Value::Null])
            .unwrap_err();
        assert!(err.to_string().contains("TEMPERATURE"), "{err}");
    }

    #[test]
    fn compatibility_allows_numeric_widening() {
        let ints = StreamSchema::from_pairs(&[("v", DataType::Integer)]).unwrap();
        let doubles = StreamSchema::from_pairs(&[("v", DataType::Double)]).unwrap();
        let strings = StreamSchema::from_pairs(&[("v", DataType::Varchar)]).unwrap();
        let other_name = StreamSchema::from_pairs(&[("w", DataType::Integer)]).unwrap();
        assert!(ints.is_compatible_with(&doubles));
        assert!(doubles.is_compatible_with(&ints));
        assert!(strings.is_compatible_with(&ints));
        assert!(!ints.is_compatible_with(&strings));
        assert!(!ints.is_compatible_with(&other_name));
    }

    #[test]
    fn display_lists_fields() {
        let s = temperature_schema();
        assert_eq!(
            s.to_string(),
            "(TEMPERATURE integer, LIGHT double, LABEL varchar)"
        );
    }

    #[test]
    fn field_with_description_is_preserved() {
        let f = FieldSpec::with_description("temp", DataType::Integer, "degrees C").unwrap();
        assert_eq!(f.description.as_deref(), Some("degrees C"));
        assert_eq!(f.to_string(), "TEMP integer");
    }
}
