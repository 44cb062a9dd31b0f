//! Dynamic values and the GSN field type system.
//!
//! Virtual sensor output structures declare their fields with a type
//! (`<field name="TEMPERATURE" type="integer"/>`).  Wrapper payloads, SQL expressions and
//! stream elements all carry values of these types.  The type lattice is deliberately
//! small — the original GSN used the JDBC type system; we keep the subset that the paper's
//! descriptors and experiments exercise: integers, doubles, strings, booleans, binary
//! payloads (camera images) and NULL.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::GsnError;
use crate::time::Timestamp;

/// The declared type of a stream field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (`integer`, `bigint`, `int` in descriptors).
    Integer,
    /// 64-bit IEEE float (`double`, `numeric`).
    Double,
    /// UTF-8 string (`varchar`, `string`).
    Varchar,
    /// Boolean (`boolean`, `bool`).
    Boolean,
    /// Opaque binary payload (`binary`, `blob`) — e.g. a camera frame.
    Binary,
    /// Millisecond timestamp (`timestamp`, `time`).
    Timestamp,
}

impl DataType {
    /// Parses a descriptor type name, case-insensitively.
    ///
    /// Unknown names produce an error so that a typo in a deployment descriptor is caught
    /// at deployment time, mirroring GSN's descriptor validation.
    pub fn parse(name: &str) -> Result<DataType, GsnError> {
        match name.trim().to_ascii_lowercase().as_str() {
            "integer" | "int" | "bigint" | "smallint" | "tinyint" => Ok(DataType::Integer),
            "double" | "numeric" | "float" | "real" | "decimal" => Ok(DataType::Double),
            "varchar" | "string" | "char" | "text" => Ok(DataType::Varchar),
            "boolean" | "bool" | "bit" => Ok(DataType::Boolean),
            "binary" | "blob" | "varbinary" | "image" => Ok(DataType::Binary),
            "timestamp" | "time" | "datetime" => Ok(DataType::Timestamp),
            other => Err(GsnError::descriptor(format!(
                "unknown field type `{other}`"
            ))),
        }
    }

    /// The canonical descriptor spelling of this type.
    pub fn canonical_name(self) -> &'static str {
        match self {
            DataType::Integer => "integer",
            DataType::Double => "double",
            DataType::Varchar => "varchar",
            DataType::Boolean => "boolean",
            DataType::Binary => "binary",
            DataType::Timestamp => "timestamp",
        }
    }

    /// True when values of this type are numeric (usable in arithmetic and AVG/SUM).
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            DataType::Integer | DataType::Double | DataType::Timestamp
        )
    }

    /// The common supertype two operand types promote to in arithmetic, if any.
    pub fn numeric_promotion(self, other: DataType) -> Option<DataType> {
        use DataType::*;
        match (self, other) {
            (Integer, Integer) => Some(Integer),
            (Timestamp, Timestamp) => Some(Integer),
            (Integer, Timestamp) | (Timestamp, Integer) => Some(Integer),
            (Double, d) | (d, Double) if d.is_numeric() => Some(Double),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.canonical_name())
    }
}

/// A dynamically typed value flowing through the middleware.
///
/// Binary payloads are reference counted so that a 75 KB camera frame fanned out to 500
/// subscribers is shared, not copied — the cost model of the paper's Figure 4 experiment
/// depends on the per-element processing, not on artificial copies.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// SQL NULL / missing reading.
    #[default]
    Null,
    /// 64-bit integer.
    Integer(i64),
    /// 64-bit float.
    Double(f64),
    /// UTF-8 string.
    Varchar(String),
    /// Boolean.
    Boolean(bool),
    /// Shared binary payload.
    Binary(Arc<Vec<u8>>),
    /// Millisecond timestamp.
    Timestamp(Timestamp),
}

impl Value {
    /// Builds a binary value from a byte vector.
    pub fn binary(bytes: Vec<u8>) -> Value {
        Value::Binary(Arc::new(bytes))
    }

    /// Builds a varchar value from anything string-like.
    pub fn varchar(s: impl Into<String>) -> Value {
        Value::Varchar(s.into())
    }

    /// True when the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The runtime type of the value, or `None` for NULL (which is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Integer(_) => Some(DataType::Integer),
            Value::Double(_) => Some(DataType::Double),
            Value::Varchar(_) => Some(DataType::Varchar),
            Value::Boolean(_) => Some(DataType::Boolean),
            Value::Binary(_) => Some(DataType::Binary),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// Interprets the value as an integer if possible (integers, timestamps, exact doubles,
    /// booleans).
    pub fn as_integer(&self) -> Option<i64> {
        match self {
            Value::Integer(i) => Some(*i),
            Value::Timestamp(t) => Some(t.as_millis()),
            Value::Double(d) if d.fract() == 0.0 && d.is_finite() => Some(*d as i64),
            Value::Boolean(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// Interprets the value as a float if it is numeric.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Integer(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            Value::Timestamp(t) => Some(t.as_millis() as f64),
            Value::Boolean(b) => Some(f64::from(u8::from(*b))),
            _ => None,
        }
    }

    /// Interprets the value as a boolean (SQL three-valued logic handled by callers).
    pub fn as_boolean(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            Value::Integer(i) => Some(*i != 0),
            _ => None,
        }
    }

    /// Borrows the value as a string slice if it is a varchar.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Varchar(s) => Some(s),
            _ => None,
        }
    }

    /// Borrows the value as binary bytes if it is a binary payload.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Binary(b) => Some(b),
            _ => None,
        }
    }

    /// Interprets the value as a timestamp (timestamps and integers).
    pub fn as_timestamp(&self) -> Option<Timestamp> {
        match self {
            Value::Timestamp(t) => Some(*t),
            Value::Integer(i) => Some(Timestamp::from_millis(*i)),
            _ => None,
        }
    }

    /// The wire/storage size of this value in bytes, used by storage statistics and the
    /// stream-element-size accounting of the Figure 3 / Figure 4 experiments.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Integer(_) | Value::Timestamp(_) | Value::Double(_) => 8,
            Value::Boolean(_) => 1,
            Value::Varchar(s) => s.len(),
            Value::Binary(b) => b.len(),
        }
    }

    /// Attempts to coerce the value to a declared field type.
    ///
    /// This is used when a wrapper's payload is bound to an `<output-structure>` field and
    /// when SQL inserts results into a typed temporary relation.  NULL coerces to every
    /// type.  Lossy or impossible coercions produce an error.
    pub fn coerce_to(&self, ty: DataType) -> Result<Value, GsnError> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        let fail = || {
            GsnError::type_error(format!(
                "cannot coerce {} value `{}` to {}",
                self.data_type()
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "null".into()),
                self,
                ty
            ))
        };
        match ty {
            DataType::Integer => self.as_integer().map(Value::Integer).ok_or_else(fail),
            DataType::Double => self.as_double().map(Value::Double).ok_or_else(fail),
            DataType::Boolean => self.as_boolean().map(Value::Boolean).ok_or_else(fail),
            DataType::Timestamp => self.as_timestamp().map(Value::Timestamp).ok_or_else(fail),
            DataType::Varchar => match self {
                Value::Varchar(_) => Ok(self.clone()),
                Value::Binary(_) => Err(fail()),
                other => Ok(Value::Varchar(other.to_string())),
            },
            DataType::Binary => match self {
                Value::Binary(_) => Ok(self.clone()),
                Value::Varchar(s) => Ok(Value::binary(s.clone().into_bytes())),
                _ => Err(fail()),
            },
        }
    }

    /// SQL comparison: returns `None` when either side is NULL or the values are not
    /// comparable (e.g. a string against a binary payload).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Varchar(a), Varchar(b)) => Some(a.cmp(b)),
            (Boolean(a), Boolean(b)) => Some(a.cmp(b)),
            (Binary(a), Binary(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_double()?, b.as_double()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// SQL equality (NULL never equals anything, including NULL).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }
}

impl PartialEq for Value {
    /// Structural equality used by tests and collections.  Unlike [`Value::sql_eq`], two
    /// NULLs compare equal here and numeric values of different types compare by value.
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Varchar(a), Varchar(b)) => a == b,
            (Boolean(a), Boolean(b)) => a == b,
            (Binary(a), Binary(b)) => a == b,
            (Integer(a), Integer(b)) => a == b,
            (Timestamp(a), Timestamp(b)) => a == b,
            (Double(a), Double(b)) => a == b || (a.is_nan() && b.is_nan()),
            (a, b) => match (a.as_double(), b.as_double()) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Integer(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Varchar(s) => f.write_str(s),
            Value::Boolean(b) => write!(f, "{b}"),
            Value::Binary(b) => write!(f, "<binary {} bytes>", b.len()),
            Value::Timestamp(t) => write!(f, "{}", t.as_millis()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Integer(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Integer(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Varchar(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Varchar(v)
    }
}
impl From<Timestamp> for Value {
    fn from(v: Timestamp) -> Self {
        Value::Timestamp(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::binary(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(inner) => inner.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datatype_parse_accepts_descriptor_names() {
        assert_eq!(DataType::parse("integer").unwrap(), DataType::Integer);
        assert_eq!(DataType::parse("INT").unwrap(), DataType::Integer);
        assert_eq!(DataType::parse("Double").unwrap(), DataType::Double);
        assert_eq!(DataType::parse("varchar").unwrap(), DataType::Varchar);
        assert_eq!(DataType::parse(" text ").unwrap(), DataType::Varchar);
        assert_eq!(DataType::parse("blob").unwrap(), DataType::Binary);
        assert_eq!(DataType::parse("timestamp").unwrap(), DataType::Timestamp);
        assert_eq!(DataType::parse("bool").unwrap(), DataType::Boolean);
        assert!(DataType::parse("complex").is_err());
    }

    #[test]
    fn datatype_canonical_name_round_trips() {
        for ty in [
            DataType::Integer,
            DataType::Double,
            DataType::Varchar,
            DataType::Boolean,
            DataType::Binary,
            DataType::Timestamp,
        ] {
            assert_eq!(DataType::parse(ty.canonical_name()).unwrap(), ty);
        }
    }

    #[test]
    fn numeric_promotion_rules() {
        assert_eq!(
            DataType::Integer.numeric_promotion(DataType::Integer),
            Some(DataType::Integer)
        );
        assert_eq!(
            DataType::Integer.numeric_promotion(DataType::Double),
            Some(DataType::Double)
        );
        assert_eq!(
            DataType::Timestamp.numeric_promotion(DataType::Integer),
            Some(DataType::Integer)
        );
        assert_eq!(DataType::Varchar.numeric_promotion(DataType::Integer), None);
        assert_eq!(DataType::Double.numeric_promotion(DataType::Binary), None);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Integer(4).as_integer(), Some(4));
        assert_eq!(Value::Double(4.0).as_integer(), Some(4));
        assert_eq!(Value::Double(4.5).as_integer(), None);
        assert_eq!(Value::Boolean(true).as_integer(), Some(1));
        assert_eq!(Value::Integer(3).as_double(), Some(3.0));
        assert_eq!(Value::varchar("x").as_str(), Some("x"));
        assert_eq!(Value::binary(vec![1, 2]).as_bytes(), Some(&[1u8, 2][..]));
        assert_eq!(
            Value::Integer(99).as_timestamp(),
            Some(Timestamp::from_millis(99))
        );
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.data_type(), None);
    }

    #[test]
    fn value_sizes_reflect_payloads() {
        assert_eq!(Value::Integer(1).size_bytes(), 8);
        assert_eq!(Value::varchar("abcd").size_bytes(), 4);
        assert_eq!(Value::binary(vec![0; 1024]).size_bytes(), 1024);
        assert_eq!(Value::Null.size_bytes(), 1);
        assert_eq!(Value::Boolean(true).size_bytes(), 1);
    }

    #[test]
    fn coercion_to_declared_types() {
        assert_eq!(
            Value::Double(3.0).coerce_to(DataType::Integer).unwrap(),
            Value::Integer(3)
        );
        assert_eq!(
            Value::Integer(3).coerce_to(DataType::Double).unwrap(),
            Value::Double(3.0)
        );
        assert_eq!(
            Value::Integer(1).coerce_to(DataType::Boolean).unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            Value::Integer(5).coerce_to(DataType::Varchar).unwrap(),
            Value::varchar("5")
        );
        assert_eq!(
            Value::Null.coerce_to(DataType::Binary).unwrap(),
            Value::Null
        );
        assert!(Value::varchar("abc").coerce_to(DataType::Integer).is_err());
        assert!(Value::binary(vec![1]).coerce_to(DataType::Double).is_err());
        assert!(Value::Double(2.5).coerce_to(DataType::Integer).is_err());
    }

    #[test]
    fn sql_comparison_semantics() {
        assert_eq!(
            Value::Integer(3).sql_cmp(&Value::Double(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Integer(2).sql_cmp(&Value::Integer(5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::varchar("a").sql_cmp(&Value::varchar("b")),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Null.sql_cmp(&Value::Integer(1)), None);
        assert_eq!(Value::Integer(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::varchar("1").sql_cmp(&Value::Integer(1)), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        assert_eq!(Value::Integer(1).sql_eq(&Value::Integer(1)), Some(true));
    }

    #[test]
    fn structural_equality_differs_from_sql_equality() {
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(Value::Integer(1), Value::Double(1.0));
        assert_eq!(Value::Double(f64::NAN), Value::Double(f64::NAN));
        assert_ne!(Value::varchar("1"), Value::Integer(1));
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Value::from(3i32), Value::Integer(3));
        assert_eq!(Value::from(3i64), Value::Integer(3));
        assert_eq!(Value::from(2.5), Value::Double(2.5));
        assert_eq!(Value::from("hi"), Value::varchar("hi"));
        assert_eq!(Value::from(true), Value::Boolean(true));
        assert_eq!(Value::from(Some(7i64)), Value::Integer(7));
        assert_eq!(Value::from(Option::<i64>::None), Value::Null);
        assert_eq!(Value::from(vec![1u8, 2]), Value::binary(vec![1, 2]));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Integer(-4).to_string(), "-4");
        assert_eq!(Value::varchar("x").to_string(), "x");
        assert_eq!(Value::binary(vec![0; 3]).to_string(), "<binary 3 bytes>");
    }

    #[test]
    fn binary_values_share_storage() {
        let v = Value::binary(vec![0u8; 4096]);
        let w = v.clone();
        match (&v, &w) {
            (Value::Binary(a), Value::Binary(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => unreachable!(),
        }
    }
}
