//! In-memory relations: the executor's row container.
//!
//! The GSN processing pipeline (paper, Section 3) materialises the windowed input streams
//! into *temporary relations*, evaluates the per-source queries over them and feeds the
//! results to the output query.  [`Relation`] is that temporary relation: a column layout
//! plus a vector of rows.

use std::fmt;
use std::sync::Arc;

use gsn_types::{DataType, GsnError, GsnResult, StreamElement, StreamSchema, Value};

/// Describes one output column of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnInfo {
    /// The relation/alias this column originated from, if any.
    pub qualifier: Option<String>,
    /// The column name (upper-cased, matching GSN's SQL convention).
    pub name: String,
    /// Best-known data type; `None` when the type can only be determined per-row
    /// (e.g. a column fed by NULL literals).
    pub data_type: Option<DataType>,
}

impl ColumnInfo {
    /// Creates a column description.
    pub fn new(qualifier: Option<&str>, name: &str, data_type: Option<DataType>) -> ColumnInfo {
        ColumnInfo {
            qualifier: qualifier.map(|q| q.to_ascii_lowercase()),
            name: name.to_ascii_uppercase(),
            data_type,
        }
    }

    /// True when this column is addressed by `qualifier`/`name` (qualifier optional).
    pub fn matches(&self, qualifier: Option<&str>, name: &str) -> bool {
        if !self.name.eq_ignore_ascii_case(name) {
            return false;
        }
        match qualifier {
            None => true,
            Some(q) => self
                .qualifier
                .as_deref()
                .map(|own| own.eq_ignore_ascii_case(q))
                .unwrap_or(false),
        }
    }
}

impl fmt::Display for ColumnInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// A materialised relation: column metadata plus rows of values.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    columns: Vec<ColumnInfo>,
    rows: Vec<Vec<Value>>,
}

impl Relation {
    /// Creates an empty relation with the given columns.
    pub fn new(columns: Vec<ColumnInfo>) -> Relation {
        Relation {
            columns,
            rows: Vec::new(),
        }
    }

    /// Creates a relation with columns and rows, validating row arity.
    pub fn with_rows(columns: Vec<ColumnInfo>, rows: Vec<Vec<Value>>) -> GsnResult<Relation> {
        for (i, row) in rows.iter().enumerate() {
            if row.len() != columns.len() {
                return Err(GsnError::sql_exec(format!(
                    "row {i} has {} values, expected {}",
                    row.len(),
                    columns.len()
                )));
            }
        }
        Ok(Relation { columns, rows })
    }

    /// A relation with a single row and no columns (the seed for FROM-less SELECTs).
    pub fn single_empty_row() -> Relation {
        Relation {
            columns: Vec::new(),
            rows: vec![Vec::new()],
        }
    }

    /// The columns of a stream's elements: the implicit `PK` and `TIMED` columns
    /// followed by the schema fields, qualified by `qualifier`.
    /// [`stream_row`](Self::stream_row) builds rows of this layout.
    pub fn stream_columns(qualifier: &str, schema: &StreamSchema) -> Vec<ColumnInfo> {
        let mut columns = vec![
            ColumnInfo::new(Some(qualifier), StreamSchema::PK, Some(DataType::Integer)),
            ColumnInfo::new(
                Some(qualifier),
                StreamSchema::TIMED,
                Some(DataType::Timestamp),
            ),
        ];
        for field in schema.fields() {
            columns.push(ColumnInfo::new(
                Some(qualifier),
                field.name.as_str(),
                Some(field.data_type),
            ));
        }
        columns
    }

    /// One stream element as a row of the [`stream_columns`](Self::stream_columns)
    /// layout: `PK`, `TIMED`, then the field values (moved, not copied).
    pub fn stream_row(element: StreamElement) -> Vec<Value> {
        let mut row = Vec::with_capacity(element.values().len() + 2);
        row.push(Value::Integer(element.sequence() as i64));
        row.push(Value::Timestamp(element.timestamp()));
        row.extend(element.into_values());
        row
    }

    /// Builds a relation from stream elements, exposing the implicit `PK` and `TIMED`
    /// columns in addition to the schema fields — exactly what GSN's window unnesting
    /// produces before the per-source query runs.
    pub fn from_stream_elements(
        qualifier: &str,
        schema: &StreamSchema,
        elements: &[StreamElement],
    ) -> Relation {
        Relation {
            columns: Relation::stream_columns(qualifier, schema),
            rows: elements.iter().cloned().map(Relation::stream_row).collect(),
        }
    }

    /// The column metadata.
    pub fn columns(&self) -> &[ColumnInfo] {
        &self.columns
    }

    /// The rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row, validating arity.
    pub fn push_row(&mut self, row: Vec<Value>) -> GsnResult<()> {
        if row.len() != self.columns.len() {
            return Err(GsnError::sql_exec(format!(
                "cannot append row with {} values to relation with {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        self.rows.push(row);
        Ok(())
    }

    /// Consumes the relation, returning its rows.
    pub fn into_rows(self) -> Vec<Vec<Value>> {
        self.rows
    }

    /// Finds the index of the column addressed by `qualifier`/`name`.
    ///
    /// Ambiguous unqualified references (two different source columns with the same name)
    /// are an error, mirroring standard SQL name resolution.
    pub fn resolve_column(&self, qualifier: Option<&str>, name: &str) -> GsnResult<usize> {
        let matches: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.matches(qualifier, name))
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            1 => Ok(matches[0]),
            0 => Err(GsnError::sql_exec(format!(
                "unknown column `{}{}`",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default(),
                name
            ))),
            _ => Err(GsnError::sql_exec(format!(
                "ambiguous column reference `{}`",
                name
            ))),
        }
    }

    /// Concatenates two relations column-wise for one joined row pair.
    pub fn joined_columns(left: &Relation, right: &Relation) -> Vec<ColumnInfo> {
        left.columns
            .iter()
            .chain(right.columns.iter())
            .cloned()
            .collect()
    }

    /// Converts the first row of the relation into a stream element bound to `schema`.
    ///
    /// This is the final step of the GSN pipeline: the output query's result becomes the
    /// virtual sensor's next output stream element.  Columns are matched to schema fields
    /// by name when possible, otherwise positionally (skipping the implicit columns).
    pub fn to_stream_element(
        &self,
        schema: &Arc<StreamSchema>,
        timestamp: gsn_types::Timestamp,
    ) -> GsnResult<Option<StreamElement>> {
        let Some(row) = self.rows.first() else {
            return Ok(None);
        };
        let mut values = Vec::with_capacity(schema.len());
        for (i, field) in schema.fields().enumerate() {
            // Prefer a column with the same name.
            let by_name = self
                .columns
                .iter()
                .position(|c| c.name.eq_ignore_ascii_case(field.name.as_str()));
            let idx = match by_name {
                Some(idx) => idx,
                None => {
                    // Fall back to position among non-implicit columns.
                    let non_implicit: Vec<usize> = self
                        .columns
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| {
                            !c.name.eq_ignore_ascii_case(StreamSchema::PK)
                                && !c.name.eq_ignore_ascii_case(StreamSchema::TIMED)
                        })
                        .map(|(i, _)| i)
                        .collect();
                    *non_implicit.get(i).ok_or_else(|| {
                        GsnError::sql_exec(format!(
                            "query result has no column for output field `{}`",
                            field.name
                        ))
                    })?
                }
            };
            values.push(row[idx].clone());
        }
        StreamElement::new(Arc::clone(schema), values, timestamp).map(Some)
    }

    /// Total size of the payload values in bytes (used by storage statistics).
    pub fn size_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.iter().map(Value::size_bytes).sum::<usize>())
            .sum()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self.columns.iter().map(|c| c.to_string()).collect();
        writeln!(f, "| {} |", headers.join(" | "))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "| {} |", cells.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsn_types::Timestamp;

    fn schema() -> StreamSchema {
        StreamSchema::from_pairs(&[
            ("temperature", DataType::Integer),
            ("room", DataType::Varchar),
        ])
        .unwrap()
    }

    fn sample_relation() -> Relation {
        Relation::with_rows(
            vec![
                ColumnInfo::new(Some("src1"), "temperature", Some(DataType::Integer)),
                ColumnInfo::new(Some("src1"), "room", Some(DataType::Varchar)),
            ],
            vec![
                vec![Value::Integer(20), Value::varchar("bc143")],
                vec![Value::Integer(25), Value::varchar("bc144")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn column_matching() {
        let c = ColumnInfo::new(Some("Src1"), "temp", Some(DataType::Integer));
        assert!(c.matches(None, "TEMP"));
        assert!(c.matches(Some("src1"), "temp"));
        assert!(!c.matches(Some("other"), "temp"));
        assert!(!c.matches(None, "light"));
        assert_eq!(c.to_string(), "src1.TEMP");
    }

    #[test]
    fn with_rows_validates_arity() {
        assert!(Relation::with_rows(
            vec![ColumnInfo::new(None, "a", None)],
            vec![vec![Value::Integer(1), Value::Integer(2)]],
        )
        .is_err());
    }

    #[test]
    fn resolve_column_handles_ambiguity() {
        let rel = Relation::new(vec![
            ColumnInfo::new(Some("a"), "x", None),
            ColumnInfo::new(Some("b"), "x", None),
            ColumnInfo::new(Some("b"), "y", None),
        ]);
        assert!(rel.resolve_column(None, "x").is_err());
        assert_eq!(rel.resolve_column(Some("a"), "x").unwrap(), 0);
        assert_eq!(rel.resolve_column(Some("b"), "x").unwrap(), 1);
        assert_eq!(rel.resolve_column(None, "y").unwrap(), 2);
        assert!(rel.resolve_column(None, "z").is_err());
    }

    #[test]
    fn from_stream_elements_exposes_implicit_columns() {
        let schema = Arc::new(schema());
        let elements = vec![
            StreamElement::new(
                schema.clone(),
                vec![Value::Integer(21), Value::varchar("bc143")],
                Timestamp(100),
            )
            .unwrap()
            .with_sequence(1),
            StreamElement::new(
                schema.clone(),
                vec![Value::Integer(22), Value::varchar("bc143")],
                Timestamp(200),
            )
            .unwrap()
            .with_sequence(2),
        ];
        let rel = Relation::from_stream_elements("wrapper", &schema, &elements);
        assert_eq!(rel.column_count(), 4);
        assert_eq!(rel.row_count(), 2);
        assert_eq!(rel.resolve_column(None, "PK").unwrap(), 0);
        assert_eq!(rel.resolve_column(Some("wrapper"), "TIMED").unwrap(), 1);
        assert_eq!(rel.rows()[0][0], Value::Integer(1));
        assert_eq!(rel.rows()[1][1], Value::Timestamp(Timestamp(200)));
        assert_eq!(rel.rows()[1][2], Value::Integer(22));
    }

    #[test]
    fn push_row_and_accessors() {
        let mut rel = sample_relation();
        assert_eq!(rel.row_count(), 2);
        assert_eq!(rel.column_count(), 2);
        assert!(!rel.is_empty());
        rel.push_row(vec![Value::Integer(30), Value::varchar("bc145")])
            .unwrap();
        assert_eq!(rel.row_count(), 3);
        assert!(rel.push_row(vec![Value::Integer(1)]).is_err());
        assert_eq!(rel.clone().into_rows().len(), 3);
    }

    #[test]
    fn to_stream_element_matches_by_name() {
        let rel = sample_relation();
        let out_schema = Arc::new(
            StreamSchema::from_pairs(&[
                ("room", DataType::Varchar),
                ("temperature", DataType::Double),
            ])
            .unwrap(),
        );
        let e = rel
            .to_stream_element(&out_schema, Timestamp(5))
            .unwrap()
            .unwrap();
        assert_eq!(e.value("ROOM"), Some(Value::varchar("bc143")));
        assert_eq!(e.value("TEMPERATURE"), Some(Value::Double(20.0)));
        assert_eq!(e.timestamp(), Timestamp(5));
    }

    #[test]
    fn to_stream_element_falls_back_to_position() {
        let rel = Relation::with_rows(
            vec![ColumnInfo::new(None, "AVG_1", Some(DataType::Double))],
            vec![vec![Value::Double(21.5)]],
        )
        .unwrap();
        let out_schema =
            Arc::new(StreamSchema::from_pairs(&[("temperature", DataType::Double)]).unwrap());
        let e = rel
            .to_stream_element(&out_schema, Timestamp(0))
            .unwrap()
            .unwrap();
        assert_eq!(e.value("TEMPERATURE"), Some(Value::Double(21.5)));
    }

    #[test]
    fn to_stream_element_empty_relation_is_none() {
        let rel = Relation::new(vec![ColumnInfo::new(None, "a", None)]);
        let out_schema = Arc::new(StreamSchema::from_pairs(&[("a", DataType::Integer)]).unwrap());
        assert!(rel
            .to_stream_element(&out_schema, Timestamp(0))
            .unwrap()
            .is_none());
    }

    #[test]
    fn to_stream_element_missing_column_errors() {
        let rel = Relation::with_rows(
            vec![ColumnInfo::new(None, "a", Some(DataType::Integer))],
            vec![vec![Value::Integer(1)]],
        )
        .unwrap();
        let out_schema = Arc::new(
            StreamSchema::from_pairs(&[("a", DataType::Integer), ("b", DataType::Integer)])
                .unwrap(),
        );
        assert!(rel.to_stream_element(&out_schema, Timestamp(0)).is_err());
    }

    #[test]
    fn display_renders_table() {
        let rel = sample_relation();
        let text = rel.to_string();
        assert!(text.contains("src1.TEMPERATURE"));
        assert!(text.contains("bc143"));
    }

    #[test]
    fn size_bytes_sums_values() {
        let rel = sample_relation();
        assert_eq!(rel.size_bytes(), 8 + 5 + 8 + 5);
    }

    #[test]
    fn single_empty_row_feeds_constant_queries() {
        let rel = Relation::single_empty_row();
        assert_eq!(rel.row_count(), 1);
        assert_eq!(rel.column_count(), 0);
    }
}
