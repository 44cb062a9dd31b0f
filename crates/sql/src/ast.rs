//! The SQL abstract syntax tree.
//!
//! The grammar covers the subset GSN descriptors use — single-table stream queries,
//! multi-way joins across temporary relations, aggregation, grouping, ordering, set
//! operations and uncorrelated subqueries — which matches the paper's claim of supporting
//! "joins, subqueries, ordering, grouping, unions, intersections" (Section 3).

use std::convert::Infallible;
use std::fmt;

use gsn_types::Value;

/// A full query: one or more SELECT bodies combined with set operators, plus an optional
/// trailing ORDER BY / LIMIT that applies to the combined result.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The first SELECT body.
    pub body: SelectBody,
    /// Chained set operations applied in order: `(op, ALL?, rhs)`.
    pub set_ops: Vec<(SetOperator, bool, SelectBody)>,
    /// ORDER BY keys applied to the final result.
    pub order_by: Vec<OrderByItem>,
    /// LIMIT row count.
    pub limit: Option<u64>,
    /// OFFSET row count.
    pub offset: Option<u64>,
}

impl Query {
    /// Every base table the query reads, lower-cased and without duplicates: the FROM
    /// and JOIN tables of every SELECT body, derived tables, and the bodies of IN, EXISTS
    /// and scalar subqueries in any clause.  This is the query's one table set: access
    /// checks, registered-query indexing, federated row-shipping and descriptor
    /// validation all read it, through
    /// [`PreparedQuery::referenced_tables`](crate::PreparedQuery::referenced_tables).
    pub fn tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out
    }

    fn collect_tables(&self, out: &mut Vec<String>) {
        let mut exprs: Vec<&Expr> = self.order_by.iter().map(|o| &o.expr).collect();
        for body in std::iter::once(&self.body).chain(self.set_ops.iter().map(|(_, _, b)| b)) {
            for item in &body.projection {
                if let SelectItem::Expr { expr, .. } = item {
                    exprs.push(expr);
                }
            }
            exprs.extend(
                body.selection
                    .iter()
                    .chain(&body.group_by)
                    .chain(&body.having),
            );
            for from in &body.from {
                for factor in
                    std::iter::once(&from.relation).chain(from.joins.iter().map(|j| &j.relation))
                {
                    match factor {
                        TableFactor::Table { name, .. } => {
                            let lowered = name.to_ascii_lowercase();
                            if !out.contains(&lowered) {
                                out.push(lowered);
                            }
                        }
                        TableFactor::Derived { subquery, .. } => subquery.collect_tables(out),
                    }
                }
                for join in &from.joins {
                    if let JoinOperator::Inner(on) | JoinOperator::LeftOuter(on) =
                        &join.join_operator
                    {
                        exprs.push(on);
                    }
                }
            }
        }
        for expr in exprs {
            expr.visit(&mut |e| match e {
                Expr::InSubquery { subquery, .. }
                | Expr::Exists { subquery, .. }
                | Expr::ScalarSubquery(subquery) => subquery.collect_tables(out),
                _ => {}
            });
        }
    }
}

/// Set operators combining SELECT bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOperator {
    /// `UNION` / `UNION ALL`
    Union,
    /// `INTERSECT`
    Intersect,
    /// `EXCEPT`
    Except,
}

impl fmt::Display for SetOperator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetOperator::Union => f.write_str("UNION"),
            SetOperator::Intersect => f.write_str("INTERSECT"),
            SetOperator::Except => f.write_str("EXCEPT"),
        }
    }
}

/// One SELECT ... FROM ... WHERE ... GROUP BY ... HAVING ... block.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectBody {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// The projection list.
    pub projection: Vec<SelectItem>,
    /// The FROM clause (empty for `SELECT 1`-style constant queries).
    pub from: Vec<TableWithJoins>,
    /// The WHERE predicate.
    pub selection: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
}

/// One item in a projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// An expression with an optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// `AS alias`, if given.
        alias: Option<String>,
    },
}

/// A FROM-clause entry: a base relation plus any number of joins.
#[derive(Debug, Clone, PartialEq)]
pub struct TableWithJoins {
    /// The leftmost relation.
    pub relation: TableFactor,
    /// Joins applied left-to-right.
    pub joins: Vec<Join>,
}

/// A base relation in a FROM clause.
#[derive(Debug, Clone, PartialEq)]
pub enum TableFactor {
    /// A named table / stream source (e.g. `WRAPPER`, `src1`, a virtual sensor name).
    Table {
        /// Table name as written.
        name: String,
        /// Optional alias.
        alias: Option<String>,
    },
    /// A parenthesised subquery with an alias (`(select ...) s`).
    Derived {
        /// The subquery.
        subquery: Box<Query>,
        /// The alias naming the derived relation.
        alias: String,
    },
}

impl TableFactor {
    /// The name this factor is referred to by in the rest of the query.
    pub fn binding_name(&self) -> &str {
        match self {
            TableFactor::Table { name, alias } => alias.as_deref().unwrap_or(name),
            TableFactor::Derived { alias, .. } => alias,
        }
    }
}

/// One JOIN clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// The right-hand relation.
    pub relation: TableFactor,
    /// The join kind and constraint.
    pub join_operator: JoinOperator,
}

/// Join kinds supported by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinOperator {
    /// `[INNER] JOIN ... ON expr`
    Inner(Expr),
    /// `LEFT [OUTER] JOIN ... ON expr`
    LeftOuter(Expr),
    /// `CROSS JOIN` (also produced by comma-separated FROM lists).
    Cross,
}

/// An ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    /// The sort expression.
    pub expr: Expr,
    /// Ascending (default) or descending.
    pub ascending: bool,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Multiply,
    /// `/`
    Divide,
    /// `%`
    Modulo,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Plus => "+",
            BinaryOp::Minus => "-",
            BinaryOp::Multiply => "*",
            BinaryOp::Divide => "/",
            BinaryOp::Modulo => "%",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// A scalar or boolean expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A column reference, optionally qualified with a table alias.
    Column {
        /// Table qualifier (`src1` in `src1.temperature`).
        qualifier: Option<String>,
        /// The column name.
        name: String,
    },
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        operand: Box<Expr>,
    },
    /// A binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// A function call — scalar or aggregate, resolved during planning.
    Function {
        /// The function name (stored upper-case).
        name: String,
        /// `COUNT(DISTINCT x)`-style distinct flag.
        distinct: bool,
        /// The arguments; `COUNT(*)` is represented with an empty argument list.
        args: Vec<Expr>,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// The tested expression.
        expr: Box<Expr>,
        /// The pattern expression.
        pattern: Box<Expr>,
        /// True for `NOT LIKE`.
        negated: bool,
    },
    /// `expr [NOT] IN (list...)`.
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// The candidate values.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] IN (subquery)`.
    InSubquery {
        /// The tested expression.
        expr: Box<Expr>,
        /// The (uncorrelated) subquery producing one column.
        subquery: Box<Query>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `[NOT] EXISTS (subquery)`.
    Exists {
        /// The (uncorrelated) subquery.
        subquery: Box<Query>,
        /// True for `NOT EXISTS`.
        negated: bool,
    },
    /// A scalar subquery producing exactly one row and column.
    ScalarSubquery(Box<Query>),
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// The tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `CASE [operand] WHEN ... THEN ... [ELSE ...] END`.
    Case {
        /// The optional operand of a simple CASE.
        operand: Option<Box<Expr>>,
        /// `(when, then)` arms.
        branches: Vec<(Expr, Expr)>,
        /// The ELSE expression.
        else_expr: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// The expression being cast.
        expr: Box<Expr>,
        /// Target type.
        data_type: gsn_types::DataType,
    },
}

/// Applies the fallible `$f` to every direct child of `$expr`, which is an `&Expr` or an
/// `&mut Expr`: the one list of an expression's children, shared by the by-reference walk
/// and the rewriter.
macro_rules! for_each_child {
    ($expr:expr, $f:ident) => {
        match $expr {
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::Exists { .. }
            | Expr::ScalarSubquery(_) => {}
            Expr::Unary { operand: e, .. }
            | Expr::IsNull { expr: e, .. }
            | Expr::InSubquery { expr: e, .. }
            | Expr::Cast { expr: e, .. } => $f(e)?,
            Expr::Binary {
                left: a, right: b, ..
            }
            | Expr::Like {
                expr: a,
                pattern: b,
                ..
            } => {
                $f(a)?;
                $f(b)?;
            }
            Expr::Function { args, .. } => {
                for arg in args {
                    $f(arg)?;
                }
            }
            Expr::InList { expr, list, .. } => {
                $f(expr)?;
                for item in list {
                    $f(item)?;
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                $f(expr)?;
                $f(low)?;
                $f(high)?;
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                if let Some(operand) = operand {
                    $f(operand)?;
                }
                for (when, then) in branches {
                    $f(when)?;
                    $f(then)?;
                }
                if let Some(else_expr) = else_expr {
                    $f(else_expr)?;
                }
            }
        }
    };
}

impl Expr {
    /// Convenience constructor for a bare column reference.
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.to_owned(),
        }
    }

    /// Convenience constructor for a qualified column reference.
    pub fn qcol(qualifier: &str, name: &str) -> Expr {
        Expr::Column {
            qualifier: Some(qualifier.to_owned()),
            name: name.to_owned(),
        }
    }

    /// Convenience constructor for a literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Convenience constructor for a binary expression.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// True when the expression contains an aggregate function call anywhere.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if let Expr::Function { name, .. } = e {
                if crate::aggregate::is_aggregate_function(name) {
                    found = true;
                }
            }
        });
        found
    }

    /// True when the expression contains a subquery form anywhere (`IN (select ...)`,
    /// `EXISTS`, scalar subqueries).  The incremental continuous-query executor cannot
    /// hold resident state for those — they re-read other tables — so plans containing
    /// them fall back to full re-evaluation.
    pub fn contains_subquery(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(
                e,
                Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_)
            ) {
                found = true;
            }
        });
        found
    }

    /// Visits this expression and all sub-expressions, pre-order.  Subquery bodies are
    /// not sub-expressions: they are whole queries, reached through [`Query::tables`].
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        self.all_children(|child| {
            child.visit(f);
            true
        });
    }

    /// True when `f` holds for every direct child, stopping at the first that fails.
    /// The children are those [`try_map_children`](Self::try_map_children) rewrites.
    pub fn all_children(&self, mut f: impl FnMut(&Expr) -> bool) -> bool {
        let mut check = |child: &Expr| f(child).then_some(());
        let mut walk = || -> Option<()> {
            for_each_child!(self, check);
            Some(())
        };
        walk().is_some()
    }

    /// Rebuilds this expression with `f` applied to each direct child, left to right,
    /// stopping at the first error.  Each child is rewritten in the `Box` or `Vec` slot
    /// it already occupies, so the rewrite allocates nothing beyond what `f` does.
    /// Subquery bodies are not children; the tested operand of `IN (subquery)` is.
    pub fn try_map_children<E>(
        mut self,
        mut f: impl FnMut(Expr) -> Result<Expr, E>,
    ) -> Result<Expr, E> {
        let mut map = |child: &mut Expr| -> Result<(), E> {
            *child = f(std::mem::replace(child, Expr::Literal(Value::Null)))?;
            Ok(())
        };
        for_each_child!(&mut self, map);
        Ok(self)
    }

    /// [`try_map_children`](Self::try_map_children) for a rewrite that cannot fail.
    pub fn map_children(self, mut f: impl FnMut(Expr) -> Expr) -> Expr {
        let Ok(expr) = self.try_map_children(|child| Ok::<_, Infallible>(f(child)));
        expr
    }

    /// Collects the (qualifier, name) pairs of every column referenced by the expression.
    pub fn referenced_columns(&self) -> Vec<(Option<String>, String)> {
        let mut cols = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Column { qualifier, name } = e {
                cols.push((qualifier.clone(), name.clone()));
            }
        });
        cols
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => match v {
                Value::Varchar(s) => write!(f, "'{}'", s.replace('\'', "''")),
                other => write!(f, "{other}"),
            },
            Expr::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::Unary { op, operand } => match op {
                UnaryOp::Neg => write!(f, "-{operand}"),
                UnaryOp::Not => write!(f, "NOT {operand}"),
            },
            Expr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::Function {
                name,
                distinct,
                args,
            } => {
                write!(f, "{name}(")?;
                if *distinct {
                    write!(f, "DISTINCT ")?;
                }
                if args.is_empty() && crate::aggregate::is_aggregate_function(name) {
                    write!(f, "*")?;
                } else {
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                }
                write!(f, ")")
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "{expr} {}LIKE {pattern}",
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "{expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::InSubquery { expr, negated, .. } => write!(
                f,
                "{expr} {}IN (<subquery>)",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Exists { negated, .. } => {
                write!(
                    f,
                    "{}EXISTS (<subquery>)",
                    if *negated { "NOT " } else { "" }
                )
            }
            Expr::ScalarSubquery(_) => write!(f, "(<subquery>)"),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "{expr} {}BETWEEN {low} AND {high}",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                write!(f, "CASE")?;
                if let Some(op) = operand {
                    write!(f, " {op}")?;
                }
                for (w, t) in branches {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::Cast { expr, data_type } => write!(f, "CAST({expr} AS {data_type})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_builders() {
        let e = Expr::binary(Expr::col("a"), BinaryOp::Plus, Expr::lit(1i64));
        assert_eq!(e.to_string(), "(a + 1)");
        assert_eq!(Expr::qcol("t", "b").to_string(), "t.b");
        assert_eq!(Expr::lit("it's").to_string(), "'it''s'");
    }

    #[test]
    fn contains_aggregate_detects_nested() {
        let plain = Expr::binary(Expr::col("a"), BinaryOp::Plus, Expr::lit(1i64));
        assert!(!plain.contains_aggregate());
        let agg = Expr::binary(
            Expr::Function {
                name: "AVG".into(),
                distinct: false,
                args: vec![Expr::col("t")],
            },
            BinaryOp::Divide,
            Expr::lit(2i64),
        );
        assert!(agg.contains_aggregate());
        let scalar_fn = Expr::Function {
            name: "ABS".into(),
            distinct: false,
            args: vec![Expr::col("t")],
        };
        assert!(!scalar_fn.contains_aggregate());
    }

    #[test]
    fn query_tables_include_every_subquery() {
        let tables = |sql: &str| crate::parse_query(sql).unwrap().tables();
        assert_eq!(
            tables(
                "select a, (select max(b) from Scalar) from T \
                 join (select * from derived) d on d.x in (select x from on_in) \
                 where exists (select 1 from exists_t) \
                 union select 1 from u where 1 in (select y from T)"
            ),
            vec!["t", "derived", "u", "scalar", "exists_t", "on_in"]
        );
        assert_eq!(
            tables("select * from a join b on a.x = b.x cross join A where a.y in (1, 2)"),
            vec!["a", "b"]
        );
    }

    #[test]
    fn referenced_columns_walks_everything() {
        let e = Expr::Between {
            expr: Box::new(Expr::qcol("s", "temp")),
            low: Box::new(Expr::col("lo")),
            high: Box::new(Expr::binary(
                Expr::col("hi"),
                BinaryOp::Minus,
                Expr::lit(1i64),
            )),
            negated: false,
        };
        let cols = e.referenced_columns();
        assert_eq!(cols.len(), 3);
        assert_eq!(cols[0], (Some("s".into()), "temp".into()));
        assert_eq!(cols[1], (None, "lo".into()));
        assert_eq!(cols[2], (None, "hi".into()));
    }

    #[test]
    fn display_of_compound_expressions() {
        let case = Expr::Case {
            operand: None,
            branches: vec![(
                Expr::binary(Expr::col("x"), BinaryOp::Gt, Expr::lit(0i64)),
                Expr::lit("pos"),
            )],
            else_expr: Some(Box::new(Expr::lit("neg"))),
        };
        assert_eq!(
            case.to_string(),
            "CASE WHEN (x > 0) THEN 'pos' ELSE 'neg' END"
        );

        let isnull = Expr::IsNull {
            expr: Box::new(Expr::col("v")),
            negated: true,
        };
        assert_eq!(isnull.to_string(), "v IS NOT NULL");

        let inlist = Expr::InList {
            expr: Box::new(Expr::col("v")),
            list: vec![Expr::lit(1i64), Expr::lit(2i64)],
            negated: true,
        };
        assert_eq!(inlist.to_string(), "v NOT IN (1, 2)");

        let cast = Expr::Cast {
            expr: Box::new(Expr::col("v")),
            data_type: gsn_types::DataType::Double,
        };
        assert_eq!(cast.to_string(), "CAST(v AS double)");
    }

    #[test]
    fn table_factor_binding_name() {
        let t = TableFactor::Table {
            name: "wrapper".into(),
            alias: Some("w".into()),
        };
        assert_eq!(t.binding_name(), "w");
        let t = TableFactor::Table {
            name: "wrapper".into(),
            alias: None,
        };
        assert_eq!(t.binding_name(), "wrapper");
    }

    #[test]
    fn count_star_displays_star() {
        let e = Expr::Function {
            name: "COUNT".into(),
            distinct: false,
            args: vec![],
        };
        assert_eq!(e.to_string(), "COUNT(*)");
    }
}
