//! Logical plan rewrites.
//!
//! The paper notes that using SQL lets GSN "directly apply SQL query optimization and
//! planning techniques" (Section 3).  The optimizer implements the rewrites that matter
//! for the stream workload: constant folding (descriptor queries are templated and often
//! contain constant arithmetic), predicate decomposition + pushdown below joins (client
//! queries in the Figure 4 experiment carry ~3 filtering predicates each), and removal of
//! trivially-true filters.

use gsn_types::{GsnResult, Value};

use crate::ast::{BinaryOp, Expr};
use crate::eval::{evaluate, RowContext};
use crate::plan::{JoinKind, LogicalPlan, ScanSpec};

/// Optimizer configuration, exposed so ablation benchmarks can toggle passes.
#[derive(Debug, Clone, Copy)]
pub struct OptimizerConfig {
    /// Fold constant sub-expressions.
    pub constant_folding: bool,
    /// Split conjunctive predicates and push them below joins / into scans.
    pub predicate_pushdown: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            constant_folding: true,
            predicate_pushdown: true,
        }
    }
}

/// Applies all enabled rewrites to a plan.
pub fn optimize(plan: LogicalPlan, config: &OptimizerConfig) -> GsnResult<LogicalPlan> {
    let mut plan = plan;
    if config.constant_folding {
        plan = fold_plan_constants(plan)?;
    }
    if config.predicate_pushdown {
        plan = pushdown_predicates(plan)?;
        plan = pushdown_limits(plan);
        pushdown_projections(&mut plan);
    }
    Ok(plan)
}

/// Applies the default optimisation pipeline.
pub fn optimize_default(plan: LogicalPlan) -> GsnResult<LogicalPlan> {
    optimize(plan, &OptimizerConfig::default())
}

// ---------------------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------------------

/// Folds constant sub-expressions in every expression position of the plan.
fn fold_plan_constants(plan: LogicalPlan) -> GsnResult<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(fold_plan_constants(*input)?),
            predicate: fold_expr(predicate),
        },
        LogicalPlan::Project {
            input,
            items,
            wildcards,
        } => LogicalPlan::Project {
            input: Box::new(fold_plan_constants(*input)?),
            items: items
                .into_iter()
                .map(|mut i| {
                    i.expr = fold_expr(i.expr);
                    i
                })
                .collect(),
            wildcards,
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            items,
            having,
        } => LogicalPlan::Aggregate {
            input: Box::new(fold_plan_constants(*input)?),
            group_by: group_by.into_iter().map(fold_expr).collect(),
            items: items
                .into_iter()
                .map(|mut i| {
                    i.expr = fold_expr(i.expr);
                    i
                })
                .collect(),
            having: having.map(fold_expr),
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => LogicalPlan::Join {
            left: Box::new(fold_plan_constants(*left)?),
            right: Box::new(fold_plan_constants(*right)?),
            kind,
            on: on.map(fold_expr),
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(fold_plan_constants(*input)?),
            keys,
        },
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => LogicalPlan::Limit {
            input: Box::new(fold_plan_constants(*input)?),
            limit,
            offset,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(fold_plan_constants(*input)?),
        },
        LogicalPlan::Derived { input, alias } => LogicalPlan::Derived {
            input: Box::new(fold_plan_constants(*input)?),
            alias,
        },
        LogicalPlan::SetOp {
            left,
            right,
            op,
            all,
        } => LogicalPlan::SetOp {
            left: Box::new(fold_plan_constants(*left)?),
            right: Box::new(fold_plan_constants(*right)?),
            op,
            all,
        },
        leaf @ (LogicalPlan::Scan { .. } | LogicalPlan::Empty) => leaf,
    })
}

/// Recursively folds constant sub-expressions of `expr`.
///
/// Folding is conservative: an expression is folded only when all of its inputs are
/// literals and evaluation succeeds; any error (division by zero, type mismatch) leaves
/// the expression unchanged so that runtime semantics — including errors — are preserved.
pub fn fold_expr(expr: Expr) -> Expr {
    // Fold the children first, then this node if it is constant (and not a subquery or
    // an aggregate).
    let expr = expr.map_children(fold_expr);
    if is_foldable_constant(&expr) {
        let ctx = RowContext::new(&[], &[]);
        if let Ok(v) = evaluate(&expr, &ctx) {
            return Expr::Literal(v);
        }
    }

    // Algebraic simplifications on boolean operators with one constant side.
    if let Expr::Binary { left, op, right } = &expr {
        match (op, left.as_ref(), right.as_ref()) {
            (BinaryOp::And, Expr::Literal(Value::Boolean(true)), other)
            | (BinaryOp::And, other, Expr::Literal(Value::Boolean(true)))
            | (BinaryOp::Or, Expr::Literal(Value::Boolean(false)), other)
            | (BinaryOp::Or, other, Expr::Literal(Value::Boolean(false))) => {
                return other.clone();
            }
            (BinaryOp::And, Expr::Literal(Value::Boolean(false)), _)
            | (BinaryOp::And, _, Expr::Literal(Value::Boolean(false))) => {
                return Expr::Literal(Value::Boolean(false));
            }
            (BinaryOp::Or, Expr::Literal(Value::Boolean(true)), _)
            | (BinaryOp::Or, _, Expr::Literal(Value::Boolean(true))) => {
                return Expr::Literal(Value::Boolean(true));
            }
            _ => {}
        }
    }
    expr
}

/// True when the expression consists solely of literals and deterministic operators.
fn is_foldable_constant(expr: &Expr) -> bool {
    match expr {
        Expr::Literal(_) => true,
        Expr::Column { .. }
        | Expr::InSubquery { .. }
        | Expr::Exists { .. }
        | Expr::ScalarSubquery(_) => false,
        Expr::Function { name, .. } if !crate::functions::is_scalar_function(name) => false,
        other => other.all_children(is_foldable_constant),
    }
}

// ---------------------------------------------------------------------------------------
// Predicate pushdown
// ---------------------------------------------------------------------------------------

/// Splits a predicate into its top-level conjuncts.
pub fn split_conjuncts(expr: &Expr) -> Vec<Expr> {
    match expr {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut out = split_conjuncts(left);
            out.extend(split_conjuncts(right));
            out
        }
        other => vec![other.clone()],
    }
}

/// Re-joins conjuncts into a single predicate.
pub fn join_conjuncts(mut conjuncts: Vec<Expr>) -> Option<Expr> {
    let first = if conjuncts.is_empty() {
        return None;
    } else {
        conjuncts.remove(0)
    };
    Some(
        conjuncts
            .into_iter()
            .fold(first, |acc, c| Expr::binary(acc, BinaryOp::And, c)),
    )
}

/// The set of relation aliases produced by a plan subtree.
fn produced_aliases(plan: &LogicalPlan, out: &mut Vec<String>) {
    match plan {
        LogicalPlan::Scan { alias, .. } | LogicalPlan::Derived { alias, .. } => {
            out.push(alias.to_ascii_lowercase());
        }
        _ => {
            for child in plan.children() {
                produced_aliases(child, out);
            }
        }
    }
}

/// True when every column referenced by `expr` can be resolved using only `aliases`.
///
/// Unqualified column references are conservatively treated as *not* pushable below a
/// join (they might refer to either side); inside a single-input subtree they are pushable.
fn references_only(expr: &Expr, aliases: &[String], allow_unqualified: bool) -> bool {
    expr.referenced_columns().iter().all(|(q, _)| match q {
        Some(q) => aliases.contains(&q.to_ascii_lowercase()),
        None => allow_unqualified,
    })
}

/// Pushes filter conjuncts as close to the scans as possible.
fn pushdown_predicates(plan: LogicalPlan) -> GsnResult<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = pushdown_predicates(*input)?;
            let conjuncts = split_conjuncts(&predicate);
            push_conjuncts_into(input, conjuncts)
        }
        LogicalPlan::Project {
            input,
            items,
            wildcards,
        } => LogicalPlan::Project {
            input: Box::new(pushdown_predicates(*input)?),
            items,
            wildcards,
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            items,
            having,
        } => LogicalPlan::Aggregate {
            input: Box::new(pushdown_predicates(*input)?),
            group_by,
            items,
            having,
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => LogicalPlan::Join {
            left: Box::new(pushdown_predicates(*left)?),
            right: Box::new(pushdown_predicates(*right)?),
            kind,
            on,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(pushdown_predicates(*input)?),
            keys,
        },
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => LogicalPlan::Limit {
            input: Box::new(pushdown_predicates(*input)?),
            limit,
            offset,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(pushdown_predicates(*input)?),
        },
        LogicalPlan::Derived { input, alias } => LogicalPlan::Derived {
            input: Box::new(pushdown_predicates(*input)?),
            alias,
        },
        LogicalPlan::SetOp {
            left,
            right,
            op,
            all,
        } => LogicalPlan::SetOp {
            left: Box::new(pushdown_predicates(*left)?),
            right: Box::new(pushdown_predicates(*right)?),
            op,
            all,
        },
        leaf @ (LogicalPlan::Scan { .. } | LogicalPlan::Empty) => leaf,
    })
}

/// Pushes a set of conjuncts into `plan`, returning the rewritten plan (with any conjuncts
/// that could not be pushed re-attached as a Filter on top).
fn push_conjuncts_into(plan: LogicalPlan, conjuncts: Vec<Expr>) -> LogicalPlan {
    // Drop literally-true conjuncts.
    let conjuncts: Vec<Expr> = conjuncts
        .into_iter()
        .filter(|c| !matches!(c, Expr::Literal(Value::Boolean(true))))
        .collect();
    if conjuncts.is_empty() {
        return plan;
    }
    match plan {
        // Only inner and cross joins admit pushdown of filter predicates; pushing below
        // the nullable side of an outer join would change semantics.
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } if kind != JoinKind::LeftOuter => {
            let mut left_aliases = Vec::new();
            let mut right_aliases = Vec::new();
            produced_aliases(&left, &mut left_aliases);
            produced_aliases(&right, &mut right_aliases);

            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut keep = Vec::new();
            for c in conjuncts {
                if references_only(&c, &left_aliases, false) {
                    to_left.push(c);
                } else if references_only(&c, &right_aliases, false) {
                    to_right.push(c);
                } else {
                    keep.push(c);
                }
            }
            let new_left = push_conjuncts_into(*left, to_left);
            let new_right = push_conjuncts_into(*right, to_right);
            let joined = LogicalPlan::Join {
                left: Box::new(new_left),
                right: Box::new(new_right),
                kind,
                on,
            };
            wrap_filter(joined, keep)
        }
        // A conjunct that reached a scan leaf references only that scan, so it
        // is absorbed into the scan's [`ScanSpec`]: sargable PK/TIMED
        // comparisons additionally tighten the range bounds, and *every*
        // absorbed conjunct stays in `residual` so the executor re-applies it
        // row-wise (storage bounds are superset-safe hints).  Subquery-bearing
        // conjuncts stay as Filter nodes — they need the executor's catalog.
        LogicalPlan::Scan {
            table,
            alias,
            mut spec,
        } => {
            let mut keep = Vec::new();
            for conjunct in conjuncts {
                if conjunct.contains_subquery() {
                    keep.push(conjunct);
                    continue;
                }
                spec.absorb_bound(&conjunct, &alias);
                spec.residual.push(conjunct);
            }
            wrap_filter(LogicalPlan::Scan { table, alias, spec }, keep)
        }
        other => wrap_filter(other, conjuncts),
    }
}

// ---------------------------------------------------------------------------------------
// Limit + projection pushdown into scans
// ---------------------------------------------------------------------------------------

/// Records a limit hint on scans directly below a `Limit` (optionally through a
/// row-preserving projection).  The `Limit` node stays as the authoritative
/// enforcement; the hint merely lets storage stop producing rows early when no
/// residual predicate can drop rows first.
fn pushdown_limits(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Limit {
            input,
            limit: Some(limit),
            offset,
        } => {
            let budget = limit.saturating_add(offset);
            let hint = |mut spec: ScanSpec| {
                spec.limit = Some(spec.limit.map_or(budget, |cur| cur.min(budget)));
                spec
            };
            let input = match pushdown_limits(*input) {
                LogicalPlan::Scan { table, alias, spec } => LogicalPlan::Scan {
                    table,
                    alias,
                    spec: hint(spec),
                },
                LogicalPlan::Project {
                    input: proj_input,
                    items,
                    wildcards,
                } => {
                    let proj_input = match *proj_input {
                        LogicalPlan::Scan { table, alias, spec } => LogicalPlan::Scan {
                            table,
                            alias,
                            spec: hint(spec),
                        },
                        other => other,
                    };
                    LogicalPlan::Project {
                        input: Box::new(proj_input),
                        items,
                        wildcards,
                    }
                }
                other => other,
            };
            LogicalPlan::Limit {
                input: Box::new(input),
                limit: Some(limit),
                offset,
            }
        }
        LogicalPlan::Limit {
            input,
            limit: None,
            offset,
        } => LogicalPlan::Limit {
            input: Box::new(pushdown_limits(*input)),
            limit: None,
            offset,
        },
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(pushdown_limits(*input)),
            predicate,
        },
        LogicalPlan::Project {
            input,
            items,
            wildcards,
        } => LogicalPlan::Project {
            input: Box::new(pushdown_limits(*input)),
            items,
            wildcards,
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            items,
            having,
        } => LogicalPlan::Aggregate {
            input: Box::new(pushdown_limits(*input)),
            group_by,
            items,
            having,
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => LogicalPlan::Join {
            left: Box::new(pushdown_limits(*left)),
            right: Box::new(pushdown_limits(*right)),
            kind,
            on,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(pushdown_limits(*input)),
            keys,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(pushdown_limits(*input)),
        },
        LogicalPlan::Derived { input, alias } => LogicalPlan::Derived {
            input: Box::new(pushdown_limits(*input)),
            alias,
        },
        LogicalPlan::SetOp {
            left,
            right,
            op,
            all,
        } => LogicalPlan::SetOp {
            left: Box::new(pushdown_limits(*left)),
            right: Box::new(pushdown_limits(*right)),
            op,
            all,
        },
        leaf @ (LogicalPlan::Scan { .. } | LogicalPlan::Empty) => leaf,
    }
}

/// Records on every scan the set of columns its query scope actually reads
/// (`None` when a covering wildcard needs them all), so the cursor layer can
/// skip materialising the rest.  Unqualified references conservatively count
/// against every scan in the scope; derived tables open a fresh scope.
fn pushdown_projections(plan: &mut LogicalPlan) {
    let mut columns: Vec<(Option<String>, String)> = Vec::new();
    let mut wildcards: Vec<Option<String>> = Vec::new();
    collect_scope_refs(plan, &mut columns, &mut wildcards);
    assign_scan_projections(plan, &columns, &wildcards);
}

/// Gathers every column reference and wildcard in the current query scope,
/// stopping at derived-table boundaries (their scans see only their own scope).
fn collect_scope_refs(
    plan: &LogicalPlan,
    columns: &mut Vec<(Option<String>, String)>,
    wildcards: &mut Vec<Option<String>>,
) {
    match plan {
        LogicalPlan::Scan { spec, .. } => {
            for conjunct in &spec.residual {
                columns.extend(conjunct.referenced_columns());
            }
        }
        LogicalPlan::Empty | LogicalPlan::Derived { .. } => {}
        LogicalPlan::Filter { input, predicate } => {
            columns.extend(predicate.referenced_columns());
            collect_scope_refs(input, columns, wildcards);
        }
        LogicalPlan::Project {
            input,
            items,
            wildcards: project_wildcards,
        } => {
            for item in items {
                columns.extend(item.expr.referenced_columns());
            }
            wildcards.extend(project_wildcards.iter().cloned());
            collect_scope_refs(input, columns, wildcards);
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            items,
            having,
        } => {
            for expr in group_by {
                columns.extend(expr.referenced_columns());
            }
            for item in items {
                columns.extend(item.expr.referenced_columns());
            }
            if let Some(having) = having {
                columns.extend(having.referenced_columns());
            }
            collect_scope_refs(input, columns, wildcards);
        }
        LogicalPlan::Join {
            left, right, on, ..
        } => {
            if let Some(on) = on {
                columns.extend(on.referenced_columns());
            }
            collect_scope_refs(left, columns, wildcards);
            collect_scope_refs(right, columns, wildcards);
        }
        LogicalPlan::Sort { input, keys } => {
            for key in keys {
                columns.extend(key.expr.referenced_columns());
            }
            collect_scope_refs(input, columns, wildcards);
        }
        LogicalPlan::Limit { input, .. } | LogicalPlan::Distinct { input } => {
            collect_scope_refs(input, columns, wildcards);
        }
        LogicalPlan::SetOp { left, right, .. } => {
            collect_scope_refs(left, columns, wildcards);
            collect_scope_refs(right, columns, wildcards);
        }
    }
}

/// Writes the needed-column set into each scan of the scope and recurses into
/// derived-table scopes.
fn assign_scan_projections(
    plan: &mut LogicalPlan,
    columns: &[(Option<String>, String)],
    wildcards: &[Option<String>],
) {
    match plan {
        LogicalPlan::Scan { alias, spec, .. } => {
            let covered = wildcards.iter().any(|w| match w {
                None => true,
                Some(q) => q.eq_ignore_ascii_case(alias),
            });
            if covered {
                spec.projection = None;
                return;
            }
            let mut needed: Vec<String> = Vec::new();
            for (qualifier, name) in columns {
                let applies = match qualifier {
                    Some(q) => q.eq_ignore_ascii_case(alias),
                    None => true,
                };
                if applies {
                    let name = name.to_ascii_lowercase();
                    if !needed.contains(&name) {
                        needed.push(name);
                    }
                }
            }
            needed.sort();
            spec.projection = Some(needed);
        }
        LogicalPlan::Derived { input, .. } => pushdown_projections(input),
        LogicalPlan::Empty => {}
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Distinct { input } => {
            assign_scan_projections(input, columns, wildcards);
        }
        LogicalPlan::Join { left, right, .. } | LogicalPlan::SetOp { left, right, .. } => {
            assign_scan_projections(left, columns, wildcards);
            assign_scan_projections(right, columns, wildcards);
        }
    }
}

fn wrap_filter(plan: LogicalPlan, conjuncts: Vec<Expr>) -> LogicalPlan {
    match join_conjuncts(conjuncts) {
        Some(predicate) => LogicalPlan::Filter {
            input: Box::new(plan),
            predicate,
        },
        None => plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expression, parse_query};
    use crate::plan::plan_query;

    fn optimized(sql: &str) -> LogicalPlan {
        optimize_default(plan_query(&parse_query(sql).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn folds_constant_arithmetic() {
        let e = fold_expr(parse_expression("1 + 2 * 3").unwrap());
        assert_eq!(e, Expr::Literal(Value::Integer(7)));
        let e = fold_expr(parse_expression("abs(-4) + 1").unwrap());
        assert_eq!(e, Expr::Literal(Value::Integer(5)));
        let e = fold_expr(parse_expression("upper('bc') like 'BC%'").unwrap());
        assert_eq!(e, Expr::Literal(Value::Boolean(true)));
    }

    #[test]
    fn folds_inside_non_constant_expressions() {
        let e = fold_expr(parse_expression("temperature > 10 * 2").unwrap());
        assert_eq!(e.to_string(), "(temperature > 20)");
        let e = fold_expr(parse_expression("temperature between 5 + 5 and 3 * 10").unwrap());
        assert_eq!(e.to_string(), "temperature BETWEEN 10 AND 30");
    }

    #[test]
    fn simplifies_boolean_identities() {
        let e = fold_expr(parse_expression("true and temperature > 1").unwrap());
        assert_eq!(e.to_string(), "(temperature > 1)");
        let e = fold_expr(parse_expression("temperature > 1 or false").unwrap());
        assert_eq!(e.to_string(), "(temperature > 1)");
        let e = fold_expr(parse_expression("temperature > 1 and false").unwrap());
        assert_eq!(e, Expr::Literal(Value::Boolean(false)));
        let e = fold_expr(parse_expression("temperature > 1 or true").unwrap());
        assert_eq!(e, Expr::Literal(Value::Boolean(true)));
    }

    #[test]
    fn folding_preserves_runtime_errors() {
        // 1/0 must stay unfolded so execution reports division by zero.
        let e = fold_expr(parse_expression("1 / 0").unwrap());
        assert_eq!(e.to_string(), "(1 / 0)");
    }

    #[test]
    fn does_not_fold_columns_or_aggregates() {
        let e = fold_expr(parse_expression("avg(temperature)").unwrap());
        assert!(matches!(e, Expr::Function { .. }));
        let e = fold_expr(parse_expression("temperature").unwrap());
        assert!(matches!(e, Expr::Column { .. }));
    }

    #[test]
    fn splits_and_rejoins_conjuncts() {
        let e = parse_expression("a = 1 and b = 2 and c like 'x%'").unwrap();
        let parts = split_conjuncts(&e);
        assert_eq!(parts.len(), 3);
        let rejoined = join_conjuncts(parts).unwrap();
        assert_eq!(
            rejoined.to_string(),
            "(((a = 1) AND (b = 2)) AND c LIKE 'x%')"
        );
        assert!(join_conjuncts(vec![]).is_none());
    }

    #[test]
    fn pushes_predicates_below_inner_join() {
        let p = optimized(
            "select * from motes m join cameras c on m.room = c.room \
             where m.temp > 20 and c.size > 1000 and m.id = c.id",
        );
        let explain = p.explain();
        // The single-side conjuncts are absorbed into their scans as residual
        // predicates; the cross-side conjunct stays as a Filter above the join.
        let join_line = explain.lines().position(|l| l.contains("Join")).unwrap();
        let m_scan = explain
            .lines()
            .position(|l| l.contains("Scan motes AS m") && l.contains("residual=(m.temp > 20)"))
            .expect("left conjunct absorbed");
        let c_scan = explain
            .lines()
            .position(|l| l.contains("Scan cameras AS c") && l.contains("residual=(c.size > 1000)"))
            .expect("right conjunct absorbed");
        let cross_filter = explain
            .lines()
            .position(|l| l.contains("Filter") && l.contains("(m.id = c.id)"))
            .expect("cross filter kept");
        assert!(m_scan > join_line);
        assert!(c_scan > join_line);
        assert!(cross_filter < join_line);
    }

    #[test]
    fn does_not_push_below_left_outer_join() {
        let p = optimized(
            "select * from motes m left join cameras c on m.room = c.room where c.size > 10",
        );
        let explain = p.explain();
        let join_line = explain.lines().position(|l| l.contains("Join")).unwrap();
        let filter_line = explain.lines().position(|l| l.contains("Filter")).unwrap();
        assert!(
            filter_line < join_line,
            "filter must stay above the outer join:\n{explain}"
        );
    }

    #[test]
    fn single_table_filters_are_absorbed_into_the_scan() {
        let p = optimized("select * from t where a > 1 and b > 2");
        let explain = p.explain();
        assert!(!explain.contains("Filter"), "{explain}");
        assert!(
            explain.contains("Scan t residual=(a > 1) AND (b > 2)"),
            "{explain}"
        );
        // All conjuncts live in the residual for the executor to re-apply.
        match find_scan(&p) {
            LogicalPlan::Scan { spec, .. } => assert_eq!(spec.residual.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn find_scan(plan: &LogicalPlan) -> &LogicalPlan {
        fn walk(plan: &LogicalPlan) -> Option<&LogicalPlan> {
            if matches!(plan, LogicalPlan::Scan { .. }) {
                return Some(plan);
            }
            plan.children().into_iter().find_map(walk)
        }
        walk(plan).expect("no scan in plan")
    }

    #[test]
    fn sargable_conjuncts_become_index_bounds() {
        let p = optimized("select * from t where pk >= 100 and pk <= 200 and v > 5");
        match find_scan(&p) {
            LogicalPlan::Scan { spec, .. } => {
                assert_eq!(spec.min_seq, Some(100));
                assert_eq!(spec.max_seq, Some(200));
                // Bounds stay in the residual too: storage may over-return.
                assert_eq!(spec.residual.len(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(p.explain_physical().contains("IndexRangeScan"));
        let p = optimized("select * from t where timed >= 5000 and timed < 9000");
        match find_scan(&p) {
            LogicalPlan::Scan { spec, .. } => {
                assert_eq!(spec.min_ts, Some(5_000));
                assert_eq!(spec.max_ts, Some(8_999));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn limits_hint_the_scan_through_projections() {
        let p = optimized("select v from t limit 10 offset 2");
        match find_scan(&p) {
            LogicalPlan::Scan { spec, .. } => assert_eq!(spec.limit, Some(12)),
            other => panic!("unexpected {other:?}"),
        }
        // A blocking operator between Limit and Scan suppresses the hint.
        let p = optimized("select v from t order by v limit 10");
        match find_scan(&p) {
            LogicalPlan::Scan { spec, .. } => assert_eq!(spec.limit, None),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scan_projection_tracks_referenced_columns() {
        let p = optimized("select a from t where b > 1 order by c");
        match find_scan(&p) {
            LogicalPlan::Scan { spec, .. } => {
                assert_eq!(
                    spec.projection.as_deref(),
                    Some(&["a".to_owned(), "b".to_owned(), "c".to_owned()][..])
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // Any covering wildcard keeps every column.
        let p = optimized("select * from t where b > 1");
        match find_scan(&p) {
            LogicalPlan::Scan { spec, .. } => assert_eq!(spec.projection, None),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn subquery_conjuncts_stay_as_filters() {
        let p = optimized("select * from t where a in (select x from u) and b > 1");
        let explain = p.explain();
        assert!(explain.contains("Filter"), "{explain}");
        match find_scan(&p) {
            LogicalPlan::Scan { spec, table, .. } if table == "t" => {
                assert_eq!(spec.residual.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trivially_true_filters_are_dropped() {
        let p = optimized("select * from t where 1 = 1");
        let explain = p.explain();
        assert!(!explain.contains("Filter"), "{explain}");
    }

    #[test]
    fn config_can_disable_passes() {
        let plan = plan_query(&parse_query("select * from t where 1 + 1 = 2").unwrap()).unwrap();
        let config = OptimizerConfig {
            constant_folding: false,
            predicate_pushdown: false,
        };
        let unopt = optimize(plan.clone(), &config).unwrap();
        assert_eq!(unopt, plan);
        let opt = optimize_default(plan).unwrap();
        assert!(!opt.explain().contains("Filter"));
    }
}
