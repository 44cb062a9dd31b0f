//! Turning what a run measured into the printed report and the one-line JSON result.

use std::fmt::Write as _;

use crate::common::{Outcome, Params, Run};
use crate::json::quote;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats;
use crate::sys::{self, Fingerprint};

/// Fills the end-to-end metrics and the run's facts from what the timed phase measured.
pub fn fill_end_to_end(outcome: &mut Outcome, run: &Run, setup_s: f64) {
    let (el_p50, el_p99) = run.element_latency.p50_p99();
    let (q_p50, q_p99) = run.query_latency.p50_p99();
    let e = &mut outcome.end_to_end;
    e.insert("setup_s", setup_s);
    e.insert(
        "elements_per_s",
        stats::rate(run.elements, run.element_busy.seconds()),
    );
    e.insert("element_latency_p50_ms", el_p50);
    e.insert("element_latency_p99_ms", el_p99);
    e.insert(
        "queries_per_s",
        stats::rate(run.queries, run.query_busy.seconds()),
    );
    e.insert("query_latency_p50_ms", q_p50);
    e.insert("query_latency_p99_ms", q_p99);
    e.insert(
        "cpu_cores_used",
        run.cpu_seconds / run.run_seconds.max(1e-9),
    );
    e.insert("peak_rss_mib", sys::peak_rss_mib());

    outcome.fact("timed_seconds", format!("{:.3}", run.run_seconds));
    outcome.fact("steps", run.steps);
    outcome.fact("element_latency_samples", run.element_latency.len());
    outcome.fact("query_latency_samples", run.query_latency.len());
    outcome.fact("utilisation", format!("{:.4}", run.utilisation()));
    let cpu_per_busy = run.cpu_seconds / run.busy_seconds().max(1e-9);
    outcome.fact("cpu_per_busy", format!("{cpu_per_busy:.3}"));
    // The driver blocks while the program works, so busy wall time with less CPU than
    // wall means something else had the processor.
    outcome.noisy |= cpu_per_busy < 0.9;
}

fn metric_lines(
    out: &mut String,
    defs: &[MetricDef],
    values: &std::collections::BTreeMap<&'static str, f64>,
) {
    for def in defs {
        if let Some(v) = values.get(def.name) {
            let _ = writeln!(
                out,
                "  {:<44} {:>16.6} {:<6} ({} is better)",
                def.name,
                v,
                def.unit,
                def.better.as_str()
            );
        }
    }
}

/// The human-readable report of one run.
pub fn render(workload: &str, params: &Params, machine: &Fingerprint, outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {workload} ==");
    let _ = writeln!(
        out,
        "  seed {} | seconds {} | {}{}commit {} | nproc {} | kernel {} | cpu {}",
        params.seed,
        params.seconds,
        if params.quick {
            "QUICK (not a result) | "
        } else {
            ""
        },
        if params.trace { "traced | " } else { "" },
        machine.git_commit,
        machine.nproc,
        machine.kernel,
        machine.cpu_model
    );
    let _ = writeln!(
        out,
        "  input digest {:016x} | noisy {}",
        outcome.input_digest, outcome.noisy
    );
    for (k, v) in &outcome.facts {
        let _ = writeln!(out, "  {k}: {v}");
    }
    metric_lines(&mut out, END_TO_END, &outcome.end_to_end);
    metric_lines(&mut out, PER_LAYER, &outcome.per_layer);
    let _ = writeln!(
        out,
        "  ops_attempted {} | ops_failed {}",
        outcome.attempted, outcome.failed
    );
    for f in &outcome.failures {
        let _ = writeln!(out, "  FAILED: {f}");
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and every end-to-end metric, or
/// with `trace` every per-layer metric (zero where a workload does not exercise one).
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let (defs, values) = if trace {
        (PER_LAYER, &outcome.per_layer)
    } else {
        (END_TO_END, &outcome.end_to_end)
    };
    let metrics: Vec<String> = defs
        .iter()
        .map(|def| {
            let v = values.get(def.name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                quote(def.name),
                quote(def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn result_line_is_json_with_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.end_to_end.insert("setup_s", 1.25);
        outcome.per_layer.insert("core.step_us_p50", 7.5);
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let parsed = Json::parse(&result_line(&outcome, trace)).unwrap();
            let keys: Vec<&String> = parsed.as_object().unwrap().keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
            let metrics = parsed.get("metrics").and_then(Json::as_object).unwrap();
            assert_eq!(metrics.len(), defs.len());
            for def in defs {
                assert_eq!(
                    metrics[def.name].get("unit").and_then(Json::as_str),
                    Some(def.unit)
                );
            }
        }
        outcome.failed = 1;
        let parsed = Json::parse(&result_line(&outcome, false)).unwrap();
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(false));
    }
}
