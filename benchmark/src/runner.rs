//! The one command: runs the five workloads, each in a fresh child process of this
//! runner, collects their result lines, and with `--repeat` judges run-to-run spread
//! against the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use crate::sys::Fingerprint;

/// What the runner was asked to do.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    pub seconds: Option<f64>,
    pub quick: bool,
    /// Also run every workload traced, for the per-layer numbers.
    pub traced: bool,
    /// Number of full sets to run and compare.
    pub repeat: usize,
    pub out: PathBuf,
    /// Where the bounds live.
    pub benchmark_json: PathBuf,
}

/// One child's parsed result line.
#[derive(Debug, Clone)]
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl ChildResult {
    pub fn parse(line: &str) -> Result<ChildResult, String> {
        let v = Json::parse(line)?;
        let number = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result line lacks `{key}`"))
        };
        let metrics = v
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("result line lacks `metrics`")?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        Ok(ChildResult {
            correct: v
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("result line lacks `correct`")?,
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            metrics,
        })
    }
}

/// The regression bound of each end-to-end metric and the run length, from
/// `BENCHMARK.json`.
#[derive(Debug, Clone, Default)]
pub struct Contract {
    pub run_seconds: Option<f64>,
    pub bounds: BTreeMap<String, f64>,
}

impl Contract {
    pub fn read(path: &Path) -> Contract {
        let Ok(text) = std::fs::read_to_string(path) else {
            return Contract::default();
        };
        Contract::parse(&text).unwrap_or_default()
    }

    pub fn parse(text: &str) -> Result<Contract, String> {
        let v = Json::parse(text)?;
        let bounds = v
            .get("end_to_end")
            .and_then(Json::as_array)
            .ok_or("BENCHMARK.json lacks `end_to_end`")?
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_owned(),
                    m.get("bound")?.as_f64()?,
                ))
            })
            .collect();
        Ok(Contract {
            run_seconds: v.get("run_seconds").and_then(Json::as_f64),
            bounds,
        })
    }
}

/// Runs one workload in a fresh child process of this executable, echoes its report,
/// and returns its parsed result line.
fn run_child(
    workload: &str,
    plan: &Plan,
    seconds: f64,
    trace: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&plan.out);
    if plan.quick {
        command.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = command.output().map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = match stdout.trim_end().rsplit_once('\n') {
        Some((report, line)) => (report, line),
        None => ("", stdout.trim_end()),
    };
    println!("{report}");
    if !output.stderr.is_empty() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
    }
    let result = ChildResult::parse(line).map_err(|e| format!("{workload}: {e}"))?;
    if !output.status.success() || !result.correct {
        return Err(format!(
            "{workload}: {} of {} operations failed ({})",
            result.failed, result.attempted, output.status
        ));
    }
    Ok(result)
}

/// `values[workload][metric]` of one set of runs.
type Set = BTreeMap<&'static str, ChildResult>;

fn print_table(title: &str, defs: &[MetricDef], set: &Set) {
    println!("\n{title}");
    print!("{:<44}", "metric");
    for (w, _) in WORKLOADS {
        print!(" {w:>18}");
    }
    println!("  unit");
    for def in defs {
        print!("{:<44}", def.name);
        for (w, _) in WORKLOADS {
            match set.get(w).and_then(|r| r.metrics.get(def.name)) {
                Some(v) => print!(" {v:>18.4}"),
                None => print!(" {:>18}", "-"),
            }
        }
        println!("  {}", def.unit);
    }
}

/// How much worse `b` is than `a` for a metric of the given direction, as a share of
/// `a` (negative when better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Prints, per metric × workload, median, quartiles and the largest disagreement
/// between any two sets next to the bound; returns how many cells exceed their bound.
pub fn judge_repeats(sets: &[Set], contract: &Contract) -> usize {
    let mut violations = 0;
    println!("\n== agreement of {} sets ==", sets.len());
    println!(
        "{:<18} {:<26} {:>14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "q1", "median", "q3", "max_pair", "bound"
    );
    for (w, _) in WORKLOADS {
        for def in END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|s| s.get(w)?.metrics.get(def.name).copied())
                .collect();
            if values.len() < 2 {
                continue;
            }
            let [q1, q2, q3] = stats::quartiles(&values);
            // The worst any set looks against any other.
            let max_pair = values
                .iter()
                .flat_map(|a| values.iter().map(|b| worsening(def.better, *a, *b)))
                .fold(0.0f64, f64::max);
            let bound = contract.bounds.get(def.name).copied();
            let over = bound.is_some_and(|b| max_pair > b);
            violations += usize::from(over);
            println!(
                "{:<18} {:<26} {:>14.4} {:>14.4} {:>14.4} {:>9.4} {:>7} {}",
                w,
                def.name,
                q1,
                q2,
                q3,
                max_pair,
                bound
                    .map(|b| format!("{b:.2}"))
                    .unwrap_or_else(|| "-".to_owned()),
                if over { "EXCEEDS" } else { "" }
            );
        }
    }
    violations
}

/// Runs the plan; `Err` carries what went wrong for a non-zero exit.
pub fn run(plan: &Plan) -> Result<(), String> {
    let contract = Contract::read(&plan.benchmark_json);
    let seconds = plan.seconds.or(contract.run_seconds).unwrap_or(15.0);
    let machine = Fingerprint::read();
    println!(
        "gsn-benchmark | seed {} | {} s per workload | {}commit {} | nproc {} | kernel {} | cpu {}",
        plan.seed,
        seconds,
        if plan.quick {
            "QUICK (not a result) | "
        } else {
            ""
        },
        machine.git_commit,
        machine.nproc,
        machine.kernel,
        machine.cpu_model
    );
    let mut sets: Vec<Set> = Vec::new();
    let mut errors = Vec::new();
    for round in 0..plan.repeat.max(1) {
        if plan.repeat > 1 {
            println!("\n#### set {} of {} ####", round + 1, plan.repeat);
        }
        let mut set = Set::new();
        let mut traced = Set::new();
        for (workload, _) in WORKLOADS {
            match run_child(workload, plan, seconds, false) {
                Ok(result) => {
                    set.insert(workload, result);
                }
                Err(e) => errors.push(e),
            }
            if plan.traced {
                match run_child(workload, plan, seconds, true) {
                    Ok(result) => {
                        traced.insert(workload, result);
                    }
                    Err(e) => errors.push(e),
                }
            }
        }
        print_table("== end to end ==", END_TO_END, &set);
        print!("{:<44}", "ops_attempted / ops_failed");
        for (w, _) in WORKLOADS {
            match set.get(w) {
                Some(r) => print!(" {:>18}", format!("{} / {}", r.attempted, r.failed)),
                None => print!(" {:>18}", "-"),
            }
        }
        println!();
        if plan.traced {
            print_table("== per layer (traced pass) ==", PER_LAYER, &traced);
        }
        sets.push(set);
    }
    if plan.repeat > 1 {
        let violations = judge_repeats(&sets, &contract);
        if violations > 0 {
            errors.push(format!(
                "{violations} metric × workload cells disagree between sets by more than their bound"
            ));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert_eq!(worsening(Better::Higher, 0.0, 5.0), 0.0);
    }

    #[test]
    fn contract_and_result_lines_parse() {
        let contract = Contract::parse(
            r#"{"run_seconds": 10, "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        assert_eq!(contract.run_seconds, Some(10.0));
        assert_eq!(contract.bounds["setup_s"], 0.25);
        let r = ChildResult::parse(
            r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"setup_s": {"value": 1.5, "unit": "s"}}}"#,
        )
        .unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (5, 0));
        assert_eq!(r.metrics["setup_s"], 1.5);
        assert!(ChildResult::parse("{}").is_err());
    }

    #[test]
    fn repeats_are_judged_against_the_bound() {
        let result = |v: f64| ChildResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: [("elements_per_s".to_owned(), v)].into_iter().collect(),
        };
        let set = |v: f64| -> Set { [("motes_pipeline", result(v))].into_iter().collect() };
        let mut contract = Contract::default();
        contract.bounds.insert("elements_per_s".to_owned(), 0.10);
        assert_eq!(judge_repeats(&[set(100.0), set(95.0)], &contract), 0);
        assert_eq!(judge_repeats(&[set(100.0), set(85.0)], &contract), 1);
    }
}
