//! `gsn-benchmark`: see `benchmark/README.md`.
//!
//! ```text
//! gsn-benchmark [--seed N] [--seconds S] [--quick] [--traced] [--repeat N] [--out DIR]
//!     runs the five workloads, each in a fresh child process
//! gsn-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
//!     runs one workload in this process and prints its result line last
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use gsn_benchmark::common::{Params, Scratch};
use gsn_benchmark::runner::{self, Plan};
use gsn_benchmark::sys::Fingerprint;
use gsn_benchmark::{layers, report, workloads};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    traced: bool,
    quick: bool,
    repeat: usize,
    out: PathBuf,
    benchmark_json: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        traced: false,
        quick: false,
        repeat: 1,
        out: PathBuf::from("benchmark/out"),
        benchmark_json: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--repeat" => {
                parsed.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--out" => parsed.out = PathBuf::from(value("a directory")?),
            "--benchmark-json" => parsed.benchmark_json = PathBuf::from(value("a path")?),
            "--traced" => parsed.traced = true,
            "--quick" => parsed.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn run_one(name: &str, args: &Args, started: Instant) -> Result<bool, String> {
    let params = Params {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(15.0),
        trace: args.trace,
        quick: args.quick,
        out: args.out.clone(),
    };
    let scratch =
        Scratch::create(&params.out).map_err(|e| format!("--out {}: {e}", params.out.display()))?;
    let mut outcome = workloads::run(name, &params, &scratch, started)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    if params.trace {
        layers::replay_all(&params, &mut outcome, &scratch);
    }
    drop(scratch);
    print!(
        "{}",
        report::render(name, &params, &Fingerprint::read(), &outcome)
    );
    println!("{}", report::result_line(&outcome, params.trace));
    Ok(outcome.failed == 0 && outcome.attempted > 0)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gsn-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        Some(name) => run_one(name, &args, started).and_then(|correct| {
            if correct {
                Ok(())
            } else {
                Err(format!("{name}: an output differed from its reference"))
            }
        }),
        None => runner::run(&Plan {
            seed: args.seed,
            seconds: args.seconds,
            quick: args.quick,
            traced: args.traced,
            repeat: args.repeat,
            out: args.out.clone(),
            benchmark_json: args.benchmark_json.clone(),
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gsn-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
