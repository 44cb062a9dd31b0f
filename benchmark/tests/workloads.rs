//! Each workload's quick run must pass its own oracle, inputs must be a function of the
//! seed alone, and `BENCHMARK.json` must describe what the code reports.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use gsn_benchmark::common::{Params, Scratch};
use gsn_benchmark::json::Json;
use gsn_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use gsn_benchmark::workloads::{self, adhoc, cameras, clients, mesh, motes};
use gsn_benchmark::{layers, report};

fn quick(name: &str, trace: bool) -> Params {
    Params {
        seed: 7,
        seconds: 10.0,
        trace,
        quick: true,
        // Under the build directory, never in the source tree.
        out: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name),
    }
}

fn passes_its_oracle(name: &str) {
    let params = quick(name, false);
    let scratch = Scratch::create(&params.out).unwrap();
    let outcome = workloads::run(name, &params, &scratch, Instant::now()).unwrap();
    assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.failures);
    assert!(outcome.attempted > 0, "{name} checked nothing");
    for def in END_TO_END {
        let v = outcome.end_to_end.get(def.name).copied();
        assert!(
            v.is_some_and(|v| v.is_finite() && v > 0.0),
            "{name}: {} = {v:?}",
            def.name
        );
    }
    let rendered = report::render(
        name,
        &params,
        &gsn_benchmark::sys::Fingerprint::read(),
        &outcome,
    );
    assert!(rendered.contains("QUICK (not a result)"));
    drop(scratch);
    assert!(
        !params
            .out
            .join(format!("tmp-{}", std::process::id()))
            .exists(),
        "the scratch data directory must be removed"
    );
}

#[test]
fn motes_pipeline_quick_run_passes_its_oracle() {
    passes_its_oracle("motes_pipeline");
}

#[test]
fn cameras_durable_quick_run_passes_its_oracle() {
    passes_its_oracle("cameras_durable");
}

#[test]
fn clients_continuous_quick_run_passes_its_oracle() {
    passes_its_oracle("clients_continuous");
}

#[test]
fn adhoc_reads_quick_run_passes_its_oracle() {
    passes_its_oracle("adhoc_reads");
}

#[test]
fn mesh_federated_quick_run_passes_its_oracle() {
    passes_its_oracle("mesh_federated");
}

#[test]
fn unknown_workloads_are_refused() {
    let params = quick("nosuch", false);
    let scratch = Scratch::create(&params.out).unwrap();
    assert!(workloads::run("nosuch", &params, &scratch, Instant::now()).is_none());
}

#[test]
fn a_traced_quick_run_fills_the_layer_metrics_and_writes_its_spans() {
    let params = quick("traced", true);
    let scratch = Scratch::create(&params.out).unwrap();
    let mut outcome = workloads::run("cameras_durable", &params, &scratch, Instant::now()).unwrap();
    layers::replay_all(&params, &mut outcome, &scratch);
    assert_eq!(outcome.failed, 0, "{:?}", outcome.failures);
    for name in [
        "core.step_us_p50",
        "storage.write_amplification",
        "storage.recovered_rows",
        "storage.insert_us_32k",
        "sql.window_query_us",
        "types.codec_encode_ns_per_row",
        "network.encode_ns_per_frame",
        "federation.gossip_round_us",
        "xml.parse_descriptor_us",
        "telemetry.snapshot_us",
        "bench.attributed_share",
    ] {
        let v = outcome.per_layer.get(name).copied();
        assert!(v.is_some_and(|v| v > 0.0), "{name} = {v:?}");
    }
    for name in outcome.per_layer.keys() {
        assert!(
            PER_LAYER.iter().any(|d| d.name == *name),
            "{name} is reported but not declared"
        );
    }
    let spans = std::fs::read_to_string(params.out.join("spans-cameras_durable.jsonl")).unwrap();
    let first = Json::parse(spans.lines().next().unwrap()).unwrap();
    for key in ["id", "name", "start_ns", "end_ns", "parent", "op"] {
        assert!(first.get(key).is_some(), "span lacks `{key}`");
    }
    assert!(spans.contains("\"core.step\""));
}

#[test]
fn inputs_are_a_function_of_the_seed_alone() {
    let motes = |seed| motes::generate(seed, 5, 40, 25).digest;
    let cameras = |seed| cameras::generate(seed, 5, 10, 4).digest;
    let clients = |seed| clients::generate(seed, 10, 50, 20).digest;
    let adhoc = |seed| {
        let mut g = adhoc::Generator::new(seed);
        for i in 0..4_000 {
            g.row(i % 2, (i / 20) as i64 * 10);
        }
        g.round();
        g.digest()
    };
    let mesh = |seed| mesh::State::build(seed, 20).input_digest();
    let generators: [(&str, &dyn Fn(u64) -> u64); 5] = [
        ("motes_pipeline", &motes),
        ("cameras_durable", &cameras),
        ("clients_continuous", &clients),
        ("adhoc_reads", &adhoc),
        ("mesh_federated", &mesh),
    ];
    for (name, digest) in generators {
        assert_eq!(digest(1), digest(1), "{name}: same seed, different inputs");
        assert_ne!(digest(1), digest(2), "{name}: different seeds, same inputs");
    }
    // The client population is fixed; the data it meets is seeded.
    let a = clients::generate(1, 10, 50, 20);
    let b = clients::generate(2, 10, 50, 20);
    assert_eq!(a.clients[3].sql, b.clients[3].sql);
    assert_ne!(a.preload[0].temperature, b.preload[0].temperature);
    let _ = Arc::new(a);
}

#[test]
fn benchmark_json_describes_what_the_code_reports() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let v = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let names = |key: &str| -> Vec<(String, String, String)> {
        v.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared = names(key);
        let reported: Vec<(String, String, String)> = defs
            .iter()
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.unit.to_owned(),
                    d.better.as_str().to_owned(),
                )
            })
            .collect();
        assert_eq!(declared, reported, "{key}");
    }
    for m in v.get("end_to_end").and_then(Json::as_array).unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let workloads: Vec<&str> = v
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        workloads,
        WORKLOADS.iter().map(|(n, _)| *n).collect::<Vec<_>>()
    );
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
}
