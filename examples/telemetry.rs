//! Telemetry tour: metrics, Prometheus exposition, tracing, the slow-query log,
//! health grading and peer-to-peer metric scraping — plus a real scrape-able
//! HTTP endpoint.
//!
//! ```text
//! cargo run --example telemetry            # print everything once and exit
//! cargo run --example telemetry -- --serve # serve on 127.0.0.1:9898
//! ```
//!
//! With `--serve`, point a Prometheus scraper (or `curl`) at
//! `http://127.0.0.1:9898/metrics` while the example keeps stepping the
//! container on a background cadence.  Two JSON surfaces ride along:
//! `GET /health` returns the container's graded subsystems (HTTP 503 when any
//! subsystem is Unhealthy, so load balancers can eject the node), and
//! `GET /traces` returns the distributed trace trees assembled so far.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::Arc;

use gsn::container::ContainerConfig;
use gsn::network::LinkSpec;
use gsn::types::{DataType, Duration, SimulatedClock};
use gsn::xml::{AddressSpec, InputStreamSpec, StreamSourceSpec, VirtualSensorDescriptor};
use gsn::{GsnContainer, Mesh, WindowSpec};

fn mote(name: &str, interval_ms: u32, seed: u32) -> VirtualSensorDescriptor {
    VirtualSensorDescriptor::builder(name)
        .unwrap()
        .output_field("avg_temp", DataType::Double)
        .unwrap()
        .input_stream(
            InputStreamSpec::new("main", "select * from src1").with_source(
                StreamSourceSpec::new(
                    "src1",
                    AddressSpec::new("mote")
                        .with_predicate("interval", &interval_ms.to_string())
                        .with_predicate("seed", &seed.to_string()),
                    "select avg(temperature) as avg_temp from WRAPPER",
                )
                .with_window(WindowSpec::Count(10)),
            ),
        )
        .build()
        .unwrap()
}

fn build_node(clock: &SimulatedClock) -> GsnContainer {
    // Tracing on, and every query slower than 50µs lands in the slow-query log.
    let config = ContainerConfig::default()
        .with_tracing(true)
        .with_slow_query_threshold(50);
    let mut node = GsnContainer::new(config, Arc::new(clock.clone()));
    for i in 0..4 {
        node.deploy(mote(&format!("mote-{i}"), 100 + 50 * i, i))
            .unwrap();
    }
    node.register_query(
        "dashboard",
        "select count(*) as n, avg(avg_temp) as a from mote_0",
        WindowSpec::Count(20),
        None,
    )
    .unwrap();
    node
}

fn main() {
    let serve = std::env::args().any(|a| a == "--serve");
    let clock = SimulatedClock::new();
    let mut node = build_node(&clock);

    // Drive ten seconds of sensor time so every instrument has recorded.
    for _ in 0..10 {
        clock.advance(Duration::from_secs(1));
        node.step();
    }
    node.query("select pk, avg_temp from mote_0 order by avg_temp desc limit 5")
        .unwrap();

    // --- 1. The typed snapshot -----------------------------------------------------
    let snapshot = node.metrics_snapshot();
    println!(
        "== metrics snapshot: {} distinct metrics ==",
        snapshot.distinct_names()
    );
    for sample in &snapshot.metrics {
        if let Some(h) = sample.as_histogram() {
            if h.count > 0 {
                println!(
                    "  {} count={} p50={} p99={} max={} ({})",
                    sample.name, h.count, h.p50, h.p99, h.max, sample.unit
                );
            }
        }
    }

    // --- 2. The trace log ----------------------------------------------------------
    let spans = node.trace_log().snapshot();
    println!("\n== trace log: {} spans (ring buffer) ==", spans.len());
    for span in spans.iter().rev().take(8).rev() {
        println!(
            "  [{}] {} <- parent {} ({}us) {}",
            span.id.0, span.name, span.parent.0, span.duration_micros, span.detail
        );
    }

    // --- 3. The slow-query log -----------------------------------------------------
    let slow = node.slow_queries();
    println!("\n== slow queries over 50us: {} ==", slow.len());
    for q in slow.iter().take(3) {
        println!("  {}us  {}", q.micros, q.sql);
        println!("    plan: {}", q.explain);
    }

    // --- 4. Peer scraping over the federation wire ----------------------------------
    let mut fed = Mesh::new();
    let alpha = fed.add_node("alpha").unwrap();
    let beta = fed.add_node("beta").unwrap();
    fed.set_link(alpha, beta, LinkSpec::wireless(5, 0.1));
    fed.node_mut(beta)
        .unwrap()
        .deploy(mote("beta-mote", 100, 9))
        .unwrap();
    fed.run_for(Duration::from_secs(2), Duration::from_millis(100));
    let request = fed
        .node_mut(alpha)
        .unwrap()
        .request_peer_metrics(beta)
        .unwrap();
    let mut scraped = None;
    for _ in 0..100 {
        fed.step(Duration::from_millis(100));
        if let Some(s) = fed.node_mut(alpha).unwrap().take_peer_metrics(request) {
            scraped = Some(s);
            break;
        }
    }
    match scraped {
        Some(s) => println!(
            "\n== scraped peer `beta` over a lossy wireless link: {} metrics, {} steps ==",
            s.distinct_names(),
            s.get("gsn_steps_total")
                .and_then(|m| m.as_counter())
                .unwrap_or(0)
        ),
        None => println!("\n== peer scrape did not complete in time =="),
    }

    // --- 5. Health grading -----------------------------------------------------------
    let health = node.status().health;
    println!("\n== health: {} ==", health.worst().label());
    for sub in &health.subsystems {
        println!(
            "  {}: {}{}",
            sub.subsystem,
            sub.state.label(),
            if sub.reasons.is_empty() {
                String::new()
            } else {
                format!("  ({})", sub.reasons.join("; "))
            }
        );
    }

    // --- 6. The HTTP endpoint ---------------------------------------------------------
    if !serve {
        let text = node.render_prometheus();
        println!(
            "\n== prometheus exposition ({} lines; rerun with --serve for the endpoint) ==",
            text.lines().count()
        );
        print!("{}", text.lines().take(12).collect::<Vec<_>>().join("\n"));
        println!("\n...");
        return;
    }

    let listener = TcpListener::bind("127.0.0.1:9898").expect("bind 127.0.0.1:9898");
    println!("\nserving http://127.0.0.1:9898/{{metrics,health,traces}}  (ctrl-c to stop)");
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        // Advance the simulated world a little per scrape so the numbers move.
        clock.advance(Duration::from_secs(1));
        node.step();
        let mut buf = [0u8; 1024];
        let n = stream.read(&mut buf).unwrap_or(0);
        let request = String::from_utf8_lossy(&buf[..n]);
        let path = request.split_whitespace().nth(1).unwrap_or("/metrics");
        let (status, content_type, body) = match path {
            "/health" => {
                let health = node.status().health;
                // Non-200 on Unhealthy: a load balancer or orchestrator health
                // probe ejects the node without parsing the body.
                let status = if health.worst() == gsn::telemetry::HealthState::Unhealthy {
                    "503 Service Unavailable"
                } else {
                    "200 OK"
                };
                (status, "application/json", health.render_json())
            }
            "/traces" => {
                let body = node
                    .assembled_traces()
                    .iter()
                    .map(|t| t.render_json())
                    .collect::<Vec<_>>()
                    .join(",");
                ("200 OK", "application/json", format!("[{body}]"))
            }
            _ => (
                "200 OK",
                "text/plain; version=0.0.4",
                node.render_prometheus(),
            ),
        };
        let response = format!(
            "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            status,
            content_type,
            body.len(),
            body
        );
        let _ = stream.write_all(response.as_bytes());
    }
}
