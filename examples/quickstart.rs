//! Quickstart: deploy the paper's Figure 1 virtual sensor and query it.
//!
//! This example reproduces the paper's canonical scenario on a single container:
//! a virtual sensor that averages a temperature stream, deployed purely declaratively
//! from an XML descriptor, then queried with plain SQL and observed through a
//! subscription — no wrapper or glue code written.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use gsn::types::{Duration, SimulatedClock};
use gsn::{ContainerConfig, GsnContainer};

/// The paper's Figure 1 descriptor, completed into a runnable document.  The only change
/// from the paper is `wrapper="mote"` instead of `wrapper="remote"`: this example runs a
/// single node, so the temperature stream comes from a local (simulated) mote rather than
/// from another GSN node.  See the `multi_network_deployment` example for the remote form.
const DESCRIPTOR: &str = r#"
<virtual-sensor name="room-bc143-temperature" priority="10">
  <description>Averaged temperature of room BC143</description>
  <metadata key="type" val="temperature" />
  <metadata key="location" val="bc143" />
  <output-structure>
    <field name="TEMPERATURE" type="double" />
  </output-structure>
  <storage permanent-storage="true" size="10s" />
  <input-stream name="dummy" rate="100">
    <stream-source alias="src1" sampling-rate="1" storage-size="1h" disconnect-buffer="10">
      <address wrapper="mote">
        <predicate key="interval" val="500" />
        <predicate key="mote-id" val="1" />
        <predicate key="network" val="bc143" />
      </address>
      <query>select avg(temperature) as temperature from WRAPPER</query>
    </stream-source>
    <query>select * from src1</query>
  </input-stream>
</virtual-sensor>
"#;

fn main() {
    // 1. Start a container on a simulated clock (swap in `gsn::container::system_clock()`
    //    for wall-clock deployments).
    let clock = SimulatedClock::new();
    let mut node = GsnContainer::new(
        ContainerConfig::named(gsn::types::NodeId::LOCAL, "quickstart-node"),
        Arc::new(clock.clone()),
    );

    // 2. Deploy the virtual sensor from its XML descriptor — no code, exactly as in the
    //    paper's demo ("rapidly deploy a sensor network without any programming effort").
    let name = node.deploy_xml(DESCRIPTOR).expect("descriptor deploys");
    println!("deployed virtual sensor `{name}`");
    println!(
        "available wrappers: {}",
        node.wrapper_registry().kinds().join(", ")
    );

    // 3. Subscribe to the output stream.
    let (_subscription, notifications) = node.subscribe("room-bc143-temperature").unwrap();

    // 4. Let the (simulated) world run for a minute of sensor time.
    for _ in 0..120 {
        clock.advance(Duration::from_millis(500));
        node.step();
    }

    // 5. Query the stream with plain SQL.
    let answer = node
        .query(
            "select count(*) as readings, avg(temperature) as avg_temp, \
             min(temperature) as min_temp, max(temperature) as max_temp \
             from room_bc143_temperature",
        )
        .unwrap();
    println!("\nSQL over the virtual sensor output:");
    println!("{answer}");

    // 5b. Or stream the result through a pull-based cursor: rows arrive in batches and
    //     a LIMIT reads only the first rows of the stored history instead of
    //     materialising all of it (see the `streaming_query` example for the full tour).
    let mut cursor = node
        .query_cursor("select temperature from room_bc143_temperature limit 3")
        .unwrap();
    let batch = cursor.next_batch(3).unwrap();
    println!(
        "streamed batch ({} rows scanned for LIMIT 3):\n{batch}",
        cursor.rows_scanned()
    );

    // 6. Check the notifications that were delivered along the way.
    let delivered: Vec<_> = notifications.try_iter().collect();
    println!("received {} notifications; last three:", delivered.len());
    for n in delivered.iter().rev().take(3).rev() {
        println!("  @{} {}", n.generated_at, n.element);
    }

    // 7. Inspect the container status (the programmatic form of GSN's monitoring UI).
    println!("\n{}", node.status().render());

    // 8. The same numbers, machine-readable: every subsystem exports into one metrics
    //    registry (see OBSERVABILITY.md for the full catalogue, and the `telemetry`
    //    example for the scrape-able endpoint).
    let snapshot = node.metrics_snapshot();
    println!(
        "metrics snapshot: {} distinct metrics; a taste:",
        snapshot.distinct_names()
    );
    for name in [
        "gsn_steps_total",
        "gsn_step_micros",
        "gsn_storage_rows_inserted_total",
        "gsn_sql_executions_total",
        "gsn_notify_local_delivered_total",
    ] {
        if let Some(sample) = snapshot.get(name) {
            match (sample.as_counter(), sample.as_histogram()) {
                (Some(v), _) => println!("  {name} = {v}"),
                (_, Some(h)) => println!(
                    "  {name}: count={} p50={}us p99={}us max={}us",
                    h.count, h.p50, h.p99, h.max
                ),
                _ => {}
            }
        }
    }
}
