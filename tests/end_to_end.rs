//! End-to-end integration tests: XML deployment, the processing pipeline, SQL access,
//! subscriptions, client queries and dynamic reconfiguration on a single container.

use std::sync::Arc;

use gsn::container::ContainerConfig;
use gsn::types::{DataType, Duration, SimulatedClock, Value};
use gsn::xml::{AddressSpec, InputStreamSpec, StreamSourceSpec, VirtualSensorDescriptor};
use gsn::{GsnContainer, WindowSpec};

fn new_node() -> (GsnContainer, SimulatedClock) {
    let clock = SimulatedClock::new();
    let node = GsnContainer::new(ContainerConfig::default(), Arc::new(clock.clone()));
    (node, clock)
}

fn run(node: &mut GsnContainer, clock: &SimulatedClock, millis: i64, tick: i64) {
    let ticks = millis / tick;
    for _ in 0..ticks {
        clock.advance(Duration::from_millis(tick));
        node.step();
    }
}

#[test]
fn paper_figure1_descriptor_end_to_end() {
    let (mut node, clock) = new_node();
    // The paper's Figure 1 descriptor with a local mote standing in for the remote source
    // and without `<life-cycle>`, which a container refuses.
    let name = node
        .deploy_xml(
            r#"<virtual-sensor name="room-bc143-temperature" priority="10">
                 <metadata key="type" val="temperature" />
                 <metadata key="location" val="bc143" />
                 <output-structure>
                   <field name="TEMPERATURE" type="double"/>
                 </output-structure>
                 <storage permanent-storage="true" size="10s" />
                 <input-stream name="dummy" rate="100">
                   <stream-source alias="src1" sampling-rate="1"
                                  storage-size="1h" disconnect-buffer="10">
                     <address wrapper="mote">
                       <predicate key="interval" val="250" />
                     </address>
                     <query>select avg(temperature) as temperature from WRAPPER</query>
                   </stream-source>
                   <query>select * from src1</query>
                 </input-stream>
               </virtual-sensor>"#,
        )
        .unwrap();
    assert_eq!(name.as_str(), "room-bc143-temperature");

    let (_sub, notifications) = node.subscribe("room-bc143-temperature").unwrap();
    run(&mut node, &clock, 10_000, 250);

    // 40 mote readings -> 40 averaged outputs.
    let stats = node.sensor_stats("room-bc143-temperature").unwrap();
    assert_eq!(stats.arrivals, 40);
    assert_eq!(stats.outputs, 40);
    assert_eq!(stats.errors, 0);

    let rel = node
        .query("select count(*), avg(temperature) from room_bc143_temperature")
        .unwrap();
    assert_eq!(rel.rows()[0][0], Value::Integer(40));
    let avg = rel.rows()[0][1].as_double().unwrap();
    assert!((10.0..=40.0).contains(&avg), "implausible average {avg}");

    assert_eq!(notifications.try_iter().count(), 40);

    // The latest element is retrievable with the ORDER BY ... LIMIT idiom.
    let latest = node
        .query("select temperature from room_bc143_temperature order by timed desc limit 1")
        .unwrap();
    assert_eq!(latest.row_count(), 1);
}

#[test]
fn two_source_join_sensor() {
    let (mut node, clock) = new_node();
    // A virtual sensor joining a mote network and an RFID reader in one SQL statement —
    // the "new sensor network based on data produced by other (heterogeneous) sensor
    // networks" scenario of the demo.
    let descriptor = VirtualSensorDescriptor::builder("door-context")
        .unwrap()
        .output_field("tag", DataType::Varchar)
        .unwrap()
        .output_field("temperature", DataType::Double)
        .unwrap()
        .permanent_storage(true)
        .input_stream(
            InputStreamSpec::new(
                "main",
                "select rfid.tag, climate.temperature from rfid, climate",
            )
            .with_source(
                StreamSourceSpec::new(
                    "rfid",
                    AddressSpec::new("rfid")
                        .with_predicate("interval", "500")
                        .with_predicate("detection-probability", "1.0"),
                    "select tag from WRAPPER",
                )
                .with_window(WindowSpec::Count(1)),
            )
            .with_source(
                StreamSourceSpec::new(
                    "climate",
                    AddressSpec::new("mote").with_predicate("interval", "500"),
                    "select avg(temperature) as temperature from WRAPPER",
                )
                .with_window(WindowSpec::Count(4)),
            ),
        )
        .build()
        .unwrap();
    node.deploy(descriptor).unwrap();
    run(&mut node, &clock, 5_000, 250);

    let rel = node
        .query(
            "select count(*) from door_context where tag is not null and temperature is not null",
        )
        .unwrap();
    let joined = rel.rows()[0][0].as_integer().unwrap();
    assert!(joined > 0, "join produced no correlated rows");
}

#[test]
fn registered_client_queries_and_reconfiguration() {
    let (mut node, clock) = new_node();
    node.deploy_xml(
        r#"<virtual-sensor name="hall-light">
             <output-structure><field name="light" type="double"/></output-structure>
             <storage permanent-storage="true"/>
             <input-stream name="main">
               <stream-source alias="s" storage-size="10">
                 <address wrapper="mote"><predicate key="interval" val="200"/></address>
                 <query>select avg(light) as light from WRAPPER</query>
               </stream-source>
               <query>select * from s</query>
             </input-stream>
           </virtual-sensor>"#,
    )
    .unwrap();

    let q1 = node
        .register_query(
            "dashboard",
            "select avg(light) from hall_light",
            WindowSpec::Time(Duration::from_secs(5)),
            None,
        )
        .unwrap();
    node.register_query(
        "alarm",
        "select count(*) from hall_light where light > 100",
        WindowSpec::Count(50),
        Some(0.5),
    )
    .unwrap();

    let report_before = {
        let mut total = gsn::StepReport::default();
        for _ in 0..20 {
            clock.advance(Duration::from_millis(200));
            let r = node.step();
            total.outputs += r.outputs;
            total.client_query_evaluations += r.client_query_evaluations;
        }
        total
    };
    assert_eq!(report_before.outputs, 20);
    assert_eq!(report_before.client_query_evaluations, 40);

    // Remove one query; evaluations per output drop to one.
    node.deregister_query(q1).unwrap();
    clock.advance(Duration::from_millis(200));
    let r = node.step();
    assert_eq!(r.client_query_evaluations, r.outputs);

    // Undeploy while queries are still registered: ad-hoc queries now fail cleanly.
    node.undeploy("hall-light").unwrap();
    assert!(node.query("select * from hall_light").is_err());
    assert!(node.sensor_names().is_empty());

    // Redeploy with a different configuration and keep going.
    node.deploy_xml(
        r#"<virtual-sensor name="hall-light">
             <output-structure><field name="light" type="double"/></output-structure>
             <storage permanent-storage="true"/>
             <input-stream name="main">
               <stream-source alias="s" storage-size="20">
                 <address wrapper="mote"><predicate key="interval" val="400"/></address>
                 <query>select max(light) as light from WRAPPER</query>
               </stream-source>
               <query>select * from s</query>
             </input-stream>
           </virtual-sensor>"#,
    )
    .unwrap();
    run(&mut node, &clock, 4_000, 400);
    let rel = node.query("select count(*) from hall_light").unwrap();
    assert_eq!(rel.rows()[0][0], Value::Integer(10));
}

#[test]
fn push_wrapper_lets_applications_feed_data() {
    let (mut node, clock) = new_node();
    // Application-side handle for a named push channel, then a descriptor consuming it.
    let schema =
        Arc::new(gsn::types::StreamSchema::from_pairs(&[("reading", DataType::Double)]).unwrap());
    let push_factory = gsn::wrappers::PushWrapperFactory::new();
    // Register the application's factory instance (replacing the builtin one) so the
    // handle and the deployed wrapper share the channel.
    node.wrapper_registry().deregister("push").unwrap();
    let push_factory = Arc::new(push_factory);
    node.wrapper_registry()
        .register(push_factory.clone())
        .unwrap();
    let handle = push_factory.handle("building-feed", schema);

    node.deploy_xml(
        r#"<virtual-sensor name="external-feed">
             <output-structure><field name="reading" type="double"/></output-structure>
             <storage permanent-storage="true"/>
             <input-stream name="main">
               <stream-source alias="s" storage-size="1">
                 <address wrapper="push"><predicate key="channel" val="building-feed"/></address>
                 <query>select reading from WRAPPER</query>
               </stream-source>
               <query>select * from s</query>
             </input-stream>
           </virtual-sensor>"#,
    )
    .unwrap();

    for i in 0..25 {
        handle
            .push_values(vec![Value::Double(i as f64)], gsn::Timestamp(i * 10))
            .unwrap();
    }
    clock.advance(Duration::from_secs(1));
    node.step();

    let rel = node
        .query("select count(*), max(reading) from external_feed")
        .unwrap();
    assert_eq!(rel.rows()[0][0], Value::Integer(25));
    assert_eq!(rel.rows()[0][1], Value::Double(24.0));
}

#[test]
fn access_control_and_status_reporting() {
    let (mut node, clock) = new_node();
    node.deploy_xml(
        r#"<virtual-sensor name="secure-lab">
             <output-structure><field name="temperature" type="double"/></output-structure>
             <storage permanent-storage="true"/>
             <input-stream name="main">
               <stream-source alias="s" storage-size="5">
                 <address wrapper="mote"><predicate key="interval" val="100"/></address>
                 <query>select avg(temperature) as temperature from WRAPPER</query>
               </stream-source>
               <query>select * from s</query>
             </input-stream>
           </virtual-sensor>"#,
    )
    .unwrap();
    run(&mut node, &clock, 1_000, 100);

    use gsn::network::Principal;
    node.access_control()
        .restrict_sensor("secure_lab", vec![Principal::named("operator")]);
    assert!(node.query("select * from secure_lab").is_err());
    assert!(node
        .query_as(&Principal::named("operator"), "select * from secure_lab")
        .is_ok());

    let status = node.status();
    assert_eq!(status.sensors.len(), 1);
    assert!(status.storage.retained_elements > 0);
    let rendered = status.render();
    assert!(rendered.contains("secure-lab"));
    assert!(rendered.contains("virtual sensors (1)"));
}

fn temperature_sensor_xml(name: &str, output_query: &str) -> String {
    format!(
        r#"<virtual-sensor name="{name}">
             <output-structure><field name="temperature" type="double"/></output-structure>
             <storage permanent-storage="true"/>
             <input-stream name="main">
               <stream-source alias="s" storage-size="5">
                 <address wrapper="mote"><predicate key="interval" val="100"/></address>
                 <query>select avg(temperature) as temperature from WRAPPER</query>
               </stream-source>
               <query>{output_query}</query>
             </input-stream>
           </virtual-sensor>"#
    )
}

#[test]
fn subquery_tables_are_access_checked() {
    use gsn::network::Principal;
    use gsn::GsnError;

    let (mut node, clock) = new_node();
    for name in ["a-temp", "b-temp"] {
        node.deploy_xml(&temperature_sensor_xml(name, "select * from s"))
            .unwrap();
    }
    run(&mut node, &clock, 1_000, 100);
    node.access_control()
        .restrict_sensor("b_temp", vec![Principal::named("operator")]);

    let visitor = Principal::named("visitor");
    for sql in [
        "select * from b_temp",
        "select count(*) from a_temp where temperature not in (select temperature from b_temp)",
        "select (select max(temperature) from b_temp) from a_temp",
        "select count(*) from a_temp where exists (select 1 from b_temp)",
    ] {
        assert!(
            matches!(node.query_as(&visitor, sql), Err(GsnError::AccessDenied(_))),
            "query_as read b_temp through `{sql}`"
        );
        assert!(
            matches!(
                node.query_cursor_as(&visitor, sql),
                Err(GsnError::AccessDenied(_))
            ),
            "query_cursor_as read b_temp through `{sql}`"
        );
        assert!(node.query_as(&Principal::named("operator"), sql).is_ok());
    }
}

#[test]
fn output_query_subqueries_may_read_only_declared_sources() {
    let (mut node, _clock) = new_node();
    let deployed = node.deploy_xml(&temperature_sensor_xml(
        "leaky",
        "select * from s where temperature not in (select temperature from b_temp)",
    ));
    assert!(
        matches!(&deployed, Err(gsn::GsnError::Descriptor(m)) if m.contains("b_temp")),
        "{deployed:?}"
    );
    assert!(node.sensor_names().is_empty());
}
