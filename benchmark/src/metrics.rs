//! The names, units and directions of every metric the benchmark reports.  These lists
//! and `BENCHMARK.json` must agree; a test compares them.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the container sees.  Every workload reports every one of these.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("elements_per_s", "1/s"),
    lower("element_latency_p50_ms", "ms"),
    lower("element_latency_p99_ms", "ms"),
    higher("queries_per_s", "1/s"),
    lower("query_latency_p50_ms", "ms"),
    lower("query_latency_p99_ms", "ms"),
    lower("cpu_cores_used", "cores"),
    lower("peak_rss_mib", "MiB"),
];

/// Single-layer numbers from the traced pass; the prefix is the crate name.
pub const PER_LAYER: &[MetricDef] = &[
    // core
    lower("core.step_us_p50", "us"),
    lower("core.step_us_p99", "us"),
    lower("core.step_self_share", "share"),
    lower("core.step_phase_network_us", "us"),
    lower("core.step_phase_pipelines_us", "us"),
    lower("core.step_phase_commit_us", "us"),
    higher("core.speedup_vs_1worker", "x"),
    lower("core.notify_ns_per_element", "ns"),
    lower("core.query_open_us", "us"),
    lower("core.cursor_ns_per_row", "ns"),
    // wrappers
    lower("wrappers.push_poll_ns_per_element", "ns"),
    // sql
    lower("sql.prepare_us_miss", "us"),
    lower("sql.prepare_us_hit", "us"),
    lower("sql.exec_ns_per_row_filter", "ns"),
    lower("sql.exec_ns_per_row_aggregate", "ns"),
    lower("sql.window_query_us", "us"),
    lower("sql.continuous_us_per_client_element_100", "us"),
    lower("sql.continuous_us_per_client_element_200", "us"),
    higher("sql.incremental_share", "share"),
    lower("sql.rows_scanned_per_row_returned", "rows"),
    higher("sql.pushdown_applied", "count"),
    // storage
    lower("storage.insert_us_64b", "us"),
    lower("storage.insert_us_1k", "us"),
    lower("storage.insert_us_32k", "us"),
    lower("storage.memory_insert_ns", "ns"),
    lower("storage.group_commit_us", "us"),
    lower("storage.fsyncs_per_step", "count"),
    lower("storage.wal_bytes_per_user_byte", "ratio"),
    lower("storage.write_amplification", "ratio"),
    lower("storage.space_amplification", "ratio"),
    lower("storage.step_stall_max_ms", "ms"),
    higher("storage.step_stall_period_rows", "rows"),
    lower("storage.maintain_ms", "ms"),
    higher("storage.reclaimed_bytes", "bytes"),
    lower("storage.segments_live", "count"),
    lower("storage.recovery_ms", "ms"),
    higher("storage.recovered_rows", "rows"),
    lower("storage.scan_ns_per_row_memory", "ns"),
    lower("storage.scan_ns_per_row_durable", "ns"),
    lower("storage.range_ms_memory", "ms"),
    lower("storage.range_ms_durable", "ms"),
    higher("storage.pool_hit_ratio", "share"),
    lower("storage.pool_evictions", "count"),
    lower("storage.pages_read_per_point_lookup", "pages"),
    higher("storage.pages_skipped_per_range", "pages"),
    // types
    lower("types.codec_encode_ns_per_row", "ns"),
    lower("types.codec_decode_ns_per_row", "ns"),
    lower("types.codec_encode_ns_per_row_32k", "ns"),
    lower("types.codec_decode_ns_per_row_32k", "ns"),
    // network
    lower("network.encode_ns_per_frame", "ns"),
    lower("network.decode_ns_per_frame", "ns"),
    lower("network.bytes_per_element", "bytes"),
    lower("network.frames_sent", "count"),
    lower("network.frames_dropped", "count"),
    lower("network.retransmits", "count"),
    // federation
    lower("federation.gossip_round_us", "us"),
    lower("federation.gossip_bytes_per_round", "bytes"),
    lower("federation.ring_owners_ns", "ns"),
    lower("federation.sim_rtts_per_query", "count"),
    lower("federation.partial_frames_per_query", "count"),
    // xml
    lower("xml.parse_descriptor_us", "us"),
    // telemetry
    lower("telemetry.snapshot_us", "us"),
    lower("telemetry.render_prometheus_us", "us"),
    lower("telemetry.tracing_overhead_share", "share"),
    // the driver itself: validity of every number above
    lower("bench.utilisation", "share"),
    lower("bench.generator_lateness_p99_ms", "ms"),
    higher("bench.cpu_per_busy", "share"),
    lower("bench.cpu_us_per_op", "us"),
    lower("bench.trace_overhead_share", "share"),
    higher("bench.attributed_share", "share"),
];

/// The five workloads, in the order the runner executes them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "motes_pipeline",
        "64 push-fed motes, per-arrival window query, memory storage: core step loop, sql and wrappers work; storage and network idle",
    ),
    (
        "cameras_durable",
        "15 cameras of 32 KiB frames into bounded durable tables, fsync per step: storage write path works; sql nearly idle",
    ),
    (
        "clients_continuous",
        "200 registered client queries per arriving element: sql continuous engine and core query repository work; pipeline and storage idle",
    ),
    (
        "adhoc_reads",
        "point, limit, range and aggregate queries over a pool-sized memory table and a larger durable one: sql and storage read path work; step loop idle",
    ),
    (
        "mesh_federated",
        "4 containers on 5 ms 1 % loss links, remote streams and federated queries: network codec, gossip and protocol state machines work",
    ),
];
