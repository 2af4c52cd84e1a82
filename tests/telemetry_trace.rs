//! Integration tests for the telemetry registry threaded through the facade
//! (`SimWorkspace::with_telemetry`, the `phase.*` spans, the per-dimension
//! engine counters), the service's `metrics` request kind, and the
//! Perfetto trace exports re-exported at the crate root.
//!
//! The load-bearing contracts: instrumentation never changes simulation
//! results (reports stay bit-identical with recording on, off, or routed to
//! a private registry), and the exported traces are schema-correct and
//! deterministic.

use themis::api::json::Json;
use themis::api::serve::campaign_cells_to_json;
use themis::prelude::*;
use themis::{sim_report_trace, stream_report_trace, Registry};

fn platform() -> Platform {
    Platform::preset(PresetTopology::SwSwSw3dHomo)
}

fn job() -> Job {
    Job::all_reduce_mib(48.0).chunks(8)
}

fn stream_job() -> StreamJob {
    StreamJob::named("pair")
        .push(QueuedCollective::all_reduce_mib("g0", 24.0))
        .push(QueuedCollective::all_reduce_mib("g1", 12.0).issued_at(5_000.0))
        .chunks(8)
}

#[test]
fn reports_are_bit_identical_with_telemetry_on_off_or_private() {
    let platform = platform();
    let plan = SimPlanCache::new();

    let mut plain = SimWorkspace::new();
    let reference = job().run_planned(&platform, &plan, &mut plain).unwrap();

    let mut private = SimWorkspace::with_telemetry(Registry::new());
    let recorded = job().run_planned(&platform, &plan, &mut private).unwrap();
    assert_eq!(recorded, reference, "a private registry changed the report");

    let disabled_registry = Registry::new();
    disabled_registry.set_enabled(false);
    let mut disabled = SimWorkspace::with_telemetry(disabled_registry);
    let dark = job().run_planned(&platform, &plan, &mut disabled).unwrap();
    assert_eq!(dark, reference, "disabling telemetry changed the report");

    let stream_reference = stream_job()
        .run_planned(&platform, &plan, &mut plain)
        .unwrap();
    let stream_recorded = stream_job()
        .run_planned(&platform, &plan, &mut private)
        .unwrap();
    assert_eq!(stream_recorded, stream_reference);
}

#[test]
fn workspace_telemetry_records_runs_phases_and_dim_counters() {
    let registry = Registry::new();
    let mut workspace = SimWorkspace::with_telemetry(registry.clone());
    let plan = SimPlanCache::new();
    let platform = platform();
    job().run_planned(&platform, &plan, &mut workspace).unwrap();
    stream_job()
        .run_planned(&platform, &plan, &mut workspace)
        .unwrap();

    let snapshot = registry.snapshot();
    // One pipeline run plus one overlapped stream run.
    assert_eq!(snapshot.counter("sim.runs"), 2);
    // The phase spans around the plan lookups recorded wall-clock time.
    assert!(snapshot.histogram("phase.schedule_ns").is_some());
    assert!(snapshot.histogram("phase.cost_precompute_ns").is_some());
    // Both engines recorded their event loops.
    assert!(snapshot.span_total_ns("sim.pipeline.event_loop_ns") > 0);
    assert!(snapshot.span_total_ns("sim.stream.event_loop_ns") > 0);
    // Per-dimension busy time, op counts and queue-depth high-water marks.
    for dim in 0..platform.topology().num_dims() {
        assert!(snapshot.counter(&format!("sim.dim{dim}.busy_ns")) > 0);
        assert!(snapshot.counter(&format!("sim.dim{dim}.ops")) > 0);
        assert!(snapshot.gauge(&format!("sim.dim{dim}.max_queue_depth")) >= 1);
    }
    // The snapshot serializes to both JSON and the Prometheus exposition.
    assert!(snapshot.to_json().get("counters").is_some());
    assert!(snapshot.to_prometheus().contains("themis_sim_runs 2"));
}

#[test]
fn an_enforced_run_counts_as_one_run() {
    // The healthy run that derives the enforced order flushes nothing: the
    // registry sees each enforced run once and each of its ops once.
    let platform = platform().with_enforced_order(true);
    let registry = Registry::new();
    let mut workspace = SimWorkspace::with_telemetry(registry.clone());
    let plan = SimPlanCache::new();
    let single = job().run_planned(&platform, &plan, &mut workspace).unwrap();
    let stream = stream_job()
        .run_planned(&platform, &plan, &mut workspace)
        .unwrap();

    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("sim.runs"), 2);
    for (dim, (one, many)) in single
        .report
        .dims
        .iter()
        .zip(&stream.report.dims)
        .enumerate()
    {
        assert_eq!(
            snapshot.counter(&format!("sim.dim{dim}.ops")),
            (one.ops_executed + many.ops_executed) as u64
        );
    }
}

#[test]
fn service_answers_metrics_with_counters_and_prometheus_text() {
    let specs = Campaign::new()
        .topologies([PresetTopology::Sw2d])
        .sizes_mib([16.0])
        .chunk_counts([4])
        .expand()
        .unwrap();
    let service = Service::default();
    let body = || {
        Json::obj([
            ("id", Json::Num(1.0)),
            ("kind", Json::Str("campaign".to_string())),
            ("cells", campaign_cells_to_json(&specs)),
        ])
        .render()
    };
    service.handle_line(&body());
    service.handle_line(&body());
    // Two publishes of the same schedules to one file: the first writes it,
    // the second has nothing to merge and is skipped. No other test in this
    // binary publishes, so the process-wide counters move by one each.
    let dir = std::env::temp_dir().join(format!("themis-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let publish = Json::obj([
        ("id", Json::Num(2.0)),
        ("kind", Json::Str("cache-publish".to_string())),
        (
            "path",
            Json::Str(dir.join("schedules.json").display().to_string()),
        ),
    ])
    .render();
    let global = |response: &Json, name: &str| {
        response
            .field("result")
            .unwrap()
            .field("global")
            .unwrap()
            .field(name)
            .unwrap()
            .as_usize()
            .unwrap()
    };
    let before = Json::parse(&service.handle_line(r#"{"id":8,"kind":"metrics"}"#)).unwrap();
    for _ in 0..2 {
        let published = Json::parse(&service.handle_line(&publish)).unwrap();
        assert_eq!(published.field("status").unwrap().as_str().unwrap(), "ok");
    }
    std::fs::remove_dir_all(&dir).unwrap();

    let response = Json::parse(&service.handle_line(r#"{"id":9,"kind":"metrics"}"#)).unwrap();
    assert_eq!(response.field("status").unwrap().as_str().unwrap(), "ok");
    for name in ["cache.publish_written", "cache.publish_skipped"] {
        assert_eq!(global(&response, name), global(&before, name) + 1, "{name}");
    }
    let result = response.field("result").unwrap();
    let counters = result.field("snapshot").unwrap().field("counters").unwrap();
    assert_eq!(
        counters
            .field("serve.requests.campaign")
            .unwrap()
            .as_usize()
            .unwrap(),
        2
    );
    // The dispatch latency histogram counted both campaign requests.
    let latency = result
        .field("snapshot")
        .unwrap()
        .field("histograms")
        .unwrap()
        .field("serve.latency_ns.campaign")
        .unwrap();
    assert_eq!(latency.field("count").unwrap().as_usize().unwrap(), 2);
    // The codec phases around dispatch: two campaigns, the first `metrics`
    // and two publishes were parsed and answered; the last `metrics` request
    // was parsed before the snapshot, but its response is rendered after it.
    let phase = |name: &str| {
        result
            .field("snapshot")
            .unwrap()
            .field("histograms")
            .unwrap()
            .field(name)
            .unwrap()
            .field("count")
            .unwrap()
            .as_usize()
            .unwrap()
    };
    assert_eq!(phase("serve.phase_ns.parse"), 6);
    assert_eq!(phase("serve.phase_ns.encode"), 5);
    let prometheus = result.field("prometheus").unwrap().as_str().unwrap();
    assert!(prometheus.contains("themis_serve_requests_campaign 2"));
    assert!(prometheus.contains("themis_serve_latency_ns_campaign_count 2"));
    // The caches block reuses the unified CacheStats shape. The campaign
    // expands over all three schedulers, so each request touches 3 cells:
    // the first misses on all of them, the repeat hits on all of them.
    let cells = result.field("caches").unwrap().field("cells").unwrap();
    assert_eq!(cells.field("hits").unwrap().as_usize().unwrap(), 3);
    assert_eq!(cells.field("misses").unwrap().as_usize().unwrap(), 3);
    let rates = result.field("hit_rates").unwrap();
    assert!((rates.field("cells").unwrap().as_f64().unwrap() - 0.5).abs() < 1e-12);
}

#[test]
fn facade_trace_exports_are_schema_correct_and_deterministic() {
    let platform = platform();
    let run = job().run_on(&platform).unwrap();
    let campaign_trace = sim_report_trace(&run.report);
    validate_trace(&campaign_trace, false);
    assert_eq!(
        campaign_trace.render(),
        sim_report_trace(&job().run_on(&platform).unwrap().report).render(),
        "campaign export is not deterministic"
    );

    let stream = stream_job().run_on(&platform).unwrap();
    let stream_trace = stream_report_trace(&stream.report);
    validate_trace(&stream_trace, true);
    assert_eq!(
        stream_trace.render(),
        stream_report_trace(&stream_job().run_on(&platform).unwrap().report).render(),
        "stream export is not deterministic"
    );
}

/// Walks a trace document asserting the Chrome trace-event schema: `M`
/// metadata and `X` slices only, `pid` 1 throughout, and per-track (`tid`)
/// monotone slice timestamps. Stream traces additionally color every slice.
fn validate_trace(trace: &Json, stream: bool) {
    let events = trace.field("traceEvents").unwrap().as_arr().unwrap();
    let mut slices = 0usize;
    let mut last_ts: std::collections::BTreeMap<u64, f64> = Default::default();
    for event in events {
        assert_eq!(event.field("pid").unwrap().as_f64().unwrap(), 1.0);
        match event.field("ph").unwrap().as_str().unwrap() {
            "M" => {}
            "X" => {
                slices += 1;
                let tid = event.field("tid").unwrap().as_f64().unwrap() as u64;
                let ts = event.field("ts").unwrap().as_f64().unwrap();
                assert!(event.field("dur").unwrap().as_f64().unwrap() >= 0.0);
                if let Some(&prev) = last_ts.get(&tid) {
                    assert!(ts >= prev, "track {tid} went backwards");
                }
                last_ts.insert(tid, ts);
                if stream {
                    assert!(
                        !event.field("cname").unwrap().as_str().unwrap().is_empty(),
                        "stream slices carry a collective color"
                    );
                }
            }
            other => panic!("unexpected event phase `{other}`"),
        }
    }
    assert!(slices > 0, "trace has no slices");
    assert!(last_ts.len() >= 2, "expected one track per dimension");
}
