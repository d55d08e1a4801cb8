//! Integration: the unified observability subsystem end to end — a traced
//! seeded Montage run exporting a Chrome-trace flame timeline, and a
//! Prometheus `/metrics` scrape over the REST interface after real policy
//! traffic.

use pwm_bench::{mb, MontageExperiment, PolicyMode};
use pwm_core::transport::PolicyTransport;
use pwm_core::{PolicyConfig, PolicyController, TransferSpec, Url, WorkflowId};
use pwm_obs::{validate_chrome_trace, JsonValue};
use pwm_rest::{PolicyRestClient, PolicyRestServer};

fn small_experiment() -> MontageExperiment {
    MontageExperiment::paper_setup(mb(1), 4, PolicyMode::Greedy { threshold: 50 })
}

#[test]
fn traced_montage_run_round_trips_through_chrome_trace() {
    let (stats, obs) = small_experiment().run_once_traced(1);
    assert!(stats.success);

    // The export is valid JSON with properly nested spans (the validator
    // checks every child against its parent's [ts, ts+dur] interval).
    let trace = obs.tracer.chrome_trace_json();
    let events = validate_chrome_trace(&trace).expect("export must validate");
    assert!(
        events > 500,
        "a Montage run yields many events, got {events}"
    );

    // The flame timeline carries every instrumented layer: workflow job
    // rows, transfer + net flow rows, policy RPC rows, and the policy
    // engine's evaluation instants.
    let doc = JsonValue::parse(&trace).expect("parseable");
    let rows = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
    for cat in [
        "stage_in",
        "compute",
        "cleanup",
        "transfer",
        "net",
        "policy_rpc",
        "policy",
    ] {
        assert!(
            rows.iter()
                .any(|e| e.get("cat").and_then(|c| c.as_str()) == Some(cat)),
            "no {cat} events in trace"
        );
    }

    // Every JSONL line parses on its own (streaming consumers).
    let jsonl = obs.tracer.jsonl();
    assert!(jsonl.lines().count() >= events);
    for line in jsonl.lines().take(50) {
        JsonValue::parse(line).expect("jsonl line parses");
    }
}

#[test]
fn same_seed_exports_identical_traces() {
    let a = small_experiment()
        .run_once_traced(3)
        .1
        .tracer
        .chrome_trace_json();
    let b = small_experiment()
        .run_once_traced(3)
        .1
        .tracer
        .chrome_trace_json();
    assert_eq!(a, b, "sim-time tracing must be deterministic per seed");
    let c = small_experiment()
        .run_once_traced(4)
        .1
        .tracer
        .chrome_trace_json();
    assert_ne!(a, c, "different seeds should differ");
}

#[test]
fn metrics_scrape_reflects_rest_traffic() {
    let controller = PolicyController::new(PolicyConfig::default());
    let server = PolicyRestServer::start(controller.clone()).unwrap();
    controller
        .set_sim_clock(
            pwm_core::DEFAULT_SESSION,
            pwm_core::SharedSimClock::default(),
        )
        .unwrap();
    let mut client = PolicyRestClient::new(server.addr(), pwm_core::DEFAULT_SESSION);

    for n in 0..3u32 {
        let advice = client
            .evaluate_transfers(vec![TransferSpec {
                source: Url::new("gsiftp", "gridftp-vm", format!("/d/f{n}.dat")),
                dest: Url::new("file", "obelix-nfs", format!("/s/f{n}.dat")),
                bytes: 1_000_000,
                requested_streams: None,
                workflow: WorkflowId(1),
                cluster: None,
                priority: None,
            }])
            .unwrap();
        assert!(advice[0].should_execute());
    }

    let text = client.metrics().unwrap();
    assert!(
        text.contains("pwm_policy_transfer_requests_total{session=\"default\"} 3"),
        "scrape missing request counter:\n{text}"
    );
    assert!(text.contains("# TYPE pwm_policy_advice_latency_micros histogram"));
    assert!(text.contains("pwm_rules_firings_total"));

    // The event loop publishes its own readiness/queue-depth series on the
    // same scrape.
    for metric in [
        "pwm_rest_event_loop_wakeups_total",
        "pwm_rest_requests_total",
        "pwm_rest_batched_requests_total",
        "pwm_rest_open_connections",
        "pwm_rest_write_backlog_bytes",
    ] {
        assert!(text.contains(metric), "scrape missing {metric}:\n{text}");
    }

    // The per-session trace dump validates too (evaluation instants were
    // stamped with the attached sim clock).
    let trace = client.trace().unwrap();
    let events = validate_chrome_trace(&trace).expect("session trace validates");
    assert!(events >= 3, "one instant per evaluation, got {events}");
}

/// A named session's counters carry its `session` label, and pipelined
/// traffic drives the event loop's batched counter.
#[test]
fn session_metrics_carry_session_labels() {
    let controller = PolicyController::new(PolicyConfig::default());
    controller.create_session("grid", PolicyConfig::default());
    let server = PolicyRestServer::start(controller).unwrap();
    let client = PolicyRestClient::new(server.addr(), "grid");

    // 32 requests over 32 distinct host pairs, pipelined in one window so
    // the event loop collapses them into batched rules passes.
    let groups: Vec<Vec<TransferSpec>> = (0..32u32)
        .map(|n| {
            vec![TransferSpec {
                source: Url::new("gsiftp", format!("gridftp-{n}"), format!("/d/f{n}.dat")),
                dest: Url::new("file", format!("scratch-{n}"), format!("/s/f{n}.dat")),
                bytes: 1_000_000,
                requested_streams: None,
                workflow: WorkflowId(1),
                cluster: None,
                priority: None,
            }]
        })
        .collect();
    let advice = client.evaluate_transfers_pipelined(&groups).unwrap();
    assert_eq!(advice.len(), 32);

    let text = client.metrics().unwrap();

    // One series for the session, counting exactly the 32 requests issued.
    assert!(
        text.lines()
            .any(|l| l == "pwm_policy_transfer_requests_total{session=\"grid\"} 32"),
        "session request counter missing or wrong:\n{text}"
    );

    // The batched path served the pipelined window.
    let batched = text
        .lines()
        .find(|l| l.starts_with("pwm_rest_batched_requests_total"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<u64>().ok())
        .expect("batched counter present");
    assert!(
        batched >= 32,
        "a 32-deep pipelined window must be served by the batched path, got {batched}"
    );
}

/// The simulation event queue's health series reach the Prometheus render
/// end to end: a traced run (executor → network → queue) publishes
/// `sim_queue_*` gauges labeled with the queue kind, and the ladder's
/// geometry series (current bucket / rungs / overflow) are present. Pinning
/// the experiment to the heap oracle relabels the same series.
#[test]
fn queue_health_series_reach_the_metrics_render() {
    let (stats, obs) = small_experiment().run_once_traced(7);
    assert!(stats.success);
    let text = obs.registry.render_prometheus();
    for metric in [
        "sim_queue_depth{queue=\"ladder\"}",
        "sim_queue_current_bucket_events{queue=\"ladder\"}",
        "sim_queue_rung_events{queue=\"ladder\"}",
        "sim_queue_overflow_events{queue=\"ladder\"}",
        "sim_queue_active_rungs{queue=\"ladder\"}",
        "sim_queue_cancelled_total{queue=\"ladder\"}",
    ] {
        assert!(text.contains(metric), "scrape missing {metric}:\n{text}");
    }
    // The series carry parseable sample values (the engine moves ETAs with
    // in-place `reschedule`, so the cancel counter may legitimately read 0;
    // it must still render as a number).
    for name in ["sim_queue_depth", "sim_queue_cancelled_total"] {
        let v = text
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or_else(|| panic!("{name} must render a numeric sample"));
        assert!(v.is_finite() && v >= 0.0, "{name} rendered {v}");
    }

    // The queue knob relabels the series with the heap oracle's name.
    let mut exp = small_experiment();
    exp.queue = pwm_sim::QueueKind::Heap;
    let (stats, obs) = exp.run_once_traced(7);
    assert!(stats.success);
    let text = obs.registry.render_prometheus();
    assert!(
        text.contains("sim_queue_depth{queue=\"heap\"}"),
        "heap-pinned run must label queue series with queue=\"heap\":\n{text}"
    );
}
