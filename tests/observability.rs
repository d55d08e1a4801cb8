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

/// Sample values of every series in a Prometheus exposition, keyed by the
/// series name with its label set (`name{k="v",...}`).
fn samples(text: &str) -> std::collections::BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Sum of one per-rule counter family over the rules of `session`.
fn rule_family_sum(samples: &std::collections::BTreeMap<String, f64>, family: &str) -> u64 {
    let session = "session=\"default\"";
    samples
        .iter()
        .filter(|(k, _)| k.starts_with(&format!("{family}{{")) && k.contains(session))
        .map(|(_, v)| *v as u64)
        .sum()
}

/// Every series the service publishes agrees with its accessors after
/// every call of a seeded Montage greedy session: the cached registry
/// handles must publish exactly what per-call lookups would.
fn assert_metrics_match_accessors(controller: &PolicyController, call: &str) {
    use pwm_core::DEFAULT_SESSION as S;
    let m = samples(&controller.render_metrics());
    let get = |series: &str| m.get(series).copied().unwrap_or(0.0);
    let stats = controller.stats(S).unwrap();
    for (name, value) in [
        (
            "pwm_policy_transfer_requests_total",
            stats.transfer_requests,
        ),
        (
            "pwm_policy_transfers_executed_total",
            stats.transfers_executed,
        ),
        (
            "pwm_policy_transfers_suppressed_total",
            stats.transfers_suppressed,
        ),
        (
            "pwm_policy_transfers_completed_total",
            stats.transfers_completed,
        ),
        ("pwm_policy_transfers_failed_total", stats.transfers_failed),
        ("pwm_policy_cleanup_requests_total", stats.cleanup_requests),
        (
            "pwm_policy_cleanups_executed_total",
            stats.cleanups_executed,
        ),
        (
            "pwm_policy_cleanups_suppressed_total",
            stats.cleanups_suppressed,
        ),
        ("pwm_policy_rule_firings_total", stats.rule_firings),
    ] {
        assert_eq!(
            get(&format!("{name}{{session=\"default\"}}")),
            value as f64,
            "{name} after {call}"
        );
    }
    let audit = controller.audit_since(S, 0).unwrap();
    let recorded = audit.last().map_or(0, |r| r.seq + 1);
    assert_eq!(
        get("pwm_policy_audit_dropped_total{session=\"default\"}"),
        (recorded - audit.len() as u64) as f64,
        "audit evictions after {call}"
    );

    let snap = controller.snapshot(S).unwrap();
    for (name, value) in [
        (
            "pwm_policy_in_progress_transfers",
            snap.in_progress_transfers,
        ),
        ("pwm_policy_staged_files", snap.staged_files),
        ("pwm_policy_staging_files", snap.staging_files),
        ("pwm_policy_in_progress_cleanups", snap.in_progress_cleanups),
    ] {
        assert_eq!(
            m.get(&format!("{name}{{session=\"default\"}}")).copied(),
            Some(value as f64),
            "{name} after {call}"
        );
    }
    for pair in &snap.host_pairs {
        let labels = format!(
            "{{dst=\"{}\",session=\"default\",src=\"{}\"}}",
            pair.dst_host, pair.src_host
        );
        assert_eq!(
            m.get(&format!("pwm_policy_allocated_streams{labels}"))
                .copied(),
            Some(f64::from(pair.allocated)),
            "allocated gauge after {call}"
        );
        assert_eq!(
            m.get(&format!("pwm_policy_peak_allocated_streams{labels}"))
                .copied(),
            Some(f64::from(pair.peak_allocated)),
            "peak gauge after {call}"
        );
    }

    let rules = controller.rule_stats(S).unwrap();
    for (family, total) in [
        (
            "pwm_rules_evaluations_total",
            rules.iter().map(|r| r.evaluations).sum::<u64>(),
        ),
        (
            "pwm_rules_matches_total",
            rules.iter().map(|r| r.matches).sum(),
        ),
        (
            "pwm_rules_firings_total",
            rules.iter().map(|r| r.firings).sum(),
        ),
    ] {
        assert_eq!(rule_family_sum(&m, family), total, "{family} after {call}");
    }
}

#[test]
fn cached_metric_handles_track_a_montage_session() {
    use pwm_core::{
        AllocationPolicy, CleanupOutcome, CleanupSpec, ClusterId, TransferOutcome,
        DEFAULT_SESSION as S,
    };
    use pwm_workflow::{plan, ComputeSite, PlanJobKind, PlannerConfig};

    let (_topo, gridftp, apache, nfs) = pwm_net::paper_testbed();
    let site = ComputeSite {
        name: "obelix".into(),
        nodes: 9,
        cores_per_node: 6,
        storage_host: nfs,
        storage_host_name: "obelix-nfs".into(),
        scratch_dir: "/scratch".into(),
    };
    let wf = pwm_montage::montage_workflow(&pwm_montage::MontageConfig {
        extra_file_bytes: mb(1),
        seed: 5,
        ..Default::default()
    });
    let rc = pwm_montage::montage_replicas(&wf, ("apache-isi", apache), ("gridftp-vm", gridftp));
    let p = plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap();

    // A small audit ring, so the eviction counter moves too.
    let controller = PolicyController::new(
        PolicyConfig::default()
            .with_default_streams(8)
            .with_threshold(50)
            .with_allocation(AllocationPolicy::Greedy)
            .with_audit_retention(64),
    );

    // Stage-in groups in plan order; completions are reported every third
    // group so transfers are in flight at most checks. Each first group is
    // re-requested once, which takes the staged-duplicate path.
    let mut pending = Vec::new();
    let mut first_group = None;
    let mut stage_ins = 0;
    for job in p.jobs() {
        let PlanJobKind::StageIn { transfers, cluster } = &job.kind else {
            continue;
        };
        let group: Vec<TransferSpec> = transfers
            .iter()
            .map(|pt| TransferSpec {
                source: pt.source.clone(),
                dest: pt.dest.clone(),
                bytes: pt.bytes,
                requested_streams: None,
                workflow: WorkflowId(1),
                cluster: cluster.map(ClusterId),
                priority: Some(job.priority),
            })
            .collect();
        first_group.get_or_insert_with(|| group.clone());
        let advice = controller.evaluate_transfers(S, group).unwrap();
        assert_metrics_match_accessors(&controller, "evaluate_transfers");
        pending.extend(
            advice
                .iter()
                .filter(|a| a.should_execute())
                .map(|a| TransferOutcome {
                    id: a.id,
                    success: true,
                }),
        );
        stage_ins += 1;
        if stage_ins % 3 == 0 {
            controller
                .report_transfers(S, std::mem::take(&mut pending))
                .unwrap();
            assert_metrics_match_accessors(&controller, "report_transfers");
        }
    }
    controller.report_transfers(S, pending).unwrap();
    assert_metrics_match_accessors(&controller, "report_transfers");
    for spec in first_group.expect("Montage has staging jobs") {
        controller.evaluate_transfers(S, vec![spec]).unwrap();
        assert_metrics_match_accessors(&controller, "duplicate evaluate_transfers");
    }

    // Cleanup jobs in plan order, each reported right away.
    for job in p.jobs() {
        let PlanJobKind::Cleanup { files } = &job.kind else {
            continue;
        };
        let specs = files
            .iter()
            .map(|(file, _)| CleanupSpec {
                file: file.clone(),
                workflow: WorkflowId(1),
            })
            .collect();
        let advice = controller.evaluate_cleanups(S, specs).unwrap();
        assert_metrics_match_accessors(&controller, "evaluate_cleanups");
        let outcomes = advice
            .iter()
            .filter(|a| a.should_execute())
            .map(|a| CleanupOutcome {
                id: a.id,
                success: true,
            })
            .collect();
        controller.report_cleanups(S, outcomes).unwrap();
        assert_metrics_match_accessors(&controller, "report_cleanups");
    }
    let stats = controller.stats(S).unwrap();
    assert!(stats.transfers_suppressed > 0 && stats.cleanups_executed > 0);

    // Re-attaching observability moves every later series to the new
    // registry; the old one stops changing.
    let before = controller.render_metrics();
    let fresh = pwm_obs::Obs::new();
    controller.attach_obs(S, fresh.clone()).unwrap();
    controller
        .evaluate_transfers(
            S,
            vec![TransferSpec {
                source: Url::new("gsiftp", "gridftp-vm", "/d/after-attach.dat"),
                dest: Url::new("file", "obelix-nfs", "/s/after-attach.dat"),
                bytes: 1_000_000,
                requested_streams: None,
                workflow: WorkflowId(2),
                cluster: None,
                priority: None,
            }],
        )
        .unwrap();
    assert_eq!(
        controller.render_metrics(),
        before,
        "old registry moved after re-attach"
    );
    let m = samples(&fresh.registry.render_prometheus());
    assert_eq!(
        m.get("pwm_policy_transfer_requests_total{session=\"default\"}"),
        Some(&1.0)
    );
    assert_eq!(
        m.get("pwm_policy_advice_latency_micros_count{kind=\"evaluate_transfers\",session=\"default\"}"),
        Some(&1.0)
    );
    assert_eq!(
        m.get("pwm_policy_in_progress_transfers{session=\"default\"}"),
        Some(&1.0)
    );
    assert!(rule_family_sum(&m, "pwm_rules_evaluations_total") > 0);
    assert!(rule_family_sum(&m, "pwm_rules_firings_total") > 0);
}
