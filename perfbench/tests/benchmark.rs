//! The benchmark measures the program it claims to: the timing decorator
//! changes no decision, errors are counted, the checks catch what they
//! name, and `BENCHMARK.json` lists exactly the metrics the binary prints.

use perfbench::check::{Checker, Tally};
use perfbench::report::{per_layer, END_TO_END};
use perfbench::timed::{CallKind, CallLog, SharedTransport, Timed};
use perfbench::workload::{greedy_config, Harness, Workload, EXTRA_FILE_BYTES};
use pwm_bench::resilience::{intensity_ladder, run_cell, standard_scenario};
use pwm_bench::{MontageExperiment, PolicyMode};
use pwm_core::{
    CleanupAdvice, CleanupOutcome, CleanupSpec, InProcessTransport, NoPolicyTransport,
    PolicyController, PolicyTransport, TransferAdvice, TransferOutcome, TransferSpec,
    TransportError, Url, WorkflowId, DEFAULT_SESSION,
};
use pwm_montage::{montage_replicas, montage_workflow, MontageConfig};
use pwm_net::{paper_testbed, Network, StreamModel};
use pwm_obs::JsonValue;
use pwm_workflow::{plan, ComputeSite, ExecutorConfig, PlannerConfig, RunStats, WorkflowExecutor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const SEED: u64 = 7;

fn montage_reference(mode: PolicyMode) -> RunStats {
    MontageExperiment::paper_setup(EXTRA_FILE_BYTES, 8, mode).run_once(SEED)
}

#[test]
fn decorated_runs_match_the_undecorated_reference_runners() {
    let greedy = montage_reference(PolicyMode::Greedy { threshold: 50 });
    let turbulent = intensity_ladder()
        .into_iter()
        .find(|i| i.name == "turbulent")
        .expect("turbulent rung");
    let cases = [
        (Workload::MontageGreedy, greedy.clone()),
        (
            Workload::MontageNoPolicy,
            montage_reference(PolicyMode::NoPolicy),
        ),
        // REST must make the in-process greedy decisions exactly.
        (Workload::MontageRest, greedy),
        (
            Workload::RecoveryTurbulent,
            run_cell(
                &pwm_bench::ResilienceScenario {
                    seed: SEED,
                    ..standard_scenario()
                },
                &turbulent,
                true,
            ),
        ),
    ];
    for (workload, reference) in cases {
        let harness = Harness::new(workload).expect("harness");
        let out = harness.run(SEED);
        assert!(out.stats.success, "{}", workload.name());
        assert_eq!(out.stats, reference, "{} diverged", workload.name());
        // The executor counts every callout except health reports.
        let callouts = out
            .calls
            .iter()
            .filter(|c| c.kind != CallKind::ReportHealth)
            .count();
        assert_eq!(
            callouts as u64,
            out.stats.policy_calls,
            "{}: every call logged",
            workload.name()
        );
    }
}

fn spec(n: u32) -> TransferSpec {
    TransferSpec {
        source: Url::new("gsiftp", "src", format!("/f{n}")),
        dest: Url::new("file", "dst", format!("/f{n}")),
        bytes: 1_000,
        requested_streams: None,
        workflow: WorkflowId(1),
        cluster: None,
        priority: None,
    }
}

#[test]
fn decorator_forwards_every_call_unchanged() {
    let plain_controller = PolicyController::new(greedy_config());
    let mut plain = InProcessTransport::new(plain_controller.clone(), DEFAULT_SESSION);
    let timed_controller = PolicyController::new(greedy_config());
    let inner: SharedTransport = Arc::new(Mutex::new(InProcessTransport::new(
        timed_controller.clone(),
        DEFAULT_SESSION,
    )));
    let log = CallLog::default();
    let mut timed = Timed::new(inner, log.clone());

    let batch = vec![spec(1), spec(2), spec(1)];
    let a = plain.evaluate_transfers(batch.clone()).unwrap();
    let b = timed.evaluate_transfers(batch).unwrap();
    assert_eq!(a, b);
    let outcomes: Vec<TransferOutcome> = a
        .iter()
        .map(|x| TransferOutcome {
            id: x.id,
            success: true,
        })
        .collect();
    plain.report_transfers(outcomes.clone()).unwrap();
    timed.report_transfers(outcomes).unwrap();
    let cleanups = vec![CleanupSpec {
        file: Url::new("file", "dst", "/f1"),
        workflow: WorkflowId(1),
    }];
    let a = plain.evaluate_cleanups(cleanups.clone()).unwrap();
    let b = timed.evaluate_cleanups(cleanups).unwrap();
    assert_eq!(a, b);
    let done: Vec<CleanupOutcome> = a
        .iter()
        .map(|x| CleanupOutcome {
            id: x.id,
            success: true,
        })
        .collect();
    plain.report_cleanups(done.clone()).unwrap();
    timed.report_cleanups(done).unwrap();
    plain.report_health(Vec::new()).unwrap();
    timed.report_health(Vec::new()).unwrap();

    assert_eq!(
        plain_controller.stats(DEFAULT_SESSION).unwrap(),
        timed_controller.stats(DEFAULT_SESSION).unwrap()
    );
    let kinds: Vec<CallKind> = log.lock().unwrap().iter().map(|c| c.kind).collect();
    assert_eq!(kinds, CallKind::ALL);
}

/// Fails every third transfer evaluation; counts every call it receives.
struct Flaky {
    inner: NoPolicyTransport,
    evaluations: u64,
    received: Arc<AtomicU64>,
}

impl PolicyTransport for Flaky {
    fn evaluate_transfers(
        &mut self,
        batch: Vec<TransferSpec>,
    ) -> Result<Vec<TransferAdvice>, TransportError> {
        self.received.fetch_add(1, Ordering::Relaxed);
        self.evaluations += 1;
        if self.evaluations.is_multiple_of(3) {
            return Err(TransportError::Io("connection refused".into()));
        }
        self.inner.evaluate_transfers(batch)
    }

    fn report_transfers(&mut self, outcomes: Vec<TransferOutcome>) -> Result<(), TransportError> {
        self.received.fetch_add(1, Ordering::Relaxed);
        self.inner.report_transfers(outcomes)
    }

    fn evaluate_cleanups(
        &mut self,
        batch: Vec<CleanupSpec>,
    ) -> Result<Vec<CleanupAdvice>, TransportError> {
        self.received.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate_cleanups(batch)
    }

    fn report_cleanups(&mut self, outcomes: Vec<CleanupOutcome>) -> Result<(), TransportError> {
        self.received.fetch_add(1, Ordering::Relaxed);
        self.inner.report_cleanups(outcomes)
    }
}

#[test]
fn transport_errors_count_as_failed_calls() {
    let (topo, gridftp, apache, nfs) = paper_testbed();
    let site = ComputeSite {
        name: "obelix".into(),
        nodes: 9,
        cores_per_node: 6,
        storage_host: nfs,
        storage_host_name: "obelix-nfs".into(),
        scratch_dir: "/scratch".into(),
    };
    let workflow = montage_workflow(&MontageConfig {
        seed: SEED,
        ..Default::default()
    });
    let replicas = montage_replicas(&workflow, ("apache-isi", apache), ("gridftp-vm", gridftp));
    let executable = plan(&workflow, &site, &replicas, &PlannerConfig::default()).unwrap();
    let received = Arc::new(AtomicU64::new(0));
    let flaky: SharedTransport = Arc::new(Mutex::new(Flaky {
        inner: NoPolicyTransport::new(8),
        evaluations: 0,
        received: received.clone(),
    }));
    let log = CallLog::default();
    let transport = Box::new(Timed::new(flaky, log.clone()));
    let network = Network::with_seed(topo, StreamModel::default(), SEED);
    let cfg = ExecutorConfig {
        seed: SEED,
        ..ExecutorConfig::default()
    };
    let (stats, _) = WorkflowExecutor::new(&executable, &site, network, transport, cfg).run();

    let calls = log.lock().unwrap().clone();
    assert_eq!(calls.len() as u64, received.load(Ordering::Relaxed));
    let errors = calls.iter().filter(|c| !c.ok).count() as u64;
    assert!(errors > 0, "the flaky transport failed some calls");
    let mut tally = Tally::default();
    tally.add(stats.success, &calls);
    assert_eq!(tally.failed_calls, errors);
    assert_eq!(tally.attempted(), 1 + calls.len() as u64);
    assert!(tally.failed_share() > 0.0);
}

#[test]
fn checker_flags_divergence_and_table_iv_breaches() {
    let harness = Harness::new(Workload::MontageGreedy).unwrap();
    let out = harness.run(SEED);
    let mut checker = Checker::new(Workload::MontageGreedy, 1);
    checker.observe(0, SEED, &out, None);
    checker.observe(0, SEED, &harness.run(SEED), None);
    assert_eq!(checker.failures(), 0, "{:?}", checker.messages());

    let mut drifted = harness.run(SEED);
    drifted.alloc.recomputes += 1;
    checker.observe(0, SEED, &drifted, None);
    assert_eq!(checker.failures(), 1);

    let mut breach = harness.run(SEED);
    breach.stats.peak_wan_streams = Some(64);
    breach.stats.bytes_staged += 1.0;
    checker.observe(0, SEED, &breach, None);
    // Peak, bytes, and the divergence from the seed's first run.
    assert_eq!(checker.failures(), 4, "{:?}", checker.messages());
}

fn names_and_units(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let expected: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names_and_units(&doc, "end_to_end"), expected);
    let expected: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names_and_units(&doc, "per_layer"), expected);
    for w in doc.get("workloads").and_then(JsonValue::as_arr).unwrap() {
        let name = w.get("name").and_then(JsonValue::as_str).unwrap();
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}
