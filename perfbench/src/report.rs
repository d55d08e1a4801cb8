//! The metric catalogue and the printed result.
//!
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

use crate::timed::CallKind;
use pwm_obs::JsonValue;

/// End-to-end metrics, printed with `--trace 0`: (name, unit).
pub const END_TO_END: [(&str, &str); 9] = [
    ("run_wall_ms_p50", "ms"),
    ("run_wall_ms_p90", "ms"),
    ("runs_per_s", "1/s"),
    ("cpu_ms_per_run", "ms"),
    ("advice_rpc_us_p50", "us"),
    ("advice_rpc_us_p99", "us"),
    ("makespan_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Storage backends of the turbulent scenario's ec2 trio.
pub const BACKENDS: [&str; 3] = ["nfs-std", "pfs-lustre", "obj-s3"];

/// Per-layer metrics, printed with `--trace 1`: (name, unit).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    add("montage.gen_ms", "ms");
    add("workflow.plan_ms", "ms");
    add("workflow.exec_self_ms", "ms");
    add("net.recomputes", "count");
    add("net.skip_ratio", "ratio");
    add("net.component_runs", "count");
    add("net.flows_allocated", "count");
    add("net.unchanged_writes", "count");
    add("net.flows_completed", "count");
    for k in CallKind::ALL {
        add(&format!("core.calls.{}", k.name()), "count");
    }
    add("core.busy_ms", "ms");
    for k in CallKind::ALL {
        add(&format!("core.rpc_us_p50.{}", k.name()), "us");
    }
    add("core.service_ms", "ms");
    add("core.glue_ms", "ms");
    add("rules.eval_ms", "ms");
    add("rules.evaluations", "count");
    add("rules.firings", "count");
    add("rules.fire_ratio", "ratio");
    for k in CallKind::ALL {
        add(&format!("rest.rpc_us_p50.{}", k.name()), "us");
    }
    add("rest.self_us_per_rpc", "us");
    add("rest.requests", "count");
    add("rest.wakeups_per_request", "ratio");
    add("rest.batched_share", "ratio");
    add("rest.wait_ms", "ms");
    for b in BACKENDS {
        add(&format!("storage.bytes_put.{b}"), "bytes");
    }
    for b in BACKENDS {
        add(&format!("storage.dollars.{b}"), "usd");
    }
    add("recovery.flows_killed", "count");
    add("recovery.replica_failovers", "count");
    add("recovery.quarantines", "count");
    add("recovery.producer_reruns", "count");
    add("recovery.health_reports", "count");
    add("recovery.waits_for_restart", "count");
    add("obs.overhead_ratio", "ratio");
    add("obs.spans", "count");
    add("obs.accounted_ratio", "ratio");
    m
}

/// Metric values being filled in against a declared catalogue.
pub struct Metrics {
    declared: Vec<(String, &'static str)>,
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// An empty set over `declared`.
    pub fn new(declared: Vec<(String, &'static str)>) -> Metrics {
        let values = vec![None; declared.len()];
        Metrics { declared, values }
    }

    /// The end-to-end catalogue.
    pub fn end_to_end() -> Metrics {
        Metrics::new(
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect(),
        )
    }

    /// The per-layer catalogue.
    pub fn per_layer() -> Metrics {
        Metrics::new(per_layer())
    }

    /// Set a declared metric.
    ///
    /// # Panics
    /// If `name` is not in the catalogue (a bug in the benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .declared
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values[i] = Some(value);
    }

    /// (name, value, unit) of every metric, in catalogue order.
    ///
    /// # Panics
    /// If a declared metric was never set (a bug in the benchmark).
    pub fn entries(&self) -> Vec<(&str, f64, &'static str)> {
        self.declared
            .iter()
            .zip(&self.values)
            .map(|((n, u), v)| {
                (
                    n.as_str(),
                    v.unwrap_or_else(|| panic!("metric {n} was not measured")),
                    *u,
                )
            })
            .collect()
    }
}

/// The result line the benchmark prints last.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let members = metrics
        .entries()
        .into_iter()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                JsonValue::Obj(vec![
                    ("value".into(), JsonValue::Float(value)),
                    ("unit".into(), JsonValue::Str(unit.into())),
                ]),
            )
        })
        .collect();
    JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::Int(attempted as i64)),
        ("failed".into(), JsonValue::Int(failed as i64)),
        ("metrics".into(), JsonValue::Obj(members)),
    ])
    .render()
}
