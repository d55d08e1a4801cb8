//! `perfbench`: whole workflow runs (generate → plan → execute, every
//! policy call included) as a closed loop on one thread, with a separate
//! traced pass that attributes host time to layers.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; both check the outputs and exit 1 if a check fails. The last line
//! of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.

use perfbench::check::{Checker, Fingerprint, Tally};
use perfbench::host::{mean, median, peak_rss_mb, process_cpu, LatencyHistogram, ServiceCounters};
use perfbench::report::{result_json, Metrics, BACKENDS};
use perfbench::timed::{CallKind, CallRecord};
use perfbench::trace::{RunLayers, SpanLog};
use perfbench::workload::{Harness, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Distinct seeds per invocation. The loop cycles through them, so every
/// repeat of a seed re-checks determinism, and *sim* metrics are means over
/// exactly this set whatever the host speed.
const SEEDS_PER_PASS: usize = 32;
/// Set-ups per invocation; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Warm-up runs inside each set-up.
const WARMUP_RUNS: usize = 5;
/// Traced runs written to the Chrome trace (all of them feed the figures).
const TRACE_EXPORT_RUNS: u32 = 8;
/// Where the Chrome trace goes, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

const USAGE: &str = "usage: perfbench --workload <montage-greedy|montage-nopolicy|montage-rest|recovery-turbulent> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds {value} out of range"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The invocation's seed set, disjoint for distinct `base` values.
fn seed_set(base: u64) -> Vec<u64> {
    (0..SEEDS_PER_PASS as u64)
        .map(|i| base.wrapping_mul(SEEDS_PER_PASS as u64).wrapping_add(i))
        .collect()
}

/// Build the harness and warm it up, `SETUP_REPEATS` times; returns the last
/// harness and the median set-up time in seconds.
fn set_up(workload: Workload, seeds: &[u64]) -> std::io::Result<(Harness, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut harness = None;
    for _ in 0..SETUP_REPEATS {
        // Tear the previous one down (REST: stop its server) before timing.
        drop(harness.take());
        let start = Instant::now();
        let h = Harness::new(workload)?;
        for &seed in &seeds[..WARMUP_RUNS] {
            h.run(seed);
        }
        times.push(start.elapsed().as_secs_f64());
        harness = Some(h);
    }
    Ok((harness.expect("at least one set-up"), median(&times)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seeds = seed_set(args.seed);
    let (harness, setup_s) = match set_up(args.workload, &seeds) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perfbench {} seed {} ({} seeds {}..={}), closed loop, 1 client, {} s{}",
        args.workload.name(),
        args.seed,
        seeds.len(),
        seeds[0],
        seeds[seeds.len() - 1],
        args.seconds.as_secs_f64(),
        if args.trace { ", traced" } else { "" }
    );
    let mut checker = Checker::new(args.workload, seeds.len());
    let (metrics, tally) = if args.trace {
        traced(&harness, &seeds, args.seconds, &mut checker)
    } else {
        untraced(&harness, &seeds, args.seconds, setup_s, &mut checker)
    };
    if args.workload == Workload::MontageRest {
        cross_check_rest(&seeds, &mut checker);
    }

    for (name, value, unit) in metrics.entries() {
        println!("  {name:<36} {value} {unit}");
    }
    for message in checker.messages() {
        println!("CHECK FAILED: {message}");
    }
    let correct = checker.failures() == 0;
    println!(
        "{}",
        result_json(correct, tally.attempted(), tally.failed(), &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `montage-rest` must make exactly the decisions of in-process greedy.
fn cross_check_rest(seeds: &[u64], checker: &mut Checker) {
    let reference = Harness::new(Workload::MontageGreedy).expect("in-process harness");
    let mismatched: Vec<u64> = checker
        .first_pass()
        .zip(seeds)
        .filter(|(fp, &seed)| reference.run(seed).stats != fp.stats)
        .map(|(_, &seed)| seed)
        .collect();
    for seed in mismatched {
        checker.fail(format!(
            "seed {seed}: REST RunStats differ from in-process greedy"
        ));
    }
}

/// One seed's repeats in the timed loop, summed.
#[derive(Debug, Clone, Copy, Default)]
struct SeedSums {
    runs: f64,
    wall_ms: f64,
    /// Sum over runs of the run's median policy-call latency.
    rpc_p50_us: f64,
}

/// Median latency of one run's policy calls (0 without calls).
fn run_median_us(calls: &[CallRecord]) -> f64 {
    let mut ns: Vec<u64> = calls.iter().map(|c| c.nanos()).collect();
    if ns.is_empty() {
        return 0.0;
    }
    let mid = ns.len() / 2;
    *ns.select_nth_unstable(mid).1 as f64 / 1e3
}

/// The timed loop: runs until `seconds` have passed and every seed has run.
///
/// The medians are taken over the seed set, of each seed's mean over its
/// repeats. Host contention comes in two levels lasting seconds, so the
/// median over raw runs jumps from one level to the other as their mix
/// passes one half; a per-seed mean moves with the mix smoothly. The tails
/// (p90, p99) are over every run and call.
fn untraced(
    h: &Harness,
    seeds: &[u64],
    seconds: Duration,
    setup_s: f64,
    checker: &mut Checker,
) -> (Metrics, Tally) {
    let mut walls_ms = Vec::new();
    let mut sums = vec![SeedSums::default(); seeds.len()];
    let mut rpc_ns = LatencyHistogram::default();
    let mut tally = Tally::default();
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let mut i = 0;
    while i < seeds.len() || t0.elapsed() < seconds {
        let slot = i % seeds.len();
        let start = Instant::now();
        let out = h.run(seeds[slot]);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        walls_ms.push(wall_ms);
        let seed = &mut sums[slot];
        seed.runs += 1.0;
        seed.wall_ms += wall_ms;
        seed.rpc_p50_us += run_median_us(&out.calls);
        for c in &out.calls {
            rpc_ns.record(c.nanos());
        }
        tally.add(out.stats.success, &out.calls);
        checker.observe(slot, seeds[slot], &out, None);
        i += 1;
    }
    let loop_s = t0.elapsed().as_secs_f64();
    let cpu_s = (process_cpu() - cpu0).as_secs_f64();
    let runs = walls_ms.len() as f64;

    let first: Vec<_> = checker.first_pass().collect();
    let makespan_s = mean(
        &first
            .iter()
            .map(|f| f.stats.makespan_secs())
            .collect::<Vec<_>>(),
    );
    println!(
        "  {} runs ({} per seed), {} policy calls timed; failed_share {} ratio",
        walls_ms.len(),
        tally.runs / seeds.len() as u64,
        rpc_ns.len(),
        tally.failed_share(),
    );
    if h.workload() == Workload::RecoveryTurbulent {
        let usd = first
            .iter()
            .map(|f| f.stats.storage.as_ref().map_or(0.0, |s| s.dollars_total));
        println!("  storage_cost_usd {} usd", mean(&usd.collect::<Vec<_>>()));
    }

    let mut m = Metrics::end_to_end();
    let seed_means =
        |f: fn(&SeedSums) -> f64| -> Vec<f64> { sums.iter().map(|s| f(s) / s.runs).collect() };
    m.set("run_wall_ms_p50", median(&seed_means(|s| s.wall_ms)));
    m.set("run_wall_ms_p90", pwm_sim::percentile(&walls_ms, 0.9));
    m.set("runs_per_s", runs / loop_s);
    m.set("cpu_ms_per_run", cpu_s * 1e3 / runs);
    m.set("advice_rpc_us_p50", median(&seed_means(|s| s.rpc_p50_us)));
    m.set("advice_rpc_us_p99", rpc_ns.quantile(0.99) / 1e3);
    m.set("makespan_s", makespan_s);
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("setup_s", setup_s);
    (m, tally)
}

/// One traced run's figures besides its spans.
struct TracedRun {
    /// Wall including the tracing work (registry reads, span recording).
    wall_ms: f64,
    cpu_ms: f64,
    service: ServiceCounters,
}

/// The traced pass: each seed runs untraced, then traced, so the two walls
/// see the same seeds and the same host conditions. Times are means over
/// the traced runs.
fn traced(
    h: &Harness,
    seeds: &[u64],
    seconds: Duration,
    checker: &mut Checker,
) -> (Metrics, Tally) {
    let workload = h.workload();
    let mut spans = SpanLog::new(Instant::now());
    let mut untraced_ms = Vec::new();
    let mut runs: Vec<TracedRun> = Vec::new();
    let mut tally = Tally::default();
    let shared_counters = || {
        h.shared_controller()
            .map(|c| ServiceCounters::from_prometheus(&c.render_metrics()))
    };
    let t0 = Instant::now();
    let mut k = 0;
    while k < seeds.len() || t0.elapsed() < seconds {
        let slot = k % seeds.len();
        let seed = seeds[slot];

        let start = Instant::now();
        let out = h.run(seed);
        untraced_ms.push(start.elapsed().as_secs_f64() * 1e3);
        tally.add(out.stats.success, &out.calls);
        checker.observe(slot, seed, &out, None);

        let cpu0 = process_cpu();
        let start = Instant::now();
        let before = shared_counters().unwrap_or_default();
        let out = h.run(seed);
        let after = match &out.controller {
            Some(c) => ServiceCounters::from_prometheus(&c.render_metrics()),
            None => shared_counters().unwrap_or_default(),
        };
        spans.record_run(&out.phases, &out.calls);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let service = after.since(&before);
        runs.push(TracedRun {
            wall_ms,
            cpu_ms: (process_cpu() - cpu0).as_secs_f64() * 1e3,
            service,
        });
        tally.add(out.stats.success, &out.calls);
        checker.observe(
            slot,
            seed,
            &out,
            Some((service.rules_evaluations, service.rules_firings)),
        );
        k += 1;
    }

    let path = format!("{OUT_DIR}/{}.trace.json", workload.name());
    let json = spans.chrome_trace(TRACE_EXPORT_RUNS);
    if let Err(e) = pwm_obs::validate_chrome_trace(&json) {
        checker.fail(format!("Chrome trace invalid: {e}"));
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, json)) {
        checker.fail(format!("cannot write {path}: {e}"));
    }
    println!(
        "  {} traced + {} untraced runs, {} spans; first {TRACE_EXPORT_RUNS} traced runs in {path}",
        runs.len(),
        untraced_ms.len(),
        spans.spans().len()
    );

    let layers = spans.layers();
    let avg = |f: &dyn Fn(&TracedRun, &RunLayers) -> f64| {
        mean(
            &runs
                .iter()
                .zip(&layers)
                .map(|(r, l)| f(r, l))
                .collect::<Vec<_>>(),
        )
    };
    let ms = |ns: u64| ns as f64 / 1e6;
    let gen_ms = avg(&|_, l| ms(l.generate_ns));
    let plan_ms = avg(&|_, l| ms(l.plan_ns));
    let exec_self_ms = avg(&|_, l| ms(l.exec_self_ns));
    let busy_ms = avg(&|_, l| ms(l.call_ns()));
    let service_ms = avg(&|r, _| r.service.advice_micros / 1e3);
    let service = |f: &dyn Fn(&ServiceCounters) -> f64| avg(&|r, _| f(&r.service));
    let call_p50_us = |kind: CallKind| {
        let us: Vec<f64> = layers
            .iter()
            .flat_map(|l| l.calls.iter())
            .filter(|(k, _)| *k == kind)
            .map(|(_, ns)| *ns as f64 / 1e3)
            .collect();
        median(&us)
    };
    let calls_per_run = avg(&|_, l| l.calls.len() as f64);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let rest = workload == Workload::MontageRest;
    let traced_ms: Vec<f64> = runs.iter().map(|r| r.wall_ms).collect();

    // Exact counts: means over the seed set's reference runs.
    let first: Vec<_> = checker.first_pass().collect();
    let per_seed =
        |f: &dyn Fn(&Fingerprint) -> f64| mean(&first.iter().map(|fp| f(fp)).collect::<Vec<_>>());

    let mut m = Metrics::per_layer();
    m.set("montage.gen_ms", gen_ms);
    m.set("workflow.plan_ms", plan_ms);
    m.set("workflow.exec_self_ms", exec_self_ms);
    m.set("net.recomputes", per_seed(&|f| f.alloc.recomputes as f64));
    m.set(
        "net.skip_ratio",
        ratio(
            per_seed(&|f| f.alloc.skipped as f64),
            per_seed(&|f| f.alloc.recomputes as f64),
        ),
    );
    m.set(
        "net.component_runs",
        per_seed(&|f| f.alloc.component_runs as f64),
    );
    m.set(
        "net.flows_allocated",
        per_seed(&|f| f.alloc.flows_allocated as f64),
    );
    m.set(
        "net.unchanged_writes",
        per_seed(&|f| f.alloc.unchanged_writes as f64),
    );
    m.set(
        "net.flows_completed",
        per_seed(&|f| f.flows_completed as f64),
    );
    for kind in CallKind::ALL {
        m.set(
            &format!("core.calls.{}", kind.name()),
            per_seed(&|f| f.calls_of(kind) as f64),
        );
        let p50 = call_p50_us(kind);
        let (core, via_rest) = if rest { (0.0, p50) } else { (p50, 0.0) };
        m.set(&format!("core.rpc_us_p50.{}", kind.name()), core);
        m.set(&format!("rest.rpc_us_p50.{}", kind.name()), via_rest);
    }
    m.set("core.busy_ms", if rest { 0.0 } else { busy_ms });
    m.set("core.service_ms", service_ms);
    m.set(
        "core.glue_ms",
        if workload.in_process_service() {
            busy_ms - service_ms
        } else {
            0.0
        },
    );
    let evaluations = per_seed(&|f| f.rules.map_or(0.0, |r| r.0));
    let firings = per_seed(&|f| f.rules.map_or(0.0, |r| r.1));
    m.set("rules.eval_ms", service(&|s| s.rules_eval_nanos / 1e6));
    m.set("rules.evaluations", evaluations);
    m.set("rules.firings", firings);
    m.set("rules.fire_ratio", ratio(firings, evaluations));
    m.set(
        "rest.self_us_per_rpc",
        if rest {
            ratio((busy_ms - service_ms) * 1e3, calls_per_run)
        } else {
            0.0
        },
    );
    m.set("rest.requests", service(&|s| s.rest_requests));
    m.set(
        "rest.wakeups_per_request",
        ratio(service(&|s| s.rest_wakeups), service(&|s| s.rest_requests)),
    );
    m.set(
        "rest.batched_share",
        ratio(service(&|s| s.rest_batched), service(&|s| s.rest_requests)),
    );
    m.set("rest.wait_ms", avg(&|r, _| (r.wall_ms - r.cpu_ms).max(0.0)));
    for b in BACKENDS {
        let row = |f: &Fingerprint| {
            f.stats
                .storage
                .as_ref()
                .and_then(|s| s.backend(b))
                .map_or((0.0, 0.0), |r| (r.bytes_put, r.dollars_total))
        };
        m.set(&format!("storage.bytes_put.{b}"), per_seed(&|f| row(f).0));
        m.set(&format!("storage.dollars.{b}"), per_seed(&|f| row(f).1));
    }
    let recovery = |f: &Fingerprint| f.stats.recovery.clone().unwrap_or_default();
    m.set(
        "recovery.flows_killed",
        per_seed(&|f| recovery(f).flows_killed as f64),
    );
    m.set(
        "recovery.replica_failovers",
        per_seed(&|f| recovery(f).replica_failovers as f64),
    );
    m.set(
        "recovery.quarantines",
        per_seed(&|f| recovery(f).quarantines as f64),
    );
    m.set(
        "recovery.producer_reruns",
        per_seed(&|f| recovery(f).producer_reruns as f64),
    );
    m.set(
        "recovery.health_reports",
        per_seed(&|f| recovery(f).health_reports as f64),
    );
    m.set(
        "recovery.waits_for_restart",
        per_seed(&|f| recovery(f).waits_for_restart as f64),
    );
    m.set(
        "obs.overhead_ratio",
        median(&traced_ms) / median(&untraced_ms),
    );
    m.set("obs.spans", spans.spans().len() as f64 / runs.len() as f64);
    m.set(
        "obs.accounted_ratio",
        (gen_ms + plan_ms + exec_self_ms + busy_ms) / mean(&untraced_ms),
    );
    (m, tally)
}
