//! Policy Service front-end throughput benchmark — see `pwm_bench::svcbench`.
//!
//! ```text
//! svcbench [smoke] [--out PATH] [--min-speedup X]
//! ```
//!
//! Runs the pipeline-depth grid against the live event-driven
//! REST server, 10k concurrent logical sessions per cell, and reports
//! advice requests per second plus amortized per-request latency
//! percentiles. `smoke` runs a reduced two-cell grid (the CI job).
//! With `--min-speedup X` the process exits 1 if the best cell's speedup
//! over the request-per-round-trip baseline falls below X — CI
//! uses this to assert the batched path actually pays for itself.
//! Progress goes to stderr through the `pwm-obs` leveled logger; the JSON
//! report is printed to stdout and, with `--out`, also written to PATH
//! (conventionally `BENCH_svc.json`).

use pwm_bench::svcbench::{baseline, best, report_json, run_suite, smoke_suite, standard_suite};
use pwm_obs::global_logger;

fn main() {
    let log = global_logger();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut min_speedup: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "smoke" => smoke = true,
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out = Some(p.clone()),
                    None => {
                        log.error("--out requires a path argument");
                        std::process::exit(2);
                    }
                }
            }
            "--min-speedup" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    Some(x) => min_speedup = Some(x),
                    None => {
                        log.error("--min-speedup requires a numeric argument");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                log.error(&format!("unknown argument: {other}"));
                eprintln!("usage: svcbench [smoke] [--out PATH] [--min-speedup X]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let suite = if smoke {
        smoke_suite()
    } else {
        standard_suite()
    };
    log.info(&format!(
        "svcbench: running {} cell(s){}",
        suite.len(),
        if smoke { " (smoke)" } else { "" }
    ));
    let results = run_suite(&suite);
    let doc = report_json(&results);
    let text = doc.render();
    println!("{text}");
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, format!("{text}\n")) {
            log.error(&format!("failed to write {path}: {e}"));
            std::process::exit(1);
        }
        log.info(&format!("svcbench: report written to {path}"));
    }
    if let Some(min) = min_speedup {
        let base = baseline(&results)
            .map(|r| r.req_per_sec)
            .unwrap_or(f64::NAN);
        let speedup = best(&results).map(|r| r.req_per_sec / base).unwrap_or(0.0);
        if speedup.is_nan() || speedup < min {
            log.error(&format!(
                "svcbench: best speedup {speedup:.2}x below required {min:.2}x"
            ));
            std::process::exit(1);
        }
        log.info(&format!(
            "svcbench: best speedup {speedup:.2}x ≥ required {min:.2}x"
        ));
    }
}
