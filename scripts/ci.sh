#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test =="
cargo test -q --workspace --offline

# Chaos job: the fault-injection suite in release mode with fixed seeds
# (the seeds are baked into tests/chaos_faults.rs; release catches
# timing-sensitive determinism regressions the debug run might mask).
echo "== cargo test --release (chaos) =="
cargo test -q --release --offline --test chaos_faults

# Observability job: a traced paper-setup run must export a valid,
# non-empty Chrome trace, and a live /metrics scrape over the REST
# interface must succeed. Both commands exit nonzero on failure.
echo "== repro --trace + /metrics scrape =="
cargo build -q --release --offline -p pwm-bench --bin repro
TRACE_OUT="$(mktemp /tmp/pwm-trace.XXXXXX.json)"
trap 'rm -f "$TRACE_OUT"' EXIT
./target/release/repro --trace "$TRACE_OUT" 1
test -s "$TRACE_OUT" || { echo "trace export is empty" >&2; exit 1; }
./target/release/repro validate-trace "$TRACE_OUT"
./target/release/repro scrape-metrics > /dev/null

# Crash-recovery job: the durability acceptance suite in release mode
# (seeded WAL crash points, warm-failover invariants, recovery
# determinism), then the cold-vs-warm recovery scenario through the repro
# binary — it exits nonzero if any recovery invariant is violated.
echo "== cargo test --release (crash recovery) =="
cargo test -q --release --offline --test crash_recovery
echo "== repro crash =="
./target/release/repro crash 7 > /dev/null

# Netbench job: the 1k-flow allocator-throughput smoke in release mode.
# The run itself takes ~1 s. `--min-events-per-sec 250000` is the engine
# floor: with the ladder queue and the cache-packed hot rows the committed
# BENCH_net.json records well over 1M events/s for this scenario, so a 4x+
# margin absorbs CI-machine noise (shared runners measure this engine
# anywhere across a ~2x band minute to minute) while still catching
# structural regressions — losing the O(1) queue or the one-line flow rows
# costs integer factors, and the incremental engine silently falling back
# to full recomputes runs at ~400 events/s. Throughput is judged
# best-of-3: a single cold run on a noisy shared runner can land anywhere
# in that band, so the gate retries up to two times and fails only when
# every attempt misses the floor — flake-resistant without weakening the
# structural check. The JSON report (last passing attempt, or the final
# failing one) is recorded as a build artifact next to the committed
# BENCH_net.json (full suite).
echo "== netbench smoke (1k flows, 250k events/s floor, best of 3) =="
cargo build -q --release --offline -p pwm-bench --bin netbench
mkdir -p target/netbench
netbench_ok=0
for attempt in 1 2 3; do
  if timeout 120 ./target/release/netbench smoke --min-events-per-sec 250000 \
    --out target/netbench/BENCH_net.json > /dev/null; then
    netbench_ok=1
    break
  fi
  echo "netbench smoke attempt ${attempt} missed the floor" >&2
done
[ "$netbench_ok" = 1 ] || { echo "netbench smoke failed 3/3 attempts" >&2; exit 1; }
test -s target/netbench/BENCH_net.json || { echo "netbench report is empty" >&2; exit 1; }

# Differential job: the arena fact store and both event queues (indexed
# heap and ladder) are locked to their straightforward oracles (legacy
# map-backed working memory, sorted-Vec queue) by randomized lockstep
# suites — the queue suite drives heap and ladder side by side through
# cancel/reschedule storms, same-instant bursts, and far-future outliers,
# checking the ladder's internal invariants as it goes. The workspace
# run above already exercises them at the default case budgets (128 / 256);
# this release pass raises the budget 8x so CI walks a much deeper slice
# of the command space. PWM_PROPTEST_CASES is read at *compile* time
# (option_env!), so it is set on the cargo invocation, not the binary.
echo "== differential suites (release, 8x case budget) =="
PWM_PROPTEST_CASES=1024 cargo test -q --release --offline \
  -p pwm-rules --test facts_differential
PWM_PROPTEST_CASES=2048 cargo test -q --release --offline \
  -p pwm-sim --test event_differential

# Svcbench job: the Policy Service front-end smoke grid in release mode —
# two cells (connect-per-request baseline `depth1-noreuse`, pipelined and
# batched `depth16`) against the live event-driven REST server. `--min-speedup 2` makes the
# run exit nonzero unless the batched path beats the pre-change
# connect-per-request client by at least 2x (the full grid in the
# committed BENCH_svc.json shows >5x); this catches regressions that
# silently knock the event loop back to request-per-round-trip economics.
echo "== svcbench smoke (policy front end) =="
cargo build -q --release --offline -p pwm-bench --bin svcbench
mkdir -p target/svcbench
timeout 300 ./target/release/svcbench smoke --min-speedup 2 \
  --out target/svcbench/BENCH_svc.json > /dev/null
test -s target/svcbench/BENCH_svc.json || { echo "svcbench report is empty" >&2; exit 1; }

# Storagebench job: the storage-backend frontier smoke in release mode —
# three fixed-backend comparators (NFS / parallel FS / object store)
# against the three policy-picked runs over the same trio. The bin exits
# nonzero on any cost-invariant violation: inconsistent accounting
# (component sums, metered bytes != staged bytes), a non-monotone
# makespan-vs-dollars Pareto frontier, or no policy-picked run beating
# the worst fixed backend on cost at equal-or-better makespan. The full
# suite's JSON is committed as BENCH_storage.json.
echo "== storagebench smoke (backend cost frontier) =="
cargo build -q --release --offline -p pwm-bench --bin storagebench
mkdir -p target/storagebench
timeout 120 ./target/release/storagebench smoke \
  --out target/storagebench/BENCH_storage.json > /dev/null
test -s target/storagebench/BENCH_storage.json || { echo "storagebench report is empty" >&2; exit 1; }

# Resiliencebench job: the failure-domain sweep smoke in release mode —
# the fault-intensity ladder (calm / rough / turbulent) × policy-guided vs
# naive-retry recovery, every cell run twice. The bin exits nonzero on any
# incomplete workflow at any swept intensity, any same-seed determinism
# mismatch, staged bytes differing from one clean copy per input, or a
# turbulent-cell policy-guided speedup below the committed 1.2x floor.
# The full suite's JSON is committed as BENCH_resilience.json.
echo "== resiliencebench smoke (failure domains, guided vs naive) =="
cargo build -q --release --offline -p pwm-bench --bin resiliencebench
mkdir -p target/resiliencebench
timeout 120 ./target/release/resiliencebench smoke \
  --out target/resiliencebench/BENCH_resilience.json > /dev/null
test -s target/resiliencebench/BENCH_resilience.json || { echo "resiliencebench report is empty" >&2; exit 1; }

# Perfbench job: the end-to-end benchmark is a separate Cargo package
# that calls the workspace crates' public APIs. Building and testing it
# here makes a change that removes or renames an item it uses fail CI
# instead of the next benchmark run.
echo "== perfbench (build + tests) =="
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "CI OK"
