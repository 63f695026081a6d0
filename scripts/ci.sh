#!/usr/bin/env bash
# Offline CI for the fairhms workspace. Mirrors .github/workflows/ci.yml so
# the same gate runs locally and in any runner with a Rust toolchain — the
# workspace has no network dependencies (rand/criterion/proptest are
# vendored under vendor/).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

# Repo-invariant static analysis (rules R1–R6: total_cmp comparators,
# documented/confined unsafe, justified atomic orderings, acyclic
# lock-order graph + poison-recovering locks, clock-free hot paths,
# newline-safe wire literals — see docs/ARCHITECTURE.md, "Static
# analysis & enforced invariants"). Runs before the tests: a
# contract violation fails fast, without waiting on the test pass.
# The waiver baseline is pinned; adding a `fairhms-lint: allow(..)`
# waiver requires bumping it here with a justification in the diff.
FAIRHMS_LINT_WAIVER_BASELINE=7
echo "==> fairhms-lint --deny-all (waiver baseline: $FAIRHMS_LINT_WAIVER_BASELINE)"
cargo run -q -p fairhms-lint -- --deny-all --max-waivers "$FAIRHMS_LINT_WAIVER_BASELINE"

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

# The examples call the library the way a user would, so run each one
# rather than only compiling it under clippy (about 3 s in release).
echo "==> run every example"
for example in examples/*.rs; do
  name="$(basename "$example" .rs)"
  echo "  -> $name"
  cargo run --release -q --example "$name" > /dev/null
done

# perfbench is its own workspace, so the steps above never compile it; a
# service API break would otherwise surface only when the benchmark runs.
echo "==> cargo check perfbench (against the workspace crates)"
cargo check --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q"
cargo test -q

echo "==> bench smoke (service engine + wire codecs + warm-start + BiGreedy + skyline + LP greedy)"
FAIRHMS_BENCH_MS="${FAIRHMS_BENCH_MS:-25}" cargo bench -p fairhms-bench --bench service
FAIRHMS_BENCH_MS="${FAIRHMS_BENCH_MS:-25}" cargo bench -p fairhms-bench --bench protocol
FAIRHMS_BENCH_MS="${FAIRHMS_BENCH_MS:-25}" cargo bench -p fairhms-bench --bench warmstart
# BiGreedy/BiGreedy+ end-to-end bench: no other step runs it, so smoke
# it here to keep it compiling and running.
FAIRHMS_BENCH_MS="${FAIRHMS_BENCH_MS:-25}" cargo bench -p fairhms-bench --bench bigreedy
# Skyline bench: the k-d-tree group skyline at the 200k registration
# shape and on duplicate-heavy input; no other step runs it.
FAIRHMS_BENCH_MS="${FAIRHMS_BENCH_MS:-25}" cargo bench -p fairhms-bench --bench skyline
# LP bench: single regret LPs and one lazy F-Greedy solve at the 200k
# serving pool shape; no other step runs it.
FAIRHMS_BENCH_MS="${FAIRHMS_BENCH_MS:-25}" cargo bench -p fairhms-bench --bench lp

# Telemetry bench: asserts the warm-hit overhead budget (<1 µs), measures
# the event front end's idle-connection fan-out (500 idle conns must cost
# only the loop + worker threads), and writes the machine-readable
# service profile.
echo "==> telemetry bench smoke (overhead budget + idle fan-out + BENCH_service.json)"
FAIRHMS_BENCH_JSON="$PWD/BENCH_service.json" cargo bench -p fairhms-bench --bench telemetry
python3 -c "import json; d = json.load(open('BENCH_service.json')); \
assert d['warm_hit_overhead_ns'] < 1000 and d['queries_per_sec'] > 0 \
and d['metrics']['histograms'], 'BENCH_service.json failed sanity checks'; \
f = d['idle_fanout']; \
assert f['connections'] >= 500 and f['threads_grown'] <= 16 \
and f['ping_us_under_fanout'] > 0, 'idle fan-out failed sanity checks'; \
s = d['solver']; \
assert s['dataset_points'] > 0 and s['net_size'] > 0 \
and s['points_per_sec'] > 0 and s['points_per_sec_scalar'] > 0 \
and s['db_max_ms_scalar'] > 0 and s['db_max_ms_blocked'] > 0 \
and s['bigreedy_cold_ms'] > 0 and s['bigreedy_cold_ms_sky'] > 0, \
'solver kernel section failed sanity checks'; \
m = d['mutation']; \
assert m['append_us'] > 0 and m['delete_us'] > 0 and m['full_reprep_ms'] > 0 \
and m['dropped_by_dominated_append'] < m['cached_entries_before'] \
and m['dropped_by_skyline_append'] == m['cached_entries_before'] \
and m['skyline_delete_ms'] > 0, \
'mutation section failed sanity checks (delta invalidation must spare \
untouched entries on a dominated append)'" \
  || { echo "BENCH_service.json missing or malformed"; exit 1; }

echo "CI OK"
