#!/usr/bin/env bash
# Offline-friendly CI gate: formatting, lints, and the full test suite.
# Usage: scripts/ci.sh  (run from anywhere; no registry access required)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings -D deprecated"
# -D deprecated: no code in the workspace may call a #[deprecated] item,
# so a new deprecation must migrate every caller in the same change.
cargo clippy --offline --workspace --all-targets -- -D warnings -D deprecated

echo "==> cargo build --examples"
cargo build --offline --workspace --examples

echo "==> cargo test -q"
cargo test --offline --workspace -q

echo "==> renumbering oracle: every Table 1 generator bit-identical to the reference"
cargo test --offline --release -q --test table1_renumber_oracle -- --ignored

echo "==> stream scheduler scaling: 4x the ops in at most 8x the time"
cargo test --offline --release -q -p gnnadvisor-gpu --test stream_scaling -- --ignored

echo "==> profile smoke: trace bytes stable across runs and worker counts"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
profile() {
  cargo run --offline -q --bin gnnadvisor -- \
    profile --dataset Cora --scale 0.03 --trace-out "$1" >/dev/null
}
profile "$trace_dir/a.json"
profile "$trace_dir/b.json"
GNNADVISOR_SIM_THREADS=4 profile "$trace_dir/t4.json"
cmp "$trace_dir/a.json" "$trace_dir/b.json" || {
  echo "FAIL: profile trace differs between identical runs" >&2
  exit 1
}
cmp "$trace_dir/a.json" "$trace_dir/t4.json" || {
  echo "FAIL: profile trace depends on GNNADVISOR_SIM_THREADS" >&2
  exit 1
}

echo "==> serve-sim smoke: report stable across runs and worker counts"
serve() {
  cargo run --offline -q --bin gnnadvisor -- \
    serve-sim --requests 32 --rate 4000 --streams 2 --scale 0.02 > "$1"
}
serve "$trace_dir/s_a.txt"
serve "$trace_dir/s_b.txt"
GNNADVISOR_SIM_THREADS=1 serve "$trace_dir/s_t1.txt"
GNNADVISOR_SIM_THREADS=4 serve "$trace_dir/s_t4.txt"
grep -q "latency p50" "$trace_dir/s_a.txt" || {
  echo "FAIL: serve-sim report missing latency stats" >&2
  exit 1
}
grep -q "kernel occupancy" "$trace_dir/s_a.txt" || {
  echo "FAIL: serve-sim report missing the kernel occupancy row" >&2
  exit 1
}
cmp "$trace_dir/s_a.txt" "$trace_dir/s_b.txt" || {
  echo "FAIL: serve-sim report differs between identical runs" >&2
  exit 1
}
cmp "$trace_dir/s_t1.txt" "$trace_dir/s_t4.txt" || {
  echo "FAIL: serve-sim report depends on GNNADVISOR_SIM_THREADS" >&2
  exit 1
}
cmp "$trace_dir/s_a.txt" "$trace_dir/s_t1.txt" || {
  echo "FAIL: serve-sim report depends on GNNADVISOR_SIM_THREADS" >&2
  exit 1
}

echo "==> chaos smoke: faulted serve-sim stable across runs and worker counts"
chaos() {
  cargo run --offline -q --bin gnnadvisor -- \
    serve-sim --requests 32 --rate 4000 --streams 2 --scale 0.02 \
    --fault-rate 0.2 --retries 2 --deadline-ms 40 > "$1"
}
chaos "$trace_dir/c_a.txt"
chaos "$trace_dir/c_b.txt"
GNNADVISOR_SIM_THREADS=1 chaos "$trace_dir/c_t1.txt"
GNNADVISOR_SIM_THREADS=4 chaos "$trace_dir/c_t4.txt"
grep -q "batch retries" "$trace_dir/c_a.txt" || {
  echo "FAIL: faulted serve-sim report missing reliability stats" >&2
  exit 1
}
cmp "$trace_dir/c_a.txt" "$trace_dir/c_b.txt" || {
  echo "FAIL: faulted serve-sim report differs between identical runs" >&2
  exit 1
}
cmp "$trace_dir/c_t1.txt" "$trace_dir/c_t4.txt" || {
  echo "FAIL: faulted serve-sim report depends on GNNADVISOR_SIM_THREADS" >&2
  exit 1
}
cmp "$trace_dir/c_a.txt" "$trace_dir/c_t1.txt" || {
  echo "FAIL: faulted serve-sim report depends on GNNADVISOR_SIM_THREADS" >&2
  exit 1
}

echo "==> serve-cluster smoke: report stable across runs and worker counts"
cluster() {
  cargo run --offline -q --bin gnnadvisor -- \
    serve-cluster --requests 32 --rate 4000 --streams 2 --scale 0.02 \
    --replicas 2 --tenants batch:3,online:1:40 --fault-rate 0.2 --retries 2 > "$1"
}
cluster "$trace_dir/k_a.txt"
cluster "$trace_dir/k_b.txt"
GNNADVISOR_SIM_THREADS=1 cluster "$trace_dir/k_t1.txt"
GNNADVISOR_SIM_THREADS=4 cluster "$trace_dir/k_t4.txt"
grep -q "tenant online" "$trace_dir/k_a.txt" || {
  echo "FAIL: serve-cluster report missing tenant rows" >&2
  exit 1
}
grep -q "replica submissions" "$trace_dir/k_a.txt" || {
  echo "FAIL: serve-cluster report missing replica loads" >&2
  exit 1
}
cmp "$trace_dir/k_a.txt" "$trace_dir/k_b.txt" || {
  echo "FAIL: serve-cluster report differs between identical runs" >&2
  exit 1
}
cmp "$trace_dir/k_t1.txt" "$trace_dir/k_t4.txt" || {
  echo "FAIL: serve-cluster report depends on GNNADVISOR_SIM_THREADS" >&2
  exit 1
}
cmp "$trace_dir/k_a.txt" "$trace_dir/k_t1.txt" || {
  echo "FAIL: serve-cluster report depends on GNNADVISOR_SIM_THREADS" >&2
  exit 1
}

echo "==> serve-dynamic smoke: report stable across runs and worker counts"
dynamic() {
  cargo run --offline -q --bin gnnadvisor -- \
    serve-dynamic --requests 32 --rate 4000 --streams 2 --scale 0.02 \
    --updates 600 --update-gap-ms 0.01 > "$1"
}
dynamic "$trace_dir/d_a.txt"
dynamic "$trace_dir/d_b.txt"
GNNADVISOR_SIM_THREADS=1 dynamic "$trace_dir/d_t1.txt"
GNNADVISOR_SIM_THREADS=4 dynamic "$trace_dir/d_t4.txt"
grep -q "dynamic-graph report" "$trace_dir/d_a.txt" || {
  echo "FAIL: serve-dynamic report missing the dynamic-graph section" >&2
  exit 1
}
grep -q "updates applied" "$trace_dir/d_a.txt" || {
  echo "FAIL: serve-dynamic report missing the update counters" >&2
  exit 1
}
cmp "$trace_dir/d_a.txt" "$trace_dir/d_b.txt" || {
  echo "FAIL: serve-dynamic report differs between identical runs" >&2
  exit 1
}
cmp "$trace_dir/d_t1.txt" "$trace_dir/d_t4.txt" || {
  echo "FAIL: serve-dynamic report depends on GNNADVISOR_SIM_THREADS" >&2
  exit 1
}
cmp "$trace_dir/d_a.txt" "$trace_dir/d_t1.txt" || {
  echo "FAIL: serve-dynamic report depends on GNNADVISOR_SIM_THREADS" >&2
  exit 1
}

echo "==> train-minibatch smoke: report stable across runs and worker counts"
minibatch() {
  cargo run --offline -q --bin gnnadvisor -- \
    train-minibatch --scale 0.02 --batch-size 96 --epochs 2 --fanout 6,3 > "$1"
}
minibatch "$trace_dir/m_a.txt"
minibatch "$trace_dir/m_b.txt"
GNNADVISOR_SIM_THREADS=1 minibatch "$trace_dir/m_t1.txt"
GNNADVISOR_SIM_THREADS=4 minibatch "$trace_dir/m_t4.txt"
grep -q "total: pipelined" "$trace_dir/m_a.txt" || {
  echo "FAIL: train-minibatch report missing the pipeline totals" >&2
  exit 1
}
grep -q "overlap" "$trace_dir/m_a.txt" || {
  echo "FAIL: train-minibatch report missing the overlap column" >&2
  exit 1
}
cmp "$trace_dir/m_a.txt" "$trace_dir/m_b.txt" || {
  echo "FAIL: train-minibatch report differs between identical runs" >&2
  exit 1
}
cmp "$trace_dir/m_t1.txt" "$trace_dir/m_t4.txt" || {
  echo "FAIL: train-minibatch report depends on GNNADVISOR_SIM_THREADS" >&2
  exit 1
}
cmp "$trace_dir/m_a.txt" "$trace_dir/m_t1.txt" || {
  echo "FAIL: train-minibatch report depends on GNNADVISOR_SIM_THREADS" >&2
  exit 1
}

echo "==> tune smoke: two-tier report stable across runs and worker counts"
tune2() {
  cargo run --offline -q --release --bin gnnadvisor -- \
    tune --dataset Cora --scale 0.05 "${@:2}" > "$1"
}
tune2 "$trace_dir/u_a.txt"
tune2 "$trace_dir/u_b.txt"
GNNADVISOR_SIM_THREADS=1 tune2 "$trace_dir/u_t1.txt"
GNNADVISOR_SIM_THREADS=4 tune2 "$trace_dir/u_t4.txt"
grep -q "estimating (two-tier)" "$trace_dir/u_a.txt" || {
  echo "FAIL: tune report missing the two-tier stage" >&2
  exit 1
}
grep -q "calibration band" "$trace_dir/u_a.txt" || {
  echo "FAIL: tune report missing the calibration band" >&2
  exit 1
}
cmp "$trace_dir/u_a.txt" "$trace_dir/u_b.txt" || {
  echo "FAIL: tune report differs between identical runs" >&2
  exit 1
}
cmp "$trace_dir/u_t1.txt" "$trace_dir/u_t4.txt" || {
  echo "FAIL: tune report depends on GNNADVISOR_SIM_THREADS" >&2
  exit 1
}
cmp "$trace_dir/u_a.txt" "$trace_dir/u_t1.txt" || {
  echo "FAIL: tune report depends on GNNADVISOR_SIM_THREADS" >&2
  exit 1
}
# The fast path must price candidates at least 20x faster than full
# simulation (release build, so the ratio is not a debug-mode artifact);
# the measured ratio prints to stderr and failure surfaces as an error.
tune2 "$trace_dir/u_sc.txt" --speed-check 20 || {
  echo "FAIL: fast-path scoring is not 20x faster than full simulation" >&2
  exit 1
}
cmp "$trace_dir/u_a.txt" "$trace_dir/u_sc.txt" || {
  echo "FAIL: --speed-check changed the tune report on stdout" >&2
  exit 1
}

echo "CI green."
