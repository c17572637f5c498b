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

# smoke TAG LABEL RUN [PATTERN MESSAGE]...
# Runs RUN (a function writing one report to the file it is given) twice
# and at GNNADVISOR_SIM_THREADS=1 and 4, fails with MESSAGE unless the
# first report contains each PATTERN, and requires all four reports to be
# byte-identical.
smoke() {
  local tag="$1" label="$2" run="$3"
  shift 3
  local a="$trace_dir/${tag}_a.txt" b="$trace_dir/${tag}_b.txt"
  local t1="$trace_dir/${tag}_t1.txt" t4="$trace_dir/${tag}_t4.txt"
  "$run" "$a"
  "$run" "$b"
  GNNADVISOR_SIM_THREADS=1 "$run" "$t1"
  GNNADVISOR_SIM_THREADS=4 "$run" "$t4"
  while [ "$#" -gt 0 ]; do
    grep -q "$1" "$a" || {
      echo "FAIL: $2" >&2
      exit 1
    }
    shift 2
  done
  cmp "$a" "$b" || {
    echo "FAIL: $label differs between identical runs" >&2
    exit 1
  }
  cmp "$t1" "$t4" || {
    echo "FAIL: $label depends on GNNADVISOR_SIM_THREADS" >&2
    exit 1
  }
  cmp "$a" "$t1" || {
    echo "FAIL: $label depends on GNNADVISOR_SIM_THREADS" >&2
    exit 1
  }
}

echo "==> serve-sim smoke: report stable across runs and worker counts"
serve() {
  cargo run --offline -q --bin gnnadvisor -- \
    serve-sim --requests 32 --rate 4000 --streams 2 --scale 0.02 > "$1"
}
smoke s "serve-sim report" serve \
  "latency p50" "serve-sim report missing latency stats" \
  "kernel occupancy" "serve-sim report missing the kernel occupancy row"

echo "==> chaos smoke: faulted serve-sim stable across runs and worker counts"
chaos() {
  cargo run --offline -q --bin gnnadvisor -- \
    serve-sim --requests 32 --rate 4000 --streams 2 --scale 0.02 \
    --fault-rate 0.2 --retries 2 --deadline-ms 40 > "$1"
}
smoke c "faulted serve-sim report" chaos \
  "batch retries" "faulted serve-sim report missing reliability stats"

echo "==> serve-cluster smoke: report stable across runs and worker counts"
cluster() {
  cargo run --offline -q --bin gnnadvisor -- \
    serve-cluster --requests 32 --rate 4000 --streams 2 --scale 0.02 \
    --replicas 2 --tenants batch:3,online:1:40 --fault-rate 0.2 --retries 2 > "$1"
}
smoke k "serve-cluster report" cluster \
  "tenant online" "serve-cluster report missing tenant rows" \
  "replica submissions" "serve-cluster report missing replica loads"

echo "==> serve-dynamic smoke: report stable across runs and worker counts"
dynamic() {
  cargo run --offline -q --bin gnnadvisor -- \
    serve-dynamic --requests 32 --rate 4000 --streams 2 --scale 0.02 \
    --updates 600 --update-gap-ms 0.01 > "$1"
}
smoke d "serve-dynamic report" dynamic \
  "dynamic-graph report" "serve-dynamic report missing the dynamic-graph section" \
  "updates applied" "serve-dynamic report missing the update counters"

echo "==> train-minibatch smoke: report stable across runs and worker counts"
minibatch() {
  cargo run --offline -q --bin gnnadvisor -- \
    train-minibatch --scale 0.02 --batch-size 96 --epochs 2 --fanout 6,3 > "$1"
}
smoke m "train-minibatch report" minibatch \
  "total: pipelined" "train-minibatch report missing the pipeline totals" \
  "overlap" "train-minibatch report missing the overlap column"

echo "==> tune smoke: two-tier report stable across runs and worker counts"
tune2() {
  cargo run --offline -q --release --bin gnnadvisor -- \
    tune --dataset Cora --scale 0.05 "${@:2}" > "$1"
}
smoke u "tune report" tune2 \
  "estimating (two-tier)" "tune report missing the two-tier stage" \
  "calibration band" "tune report missing the calibration band"
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
