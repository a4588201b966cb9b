#!/usr/bin/env bash
# Tier-1 verify plus benchmark smoke: configure, build, run the full test
# suite, then exercise the query and dynamic benchmarks in smoke mode
# (small graphs / trimmed repetitions) so a broken bench build or a
# correctness regression in the hot paths fails CI, not just the unit
# tests. The query and dynamic bench smokes emit machine-readable
# BENCH_queries.json / BENCH_dynamic.json / BENCH_dynamic_biconn.json
# (benchmark name, n, batch size, ns/op, speedup-vs-rebuild, verified) at
# the repo root, which CI uploads as per-commit perf-trajectory artifacts.
#
# Usage: scripts/check.sh [build-dir]   (default: build)
# Env:   CXX/CC respected by cmake as usual; WECC_THREADS caps the pool;
#        WECC_SANITIZE=address,undefined or WECC_SANITIZE=thread instruments
#        the whole build with the given sanitizers (what the CI asan and
#        tsan jobs set; thread cannot be combined with address/undefined);
#        WECC_RACE_HUNT_MS lengthens the concurrency_test writer/reader
#        churn (the tsan job raises it to >30s of churn; default is a
#        smoke-length run);
#        WECC_BUILD_TYPE overrides the CMake build type (default
#        RelWithDebInfo; the CI -Werror legs set Release);
#        WECC_WERROR=ON turns warnings into errors across every target;
#        WECC_BENCH_SMOKE_FILTER overrides the dynamic-bench row filter;
#        WECC_REBUILD_SMOKE_FILTER overrides the bench_rebuild row filter
#        (default: the small /10000/ rows — the CI rebuild leg runs the
#        full n=100k rows; its auto rows take the pool size, which
#        WECC_THREADS sets).
#        Under WECC_SANITIZE=thread it defaults to the narrowed /100000/64
#        rows, mirroring what the asan CI job sets explicitly — sanitized
#        full-rebuild baselines are ~10x slower than plain builds. ccache
#        is picked up automatically when installed.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
# TSan-narrowed default: the instrumented full-rebuild baseline rows take
# minutes under ThreadSanitizer; smoke the small batch rows only unless the
# caller asks for more.
if [[ -z "${WECC_BENCH_SMOKE_FILTER:-}" && \
      "${WECC_SANITIZE:-}" == *thread* ]]; then
  WECC_BENCH_SMOKE_FILTER='/100000/64(/|$)'
fi
# Same narrowing for the rebuild smoke: one sanitized row is enough to
# catch a broken bench build; the CI rebuild leg owns the full matrix.
if [[ -z "${WECC_REBUILD_SMOKE_FILTER:-}" && -n "${WECC_SANITIZE:-}" ]]; then
  WECC_REBUILD_SMOKE_FILTER='/10000/64/1/'
fi
BENCH_FILTER="${WECC_BENCH_SMOKE_FILTER:-/100000(/|\$)}"

CMAKE_ARGS=(-DCMAKE_BUILD_TYPE="${WECC_BUILD_TYPE:-RelWithDebInfo}")
if [[ -n "${WECC_SANITIZE:-}" ]]; then
  CMAKE_ARGS+=("-DWECC_SANITIZE=${WECC_SANITIZE}")
fi
if [[ -n "${WECC_WERROR:-}" ]]; then
  CMAKE_ARGS+=("-DWECC_WERROR=${WECC_WERROR}")
fi
if command -v ccache > /dev/null; then
  CMAKE_ARGS+=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
               -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"
if command -v ccache > /dev/null; then
  ccache -s | sed -n '1,5p' || true
fi

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== bench smoke: queries =="
# Includes the biconnectivity oracle row so BENCH_queries.json (and the
# bench_compare.py gate) track the decomposition kernel's ns per query.
"$BUILD_DIR/bench/bench_queries" \
  --benchmark_min_time=0.05 \
  --benchmark_filter='BM_Query_(CcLabelArray|CcOracle/16|BiconnOracle/16)$' \
  --benchmark_out="$BUILD_DIR/bench_queries_raw.json" \
  --benchmark_out_format=json
python3 scripts/bench_to_json.py "$BUILD_DIR/bench_queries_raw.json" \
  BENCH_queries.json

echo "== bench smoke: dynamic connectivity (larger rows run in full mode) =="
"$BUILD_DIR/bench/bench_dynamic" \
  --benchmark_filter="$BENCH_FILTER" \
  --benchmark_out="$BUILD_DIR/bench_dynamic_raw.json" \
  --benchmark_out_format=json
python3 scripts/bench_to_json.py "$BUILD_DIR/bench_dynamic_raw.json" \
  BENCH_dynamic.json

echo "== bench smoke: dynamic biconnectivity (self-verified vs rebuild) =="
"$BUILD_DIR/bench/bench_dynamic_biconn" \
  --benchmark_filter="$BENCH_FILTER" \
  --benchmark_out="$BUILD_DIR/bench_dynamic_biconn_raw.json" \
  --benchmark_out_format=json
python3 scripts/bench_to_json.py "$BUILD_DIR/bench_dynamic_biconn_raw.json" \
  BENCH_dynamic_biconn.json

echo "== bench smoke: parallel selective rebuilds (small rows; CI's rebuild leg runs n=100k) =="
"$BUILD_DIR/bench/bench_rebuild" \
  --benchmark_filter="${WECC_REBUILD_SMOKE_FILTER:-/10000/}" \
  --benchmark_out="$BUILD_DIR/bench_rebuild_raw.json" \
  --benchmark_out_format=json
python3 scripts/bench_to_json.py "$BUILD_DIR/bench_rebuild_raw.json" \
  BENCH_rebuild.json

echo "== service smoke: live server + verified loadgen =="
# Boot wecc_server on an ephemeral port, hammer it with wecc_loadgen for a
# couple of seconds (mixed readers + writer churn, sampled answers
# cross-checked against an in-process Hopcroft–Tarjan oracle), then stop
# the server. The loadgen exits nonzero on any mismatch or failed request,
# and its google-benchmark-shaped output distills into BENCH_service.json.
SERVICE_PORT_FILE="$BUILD_DIR/wecc_server.port"
rm -f "$SERVICE_PORT_FILE"
"$BUILD_DIR/wecc_server" --facade biconn --rows 30 --cols 30 --p 0.5 \
  --port 0 --port-file "$SERVICE_PORT_FILE" &
SERVICE_PID=$!
trap 'kill "$SERVICE_PID" 2> /dev/null || true' EXIT
"$BUILD_DIR/wecc_loadgen" --port-file "$SERVICE_PORT_FILE" \
  --facade biconn --rows 30 --cols 30 --p 0.5 \
  --readers 3 --duration-s 2 --verify-every 4 --churn dense \
  --json "$BUILD_DIR/bench_service_raw.json"
kill -TERM "$SERVICE_PID"
wait "$SERVICE_PID"
trap - EXIT
python3 scripts/bench_to_json.py "$BUILD_DIR/bench_service_raw.json" \
  BENCH_service.json

echo "== bench smoke: durability (snapshot / WAL / recovery / time-travel) =="
"$BUILD_DIR/bench/bench_persist" \
  --benchmark_filter="$BENCH_FILTER" \
  --benchmark_out="$BUILD_DIR/bench_persist_raw.json" \
  --benchmark_out_format=json
python3 scripts/bench_to_json.py "$BUILD_DIR/bench_persist_raw.json" \
  BENCH_persist.json

echo "check.sh: all green"
