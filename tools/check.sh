#!/bin/sh
# One-command verification: the tier-1 build + test suite, then the
# concurrency-sensitive service tests again under ThreadSanitizer, the
# storage/engine tests and fuzz axes under AddressSanitizer, and the
# request-timing tests under UndefinedBehaviorSanitizer.
#
#   tools/check.sh [jobs]
#
# Build trees: build/ (plain), build-tsan/ (-DDBPC_SANITIZE=thread),
# build-asan/ (-DDBPC_SANITIZE=address) and build-ubsan/
# (-DDBPC_SANITIZE=undefined); see the DBPC_SANITIZE option in the
# top-level CMakeLists.txt.
set -eu

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc 2>/dev/null || echo 2)}"

echo "== tier-1: configure + build + ctest (build/, ${JOBS} jobs) =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== facade: tools/ and examples/ stay behind the public API =="
# The only src/ headers a facade consumer may include are the facade
# itself and the public request/response types. (tests/testing fixtures
# are not src/ modules and stay allowed.)
BAD_INCLUDES="$(grep -RnE '#include "[a-z_]+/' tools/*.cc examples/*.cpp \
  | grep -vE '#include "(api/dbpc\.h|api/types\.h|testing/)' || true)"
if [ -n "$BAD_INCLUDES" ]; then
  echo "facade lint: tools/ and examples/ must include only api/dbpc.h or"
  echo "api/types.h from src/. Offending includes:"
  echo "$BAD_INCLUDES"
  exit 1
fi
echo "facade lint ok"

echo "== fuzz: fixed-seed differential sweep + regression corpus =="
./build/tools/dbpc_fuzz --seed 1 --iterations 200
for repro in samples/fuzz-regressions/*.repro; do
  ./build/tools/dbpc_fuzz --replay "$repro"
done

echo "== fuzz: optimizer-differential sweep (optimized vs. unoptimized) =="
./build/tools/dbpc_fuzz --diff-optimizer --seed 1 --iterations 200

echo "== fuzz: index-differential sweep (indexes on vs. off) =="
./build/tools/dbpc_fuzz --diff-index --seed 1 --iterations 200

echo "== fuzz: columnar-differential sweep (bulk vs. record copy engine) =="
./build/tools/dbpc_fuzz --diff-columnar --seed 1 --iterations 200

echo "== fuzz: cache-differential sweep (memoized vs. uncached pipeline) =="
./build/tools/dbpc_fuzz --diff-cache --seed 1 --iterations 200

echo "== observability: span trace + provenance on the company example =="
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
./build/tools/dbpcc --schema samples/company.ddl --plan samples/fig44.plan \
  --provenance --trace-json "$TRACE_DIR/trace.json" \
  samples/sales_report.cpl samples/seniors.cpl \
  > "$TRACE_DIR/provenance.txt"
python3 tools/validate_trace.py "$TRACE_DIR/trace.json" \
  "$TRACE_DIR/provenance.txt"

echo "== fuzz: traced sweep (tracing must not change outcomes) =="
./build/tools/dbpc_fuzz --seed 1 --iterations 200 --trace

echo "== bench: cost-based optimizer sanity (E10 --smoke) =="
./build/bench/bench_optimizer --smoke

echo "== bench: indexed access-path sanity (E11 --smoke) =="
./build/bench/bench_index_paths --smoke

echo "== bench: daemon load sanity (E13/E16 --smoke, epoll reactor) =="
./build/bench/bench_daemon --smoke

echo "== bench: columnar bulk translation sanity (E14 --smoke) =="
./build/bench/bench_data_translation --smoke

echo "== bench: conversion cache sanity (E15 --smoke) =="
./build/bench/bench_conversion_cache --smoke

# The end-to-end smoke: dbpcd must serve a mixed burst and drain cleanly on
# SIGTERM. An open-loop (fixed offered rate) dbpc_load leg follows the
# closed-loop burst; it measures latency from each request's scheduled send
# instant — the coordinated-omission-corrected view.
echo "== daemon: dbpcd end-to-end smoke =="
rm -f "$TRACE_DIR/dbpcd.port" "$TRACE_DIR/dbpcd.admin.port"
./build/tools/dbpcd --schema samples/company.ddl --plan samples/fig44.plan \
  --port 0 --port-file "$TRACE_DIR/dbpcd.port" --jobs 4 \
  --admin-port 0 --admin-port-file "$TRACE_DIR/dbpcd.admin.port" \
  --slow-request-ms 2000 --drain-linger-ms 2000 \
  --metrics-json "$TRACE_DIR/dbpcd.metrics.json" \
  2> "$TRACE_DIR/dbpcd.log" &
DBPCD_PID=$!
PORT=""
for _ in $(seq 1 100); do
  [ -s "$TRACE_DIR/dbpcd.port" ] && { PORT="$(cat "$TRACE_DIR/dbpcd.port")"; break; }
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "dbpcd smoke: daemon did not report a port"
  cat "$TRACE_DIR/dbpcd.log"
  kill "$DBPCD_PID" 2>/dev/null || true
  exit 1
fi
ADMIN_PORT="$(cat "$TRACE_DIR/dbpcd.admin.port")"
# A short mixed burst (10% malformed payloads exercise the failed-job
# path); dbpc_load exits nonzero if any request went unanswered, and the
# --scrape-url leg folds the daemon-side queue depth and conversions/sec
# into its report.
./build/tools/dbpc_load --port "$PORT" --connections 16 --duration-ms 1000 \
  --malformed-pct 10 --trace-pct 5 --quiet \
  --scrape-url "http://127.0.0.1:$ADMIN_PORT" \
  --report "$TRACE_DIR/dbpc_load.json"
./build/tools/dbpc_load --port "$PORT" --connections 8 \
  --duration-ms 1000 --rps 200 --open-loop --quiet \
  --report "$TRACE_DIR/dbpc_load_open.json"
# The admin plane serves well-formed Prometheus exposition with every
# operational family, a healthy /healthz + /readyz, and JSON /varz.
python3 tools/validate_metrics.py --base "http://127.0.0.1:$ADMIN_PORT"
# Graceful shutdown under SIGTERM must drain every admitted job (exit 0)
# and keep /readyz scrapeable — answering 503 — through the
# --drain-linger-ms lame-duck window.
kill -TERM "$DBPCD_PID"
python3 tools/validate_metrics.py --base "http://127.0.0.1:$ADMIN_PORT" \
  --readyz-only --readyz-expect 503 --retries 40
wait "$DBPCD_PID"
grep -q "drained" "$TRACE_DIR/dbpcd.log"
grep -q "listening on" "$TRACE_DIR/dbpcd.log"
grep -q "daemon_started" "$TRACE_DIR/dbpcd.log"
grep -q "drain_started" "$TRACE_DIR/dbpcd.log"
# The metrics snapshot and the load report must both be valid JSON.
python3 - "$TRACE_DIR/dbpcd.metrics.json" "$TRACE_DIR/dbpc_load.json" <<'EOF'
import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        json.load(f)
print("daemon smoke: metrics and load report parse as JSON")
EOF

echo "== tsan: service tests under -DDBPC_SANITIZE=thread (build-tsan/) =="
cmake -B build-tsan -S . -DDBPC_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" \
  --target service_test worker_pool_test metrics_test log_test \
           timeline_test sock_buffer_test daemon_test reactor_test \
           admin_test load_test store_test extent_test template_cache_test
(cd build-tsan/tests/service && ./worker_pool_test && ./service_test)
(cd build-tsan/tests/common && ./metrics_test && ./log_test && ./timeline_test)
(cd build-tsan/tests/daemon && ./sock_buffer_test && ./daemon_test \
  && ./reactor_test && ./admin_test && ./load_test)
(cd build-tsan/tests/storage && ./store_test && ./extent_test)
(cd build-tsan/tests/convert && ./template_cache_test)

# The record heap hands out raw StoredRecord pointers and the engine keeps
# its field-resolution tables by value; ASan catches a dangling pointer or
# an out-of-bounds slot that the plain build would read silently.
echo "== asan: storage/engine tests + fuzz axes under -DDBPC_SANITIZE=address (build-asan/) =="
cmake -B build-asan -S . -DDBPC_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS" \
  --target store_test extent_test database_test bulk_load_test index_test \
           interpreter_test data_copy_test dbpc_fuzz_tool
(cd build-asan/tests/storage && ./store_test && ./extent_test)
(cd build-asan/tests/engine && ./database_test && ./bulk_load_test \
  && ./index_test)
(cd build-asan/tests/lang && ./interpreter_test)
(cd build-asan/tests/restructure && ./data_copy_test)
./build-asan/tools/dbpc_fuzz --diff-columnar --seed 1 --iterations 50
./build-asan/tools/dbpc_fuzz --diff-index --seed 1 --iterations 50

# Request durations are signed clock differences turned into unsigned
# microseconds (the load driver's latencies too), read from a fixed array
# indexed by a mark enum; with halt_on_error UBSan fails the leg on its
# first report instead of printing and going on.
echo "== ubsan: timing/service/daemon tests under -DDBPC_SANITIZE=undefined (build-ubsan/) =="
cmake -B build-ubsan -S . -DDBPC_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j "$JOBS" \
  --target metrics_test timeline_test service_test supervisor_test \
           daemon_test reactor_test admin_test load_test
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
(cd build-ubsan/tests/common && ./metrics_test && ./timeline_test)
(cd build-ubsan/tests/service && ./service_test)
(cd build-ubsan/tests/supervisor && ./supervisor_test)
(cd build-ubsan/tests/daemon && ./daemon_test && ./reactor_test \
  && ./admin_test && ./load_test)

echo "== check.sh: all green =="
