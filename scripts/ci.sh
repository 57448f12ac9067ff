#!/usr/bin/env bash
# CI entry point: configure -> build -> ctest -> bench smoke-run.
# Usage: scripts/ci.sh [build-dir] [sanitizer|scalar]
#   scripts/ci.sh build           # regular build + full test suite + bench smoke
#   scripts/ci.sh build-tsan thread
#                                 # ThreadSanitizer build; runs the
#                                 # concurrency-focused tests (the morsel-driven
#                                 # parallel executor) race-checked
#   scripts/ci.sh build-asan address,undefined
#                                 # ASan+UBSan build; runs the batch-engine,
#                                 # parity, and expression-kernel fuzz suites —
#                                 # selection-vector indexing and the columnar
#                                 # batch kernels are exactly where
#                                 # out-of-bounds reads would hide
#   scripts/ci.sh build-scalar scalar
#                                 # -DCALCITE_SIMD=OFF build; proves the scalar
#                                 # kernel path (the only one on non-x86 or
#                                 # old-toolchain hosts) still passes the
#                                 # differential fuzz and parity suites
set -euo pipefail
# Every build job compiles warning-free under GCC 12 (-Wall -Wextra, see
# CMakeLists.txt); -Werror keeps a new warning from landing unnoticed.
WERROR=(-DCMAKE_CXX_FLAGS=-Werror)

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
SANITIZER="${2:-}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if [[ "$SANITIZER" == "scalar" ]]; then
  echo "=== configure (CALCITE_SIMD=OFF) ==="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCALCITE_SIMD=OFF "${WERROR[@]}"

  echo "=== build ==="
  cmake --build "$BUILD_DIR" -j "$JOBS"

  echo "=== test (kernel suites, scalar dispatch only) ==="
  # With CALCITE_SIMD=OFF every simd:: entry point compiles to the scalar
  # reference and ScopedDispatch(true) is a no-op, so the differential
  # suites prove the portable path alone produces the oracle results.
  # parallel_exec_test is among them because the hash join, serial and
  # parallel alike, hashes single-int keys through simd::HashI64.
  ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error \
    -R 'simd_kernels_test|rex_kernel_fuzz_test|batch_parity_test|columnar_parity_test|columnar_leaf_test|row_batch_test|parallel_exec_test'

  echo "=== done (scalar) ==="
  exit 0
fi

if [[ -n "$SANITIZER" ]]; then
  echo "=== configure ($SANITIZER sanitizer) ==="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCALCITE_SANITIZE="$SANITIZER" "${WERROR[@]}"

  echo "=== build ==="
  cmake --build "$BUILD_DIR" -j "$JOBS"

  echo "=== test (focused suites under $SANITIZER) ==="
  # Sanitizers multiply runtimes ~10x, so each job runs the suites aimed at
  # the bug class it detects rather than the whole battery.
  # - thread: the thread-count sweeps drive every parallel operator across
  #   thread x batch combinations, exactly the surface a race hides in.
  # - address/undefined: the batch-engine unit tests, the batch/row parity
  #   sweeps, and the randomized expression-kernel fuzz harness hammer
  #   selection-vector indexing and the columnar kernels, exactly the surface
  #   an out-of-bounds access or overflow hides in.
  # --no-tests=error: a green sanitizer run that executed zero tests
  # (missing GTest, filter typo) must fail loudly, not pass silently.
  # The columnar differential suite runs under both: its parallel sweeps
  # ship arena-backed ColumnBatches across the exchange (TSan: the arena
  # recycling and zero-copy pin lifetimes), and its kernels index raw typed
  # columns through selection vectors (ASan/UBSan). The storage suite also
  # runs under both: buffer-pool pin/evict bookkeeping and paged parallel
  # scans share frames across morsel workers (TSan), and the slotted-page /
  # record-codec byte arithmetic plus B-tree node layouts are exactly where
  # an out-of-bounds page access hides (ASan/UBSan); the parity suites
  # additionally drive DiskTable scans end-to-end both ways. The stats suite
  # runs under both for the same reason: ANALYZE streams every page through
  # the pool and the stats catalog codec does raw record byte arithmetic
  # (ASan/UBSan), while cost-based scans race the last_scan_used_index
  # introspection (TSan). The SIMD kernels run under both too: the fuzz and
  # parity suites force every kernel through SIMD and scalar dispatch
  # (ASan/UBSan catch lane over-reads past the tail; TSan sees the runtime
  # dispatch flag crossing the parallel sweeps), and simd_kernels_test
  # diffs each intrinsic path against its scalar reference. The
  # per-node-vs-per-row fuzz differential runs under both: RexColumnar
  # aliases input columns into its results and compacts selections in
  # place (ASan catches a stale alias or a CompactSel write-ahead overrun),
  # and the morsel-parallel sweeps run every worker over the same shared
  # RexNode stages, which must stay free of mutable state (TSan). Under
  # TSan the fuzz run is single-threaded, but it flips the runtime dispatch
  # flag, so an unsynchronized write to shared kernel state would surface
  # there. The rows->columns leaf suite
  # (columnar_leaf_test) runs under both: RowsToColumns points StringRefs
  # into the source rows it pins (ASan catches a batch outliving its pin),
  # and its DiskTable case drives 4 paged morsel workers that convert,
  # filter and box rows over a 16-page pool (TSan). The adapter and
  # extension suites run under ASan/UBSan: they scan the CSV, Cassandra and
  # stream tables, whose shared row store (RowStoreTable) is what row
  # slices and zero-copy columnar views point into. alloc_count_test is
  # excluded everywhere: it overrides global operator new, which fights the
  # sanitizer allocators.
  if [[ "$SANITIZER" == *thread* ]]; then
    FILTER='parallel_exec_test|batch_parity_test|columnar_parity_test|columnar_leaf_test|rex_kernel_fuzz_test|storage_test|stats_test'
  else
    FILTER='row_batch_test|rex_kernel_fuzz_test|simd_kernels_test|batch_parity_test|parallel_exec_test|columnar_parity_test|columnar_leaf_test|storage_test|stats_test|adapters_test|extensions_test'
  fi
  ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error \
    -R "$FILTER"

  if [[ "$SANITIZER" != *thread* ]]; then
    echo "=== fuzz (raised iterations under $SANITIZER) ==="
    # The per-node-vs-per-row differential gets a dedicated deep run: 5x
    # the default iteration budget, under the sanitizer that would catch
    # the out-of-bounds reads a kernel bug produces.
    REX_FUZZ_ITERS=5 ctest --test-dir "$BUILD_DIR" --output-on-failure \
      --no-tests=error -R 'rex_kernel_fuzz_test'
  fi

  echo "=== done ($SANITIZER) ==="
  exit 0
fi

echo "=== configure ==="
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo "${WERROR[@]}"

echo "=== build ==="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "=== test ==="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "=== fuzz (raised iterations) ==="
# Dedicated deep run of the per-node-vs-per-row differential:
# 5x the default per-test iteration budget on the fast non-sanitized build.
REX_FUZZ_ITERS=5 ctest --test-dir "$BUILD_DIR" --output-on-failure \
  --no-tests=error -R 'rex_kernel_fuzz_test'

echo "=== workload self-test ==="
# The SQL workload benchmark's oracle checks: every template at threads
# {1, nproc}, over MemTables and DiskTables, plus an ingest-and-reopen
# round trip. Builds its own Release binary under .bench_build/.
python3 perfbench/run.py --self-test

echo "=== bench smoke ==="
# Quick benchmarks exercise the batched execution engine end-to-end
# (parse -> plan -> vectorized pipeline) and the morsel-driven parallel
# executor (threaded scan/aggregate/join fragments) without turning CI
# into a perf run.
if [[ -x "$BUILD_DIR/bench_architecture" ]]; then
  "$BUILD_DIR/bench_architecture" \
    --benchmark_filter='BM_BatchSizeSweep|BM_FilterPushdownSweep|BM_Stage5_Execute|BM_ParallelSweep|BM_IndexScanVsFullScan|BM_CostBasedAccessPath' \
    --benchmark_min_time=0.05
else
  echo "bench_architecture not built (google-benchmark not found); skipping"
fi
if [[ -x "$BUILD_DIR/bench_kernels" ]]; then
  "$BUILD_DIR/bench_kernels" --benchmark_min_time=0.05
else
  echo "bench_kernels not built (google-benchmark not found); skipping"
fi

echo "=== done ==="
