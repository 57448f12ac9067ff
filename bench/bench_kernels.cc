// Per-kernel microbenchmarks for the columnar hot-path loops: comparison
// and arithmetic expression kernels (RexColumnar::AppendEvalColumn), leaf
// predicate narrowing (NarrowByScanPredicate), selection refill after a
// dense predicate evaluation (RexColumnar::NarrowSelection), and group-id
// resolution in the columnar hash aggregate (ColumnarAggBuilder::Feed).
//
// Each benchmark drives exactly one kernel over a pre-built zero-copy
// column slice, so the timings isolate the loop the SIMD work targets.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "adapters/enumerable/columnar_agg.h"
#include "exec/arena.h"
#include "exec/column_batch.h"
#include "rex/rex_builder.h"
#include "rex/rex_columnar.h"
#include "type/rel_data_type.h"
#include "type/value.h"

namespace calcite {
namespace {

constexpr size_t kRows = 65536;
constexpr int kNullPct = 12;
constexpr int64_t kIntRange = 1000;  // ints uniform in [0, kIntRange)

// Column layout of the bench table:
//   $0 id INT NOT NULL   (row index)
//   $1 a  INT?           (~12% NULL, uniform [0, 1000))
//   $2 b  INT?           (~12% NULL, uniform [0, 1000))
//   $3 x  DOUBLE?        (~12% NULL, uniform [0.0, 1000.0))
//   $4 g  INT NOT NULL   (group key, 64 distinct values)
//   $5 gd DOUBLE NOT NULL (group key, 64 distinct values)
//   $6 gs VARCHAR NOT NULL (group key, 64 distinct values)
//   $7 gn DOUBLE NOT NULL (group key: NaN on every other row, else one of
//                          32 distinct values)
struct BenchTable {
  TypeFactory tf;
  RelDataTypePtr row_type;
  std::vector<Row> rows;
  TableColumnsPtr columns;
  ColumnBatch batch;  // zero-copy slice over all rows, no selection
  SelectionVector identity;

  BenchTable() {
    auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
    auto int_null = tf.CreateSqlType(SqlTypeName::kInteger, -1, true);
    auto dbl_t = tf.CreateSqlType(SqlTypeName::kDouble);
    auto dbl_null = tf.CreateSqlType(SqlTypeName::kDouble, -1, true);
    auto str_t = tf.CreateSqlType(SqlTypeName::kVarchar, 16);
    row_type = tf.CreateStructType(
        {"id", "a", "b", "x", "g", "gd", "gs", "gn"},
        {int_t, int_null, int_null, dbl_null, int_t, dbl_t, str_t, dbl_t});
    std::mt19937 rng(20260807);
    std::uniform_int_distribution<int> pct(0, 99);
    std::uniform_int_distribution<int64_t> ival(0, kIntRange - 1);
    std::uniform_real_distribution<double> dval(0.0, 1000.0);
    rows.reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      const int64_t grp = static_cast<int64_t>(i % 64);
      Row row;
      row.push_back(Value::Int(static_cast<int64_t>(i)));
      row.push_back(pct(rng) < kNullPct ? Value::Null()
                                        : Value::Int(ival(rng)));
      row.push_back(pct(rng) < kNullPct ? Value::Null()
                                        : Value::Int(ival(rng)));
      row.push_back(pct(rng) < kNullPct ? Value::Null()
                                        : Value::Double(dval(rng)));
      row.push_back(Value::Int(grp));
      row.push_back(Value::Double(static_cast<double>(grp) + 0.5));
      row.push_back(Value::String("grp-" + std::to_string(grp)));
      row.push_back(Value::Double(
          i % 2 == 0 ? std::numeric_limits<double>::quiet_NaN()
                     : static_cast<double>(grp)));
      rows.push_back(std::move(row));
    }
    columns = TableColumns::Build(rows, *row_type);
    batch = SliceTableColumns(columns, 0, kRows, columns);
    identity.resize(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      identity[i] = static_cast<uint32_t>(i);
    }
  }
};

const BenchTable& Table() {
  static const BenchTable* table = new BenchTable();
  return *table;
}

RexNodePtr Call(const RexBuilder& rex, OpKind op,
                std::vector<RexNodePtr> operands) {
  auto call = rex.MakeCall(op, std::move(operands));
  if (!call.ok()) std::abort();
  return call.value();
}

/// Times AppendEvalColumn of `expr` over the full slice; one fresh arena
/// per iteration so kernel output allocation is included on both sides.
void RunEvalBench(benchmark::State& state, const RexNodePtr& expr) {
  const BenchTable& t = Table();
  size_t rows_processed = 0;
  for (auto _ : state) {
    ColumnBatch out;
    out.arena = std::make_shared<Arena>();
    out.ShareStorage(t.batch);
    out.num_rows = t.batch.ActiveCount();
    Status s = RexColumnar::AppendEvalColumn(expr, t.batch, &out);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(out.cols.data());
    rows_processed += kRows;
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows_processed), benchmark::Counter::kIsRate);
}

// Ref-vs-ref int64 comparison kernel: $1 < $2 (both ~12% NULL).
void BM_KernelCompareI64(benchmark::State& state) {
  RexBuilder rex;
  const BenchTable& t = Table();
  RexNodePtr expr =
      Call(rex, OpKind::kLessThan,
           {rex.MakeInputRef(t.row_type, 1), rex.MakeInputRef(t.row_type, 2)});
  RunEvalBench(state, expr);
}
BENCHMARK(BM_KernelCompareI64)->Unit(benchmark::kMicrosecond);

// Ref-vs-literal double comparison kernel: $3 < 500.0.
void BM_KernelCompareF64Lit(benchmark::State& state) {
  RexBuilder rex;
  const BenchTable& t = Table();
  RexNodePtr expr = Call(rex, OpKind::kLessThan,
                         {rex.MakeInputRef(t.row_type, 3),
                          rex.MakeDoubleLiteral(500.0)});
  RunEvalBench(state, expr);
}
BENCHMARK(BM_KernelCompareF64Lit)->Unit(benchmark::kMicrosecond);

// Int64 arithmetic kernel with NULL folding: $1 * $2 + $1.
void BM_KernelArithI64(benchmark::State& state) {
  RexBuilder rex;
  const BenchTable& t = Table();
  RexNodePtr a = rex.MakeInputRef(t.row_type, 1);
  RexNodePtr b = rex.MakeInputRef(t.row_type, 2);
  RexNodePtr expr =
      Call(rex, OpKind::kPlus, {Call(rex, OpKind::kTimes, {a, b}), a});
  RunEvalBench(state, expr);
}
BENCHMARK(BM_KernelArithI64)->Unit(benchmark::kMicrosecond);

// Leaf predicate pushdown: NarrowByScanPredicate over the raw int column,
// identity candidates, threshold swept so ~10% / ~50% / ~90% of rows pass.
void BM_KernelNarrowPredicate(benchmark::State& state) {
  const BenchTable& t = Table();
  ScanPredicate pred;
  pred.kind = ScanPredicate::Kind::kLessThan;
  pred.column = 1;
  pred.literal = Value::Int(state.range(0));
  size_t rows_processed = 0;
  SelectionVector sel;
  for (auto _ : state) {
    sel = t.identity;
    NarrowByScanPredicate(pred, t.batch, &sel);
    benchmark::DoNotOptimize(sel.data());
    rows_processed += kRows;
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows_processed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelNarrowPredicate)
    ->Arg(100)
    ->Arg(500)
    ->Arg(900)
    ->Unit(benchmark::kMicrosecond);

// Dense predicate + selection refill: $1 < $2 is not a scan-shape
// comparison, so NarrowSelection evaluates it densely and rebuilds the
// selection from the pass mask (the bitmask -> selection expansion).
void BM_KernelSelectionRefill(benchmark::State& state) {
  RexBuilder rex;
  const BenchTable& t = Table();
  RexNodePtr pred =
      Call(rex, OpKind::kLessThan,
           {rex.MakeInputRef(t.row_type, 1), rex.MakeInputRef(t.row_type, 2)});
  size_t rows_processed = 0;
  SelectionVector sel;
  for (auto _ : state) {
    sel = t.identity;
    ArenaPtr scratch = std::make_shared<Arena>();
    Status s = RexColumnar::NarrowSelection(pred, t.batch, scratch, &sel);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(sel.data());
    rows_processed += kRows;
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows_processed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelSelectionRefill)->Unit(benchmark::kMicrosecond);

// Group-id resolution in the columnar hash aggregate: SUM($1) GROUP BY the
// key column given by Arg (4 = int64, 5 = double, 6 = string; 64 distinct
// values each; 7 = double, half NaN) or, for Arg 8, by the two keys
// (g, gs). Feed dominates in resolve + typed adds; the builder is reused so
// steady-state lookups are measured, not growth.
constexpr int64_t kTwoKeyArg = 8;

void BM_KernelHashGroupResolve(benchmark::State& state) {
  const BenchTable& t = Table();
  AggregateCall call;
  call.kind = AggKind::kSum;
  call.args = {1};
  call.name = "s";
  call.type = t.tf.CreateSqlType(SqlTypeName::kInteger, -1, true);
  const std::vector<int> keys =
      state.range(0) == kTwoKeyArg
          ? std::vector<int>{4, 6}
          : std::vector<int>{static_cast<int>(state.range(0))};
  auto builder = ColumnarAggBuilder::Create(keys, {call});
  size_t rows_processed = 0;
  for (auto _ : state) {
    Status s = builder->Feed(t.batch);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    rows_processed += kRows;
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows_processed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelHashGroupResolve)
    ->Arg(4)
    ->Arg(5)
    ->Arg(6)
    ->Arg(7)
    ->Arg(kTwoKeyArg)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace calcite
