// Asserts the columnar hot path's central memory claim: pulling a
// scan → filter → project → aggregate pipeline over ~100k rows performs no
// per-row heap allocation. Column storage is either a zero-copy view of the
// table's cached decomposition or bump-allocated from pooled arenas, so the
// allocation count of the whole drain is bounded by the number of batches
// (times a small constant), not the number of rows. The row path over the
// same plan boxes every row and is measured as the contrast.
//
// This test overrides the global operator new, so it must stay its own test
// binary (the per-file test executables guarantee that) and must not run
// under sanitizers, whose allocator interposition the override would fight.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "adapters/enumerable/enumerable_rels.h"
#include "exec/arena.h"
#include "exec/column_batch.h"
#include "rel/core.h"
#include "rex/rex_builder.h"
#include "tools/frameworks.h"

namespace {

std::atomic<size_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace calcite {
namespace {

constexpr size_t kRows = 100000;

/// Drains `puller`, counting heap allocations only inside the pull loop.
/// Returns {output rows, allocations}.
std::pair<size_t, size_t> DrainCounted(const RowBatchPuller& puller) {
  size_t out_rows = 0;
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (;;) {
    auto batch = puller();
    if (!batch.ok() || batch.value().empty()) break;
    out_rows += batch.value().size();
  }
  g_counting.store(false, std::memory_order_relaxed);
  return {out_rows, g_alloc_count.load(std::memory_order_relaxed)};
}

TEST(AllocCountTest, ColumnarHotPathDoesNoPerRowAllocation) {
  TypeFactory tf;
  RexBuilder rex;
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto int_null = tf.CreateSqlType(SqlTypeName::kInteger, -1, true);
  auto dbl_null = tf.CreateSqlType(SqlTypeName::kDouble, -1, true);
  auto row_type =
      tf.CreateStructType({"id", "k", "d"}, {int_t, int_null, dbl_null});
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    rows.push_back(
        {Value::Int(static_cast<int64_t>(i)),
         i % 3 == 0 ? Value::Null() : Value::Int(static_cast<int64_t>(i % 7)),
         i % 4 == 0 ? Value::Null()
                    : Value::Double(static_cast<double>(i % 13) * 0.5)});
  }
  auto table = std::make_shared<MemTable>(row_type, std::move(rows));
  auto logical =
      LogicalTableScan::Create(table, {"t"}, Convention::Enumerable(), tf);
  RelNodePtr scan = EnumerableTableScan::Create(
      *static_cast<const TableScan*>(logical.get()));

  auto ref = [&](int i) { return rex.MakeInputRef(scan->row_type(), i); };
  auto cond = rex.MakeCall(OpKind::kLessThan,
                           {ref(0), rex.MakeIntLiteral(90000)});
  ASSERT_TRUE(cond.ok());
  RelNodePtr filtered = EnumerableFilter::Create(scan, cond.value());
  auto twice =
      rex.MakeCall(OpKind::kTimes, {ref(0), rex.MakeIntLiteral(2)});
  ASSERT_TRUE(twice.ok());
  std::vector<RexNodePtr> exprs = {ref(1), twice.value(), ref(2)};
  auto proj_type = DeriveProjectRowType(exprs, {"k", "id2", "d"}, tf);
  RelNodePtr projected = EnumerableProject::Create(filtered, exprs, proj_type);
  std::vector<AggregateCall> calls;
  {
    AggregateCall c;
    c.kind = AggKind::kCountStar;
    c.name = "cnt";
    calls.push_back(c);
    c.kind = AggKind::kSum;
    c.args = {1};
    c.name = "sum_id2";
    calls.push_back(c);
    c.kind = AggKind::kAvg;
    c.args = {2};
    c.name = "avg_d";
    calls.push_back(c);
  }
  auto agg_type = DeriveAggregateRowType(proj_type, {0}, calls, tf);
  RelNodePtr plan =
      EnumerableAggregate::Create(projected, {0}, calls, agg_type);

  // Columnar pipeline: ExecuteBatched builds the plumbing (and the table's
  // columnar decomposition) eagerly; only the drain is measured.
  ExecOptions opts;
  auto columnar = plan->ExecuteBatched(opts);
  ASSERT_TRUE(columnar.ok());
  auto [col_rows, col_allocs] = DrainCounted(columnar.value());
  // 8 groups: k ∈ {NULL, 0..6}.
  EXPECT_EQ(col_rows, 8u);
  // ~88 batches of 1024 rows flow through four operators; a small constant
  // number of allocations per batch (batch bookkeeping, selection vectors —
  // arenas are pooled) is fine, one per *row* (100k) is the bug this test
  // exists to catch.
  EXPECT_LT(col_allocs, 5000u) << "columnar hot path allocates per row";

  // A row consumer directly above the filter gets every survivor boxed (90k
  // pass the pushed filter): that allocation count scales with the row
  // count, the contrast that makes the bound above meaningful.
  auto boxed = filtered->ExecuteBatched(opts);
  ASSERT_TRUE(boxed.ok());
  auto [boxed_rows, boxed_allocs] = DrainCounted(boxed.value());
  EXPECT_EQ(boxed_rows, 90000u);
  EXPECT_GT(boxed_allocs, size_t{80000});
  EXPECT_GT(boxed_allocs, col_allocs * 20);
}

// A columnar filter -> project drain with a residual predicate and
// multi-node projections stays batch-bounded on the heap too: the per-node
// kernels bump-allocate their temporaries from pooled arenas, so
// allocations scale with batch count (~98 here), never row count.
TEST(AllocCountTest, FilterProjectDrainStaysBatchBounded) {
  TypeFactory tf;
  RexBuilder rex;
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto int_null = tf.CreateSqlType(SqlTypeName::kInteger, -1, true);
  auto row_type = tf.CreateStructType({"id", "k"}, {int_t, int_null});
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    rows.push_back(
        {Value::Int(static_cast<int64_t>(i)),
         i % 3 == 0 ? Value::Null() : Value::Int(static_cast<int64_t>(i % 7))});
  }
  auto table = std::make_shared<MemTable>(row_type, std::move(rows));
  auto logical =
      LogicalTableScan::Create(table, {"t"}, Convention::Enumerable(), tf);
  RelNodePtr scan = EnumerableTableScan::Create(
      *static_cast<const TableScan*>(logical.get()));
  auto ref = [&](int i) { return rex.MakeInputRef(scan->row_type(), i); };
  // Range pair (fuses into the leaf scan as one interval test) plus a
  // residual over both columns.
  auto lo = rex.MakeCall(OpKind::kGreaterThanOrEqual,
                         {ref(0), rex.MakeIntLiteral(1000)});
  ASSERT_TRUE(lo.ok());
  auto hi = rex.MakeCall(OpKind::kLessThan,
                         {ref(0), rex.MakeIntLiteral(95000)});
  ASSERT_TRUE(hi.ok());
  auto res = rex.MakeCall(OpKind::kGreaterThan,
                          {rex.MakeCall(OpKind::kPlus, {ref(0), ref(1)})
                               .value(),
                           rex.MakeIntLiteral(1200)});
  ASSERT_TRUE(res.ok());
  RelNodePtr filtered = EnumerableFilter::Create(
      scan, rex.MakeAnd({lo.value(), hi.value(), res.value()}));
  auto twice = rex.MakeCall(
      OpKind::kPlus,
      {rex.MakeCall(OpKind::kTimes, {ref(0), rex.MakeIntLiteral(2)}).value(),
       ref(1)});
  ASSERT_TRUE(twice.ok());
  std::vector<RexNodePtr> exprs = {twice.value(), ref(1)};
  auto proj_type = DeriveProjectRowType(exprs, {"m", "k"}, tf);
  RelNodePtr plan = EnumerableProject::Create(filtered, exprs, proj_type);

  auto puller = plan->TryExecuteColumnar(ExecOptions{});
  ASSERT_TRUE(puller.has_value() && puller->ok());
  size_t out_rows = 0;
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (;;) {
    auto batch = (puller->value())();
    EXPECT_TRUE(batch.ok());
    if (batch.value().AtEnd()) break;
    out_rows += batch.value().ActiveCount();
  }
  g_counting.store(false, std::memory_order_relaxed);
  const size_t allocs = g_alloc_count.load(std::memory_order_relaxed);
  // 94k rows pass the range; the residual drops NULL-k rows (a third).
  EXPECT_GT(out_rows, 60000u);
  // ~98 batches; a handful of allocations per batch is bookkeeping, one per
  // row would be ~94k.
  EXPECT_LT(allocs, 3000u) << "filter/project drain allocates per row";
}

}  // namespace
}  // namespace calcite
