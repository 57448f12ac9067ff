// Tests of the rows->columns leaf, the one way row-native output enters the
// columnar expression path:
//  - RowsToColumns units: typed columns with NULL bytemaps, a misfit value
//    degrading its column to boxed, strings that outlive the source RowBatch
//    through the batch's pin (meaningful under ASan), unconverted columns
//    of a read mask, ragged rows returning a Status, and the streaming
//    puller.
//  - Filter, project and aggregate above every row-native operator (hash
//    join, nested-loop join, window, union, values, EnumerableInterpreter),
//    at batch {1, 1024} x threads {1, 4}, against the per-row oracle
//    (row_oracle.h).
//  - A DiskTable (paged leaf, no columnar cache) at 4 threads over a
//    16-page pool: pushed-only, pushed+residual, BETWEEN and string
//    predicates, bare and under project/aggregate, against the serial run,
//    under kAuto (key ranges take the index) and kForceHeap (page-run
//    morsels).
//  - FuseScanRanges, which pairs a column's lower and upper pushed bounds
//    into the one interval test the columnar scan leaf applies.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "adapters/enumerable/enumerable_rels.h"
#include "exec/arena.h"
#include "exec/column_batch.h"
#include "rel/core.h"
#include "rex/rex_builder.h"
#include "rex/rex_columnar.h"
#include "row_oracle.h"
#include "storage/disk_table.h"

namespace calcite {
namespace {

/// id INT NOT NULL, k INT? (NULL every 3rd), s VARCHAR? (NULL every 5th),
/// d DOUBLE? (NULL every 4th), f BOOLEAN? (NULL every 6th).
RelDataTypePtr TestRowType(const TypeFactory& tf) {
  return tf.CreateStructType(
      {"id", "k", "s", "d", "f"},
      {tf.CreateSqlType(SqlTypeName::kInteger),
       tf.CreateSqlType(SqlTypeName::kInteger, -1, true),
       tf.CreateSqlType(SqlTypeName::kVarchar, 20, true),
       tf.CreateSqlType(SqlTypeName::kDouble, -1, true),
       tf.CreateSqlType(SqlTypeName::kBoolean, -1, true)});
}

std::vector<Row> MakeRows(size_t n, int64_t first_id = 0) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(
        {Value::Int(first_id + static_cast<int64_t>(i)),
         i % 3 == 0 ? Value::Null() : Value::Int(static_cast<int64_t>(i % 7)),
         i % 5 == 0 ? Value::Null()
                    : Value::String("s" + std::to_string(i % 11)),
         i % 4 == 0 ? Value::Null()
                    : Value::Double(static_cast<double>(i % 13) * 0.5),
         i % 6 == 0 ? Value::Null() : Value::Bool(i % 2 == 0)});
  }
  return rows;
}

std::vector<std::string> Strings(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(RowToString(row));
  return out;
}

Result<std::vector<Row>> RunPlan(const RelNodePtr& node, const ExecOptions& opts) {
  auto puller = node->ExecuteBatched(opts);
  if (!puller.ok()) return puller.status();
  return DrainBatches(puller.value());
}

// ---------------------------- RowsToColumns --------------------------------

class RowsToColumnsTest : public ::testing::Test {
 protected:
  TypeFactory tf_;
  RexBuilder rex_;
};

TEST_F(RowsToColumnsTest, TypedColumnsWithNullMaps) {
  std::vector<Row> rows = MakeRows(40);
  auto cols = RowsToColumns(rows, *TestRowType(tf_));
  ASSERT_TRUE(cols.ok()) << cols.status().ToString();
  const ColumnBatch& batch = cols.value();
  ASSERT_EQ(batch.num_rows, 40u);
  ASSERT_EQ(batch.cols.size(), 5u);
  EXPECT_FALSE(batch.has_sel);
  EXPECT_EQ(batch.cols[0].type, PhysType::kInt64);
  EXPECT_EQ(batch.cols[1].type, PhysType::kInt64);
  EXPECT_EQ(batch.cols[2].type, PhysType::kString);
  EXPECT_EQ(batch.cols[3].type, PhysType::kDouble);
  EXPECT_EQ(batch.cols[4].type, PhysType::kBool);
  EXPECT_EQ(batch.cols[0].nulls, nullptr);  // no NULL in the column
  for (size_t c = 1; c < 5; ++c) EXPECT_NE(batch.cols[c].nulls, nullptr) << c;
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(RowToString(batch.GatherRow(i)), RowToString(rows[i])) << i;
  }
}

TEST_F(RowsToColumnsTest, MisfitValueDegradesItsColumnToBoxed) {
  std::vector<Row> rows = MakeRows(9);
  rows[4][1] = Value::String("not an int");  // declared INT
  rows[7][3] = Value::Int(3);                // declared DOUBLE
  auto cols = RowsToColumns(rows, *TestRowType(tf_));
  ASSERT_TRUE(cols.ok()) << cols.status().ToString();
  const ColumnBatch& batch = cols.value();
  EXPECT_EQ(batch.cols[0].type, PhysType::kInt64);
  EXPECT_EQ(batch.cols[1].type, PhysType::kValue);
  EXPECT_EQ(batch.cols[2].type, PhysType::kString);
  EXPECT_EQ(batch.cols[3].type, PhysType::kValue);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(RowToString(batch.GatherRow(i)), RowToString(rows[i])) << i;
    EXPECT_EQ(batch.cols[1].IsNullAt(i), rows[i][1].IsNull()) << i;
  }
}

TEST_F(RowsToColumnsTest, StringsOutliveTheSourceBatchThroughThePin) {
  ColumnBatch survivor;
  ColumnBatch projected;
  {
    // Long strings: heap-allocated, so a dangling StringRef is a
    // use-after-free the address sanitizer reports.
    RowBatch rows;
    for (int i = 0; i < 64; ++i) {
      rows.push_back({Value::Int(i), Value::Null(),
                      Value::String(std::string(100, 'a' + i % 26)),
                      Value::Null(), Value::Null()});
    }
    auto cols = RowsToColumns(std::move(rows), *TestRowType(tf_));
    ASSERT_TRUE(cols.ok()) << cols.status().ToString();
    // A projection aliasing the string column outlives its input batch
    // too: ShareStorage pins the input's source rows.
    const ColumnBatch& in = cols.value();
    projected.arena = std::make_shared<Arena>();
    projected.num_rows = in.ActiveCount();
    projected.ShareStorage(in);
    ASSERT_TRUE(RexColumnar::AppendEvalColumn(
                    rex_.MakeInputRef(TestRowType(tf_), 2), in, &projected)
                    .ok());
    survivor = cols.value();  // shallow copy; the original is dropped here
  }
  ASSERT_NE(survivor.rows, nullptr);
  ASSERT_EQ(survivor.cols[2].type, PhysType::kString);
  ASSERT_EQ(projected.cols.size(), 1u);
  ASSERT_EQ(projected.cols[0].type, PhysType::kString);
  for (size_t i = 0; i < 64; ++i) {
    const std::string want(100, static_cast<char>('a' + i % 26));
    EXPECT_EQ(survivor.cols[2].str[i].view(), want);
    EXPECT_EQ(projected.cols[0].str[i].view(), want);
  }
  survivor = ColumnBatch{};
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(projected.cols[0].str[i].view(),
              std::string(100, static_cast<char>('a' + i % 26)));
  }
}

TEST_F(RowsToColumnsTest, UnconvertedColumnsReadNullButRowsBoxWhole) {
  std::vector<Row> rows = MakeRows(20);
  ColumnMask convert = {false, true, false, true, false};
  auto cols = RowsToColumns(rows, *TestRowType(tf_), nullptr, convert);
  ASSERT_TRUE(cols.ok()) << cols.status().ToString();
  const ColumnBatch& batch = cols.value();
  EXPECT_EQ(batch.cols[1].type, PhysType::kInt64);
  EXPECT_EQ(batch.cols[3].type, PhysType::kDouble);
  for (size_t c : {size_t{0}, size_t{2}, size_t{4}}) {
    EXPECT_EQ(batch.cols[c].type, PhysType::kValue) << c;
  }
  RowBatch boxed;
  ColumnsToRows(batch, &boxed);
  EXPECT_EQ(Strings(boxed), Strings(rows));
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(batch.cols[0].IsNullAt(i)) << i;
    EXPECT_EQ(batch.cols[1].GetValue(i).ToString(), rows[i][1].ToString());
  }
}

TEST_F(RowsToColumnsTest, RaggedRowsReturnAStatus) {
  std::vector<Row> rows = MakeRows(3);
  rows[1].pop_back();
  auto cols = RowsToColumns(rows, *TestRowType(tf_));
  EXPECT_FALSE(cols.ok());

  // Empty input converts to an empty batch.
  auto empty = RowsToColumns(RowBatch{}, *TestRowType(tf_));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().num_rows, 0u);
}

TEST_F(RowsToColumnsTest, PullerConvertsEveryBatchAndPropagatesErrors) {
  std::vector<Row> rows = MakeRows(10);
  ColumnBatchPuller pull =
      RowsToColumnsPuller(ChunkRows(rows, 4), TestRowType(tf_));
  std::vector<Row> got;
  for (;;) {
    auto batch = pull();
    ASSERT_TRUE(batch.ok());
    if (batch.value().AtEnd()) break;
    EXPECT_LE(batch.value().num_rows, 4u);
    RowBatch boxed;
    ColumnsToRows(batch.value(), &boxed);
    got.insert(got.end(), boxed.begin(), boxed.end());
  }
  EXPECT_EQ(Strings(got), Strings(rows));

  rows[5].push_back(Value::Int(1));  // ragged row in the second batch
  ColumnBatchPuller bad =
      RowsToColumnsPuller(ChunkRows(rows, 4), TestRowType(tf_));
  ASSERT_TRUE(bad().ok());
  EXPECT_FALSE(bad().ok());
}

// ------------------- expressions above row-native operators ----------------

class RowNativeParityTest : public ::testing::Test {
 protected:
  RelNodePtr Scan(size_t n, int64_t first_id = 0) {
    auto table = std::make_shared<MemTable>(TestRowType(tf_),
                                            MakeRows(n, first_id));
    auto logical =
        LogicalTableScan::Create(table, {"t"}, Convention::Enumerable(), tf_);
    return EnumerableTableScan::Create(
        *static_cast<const TableScan*>(logical.get()));
  }

  RexNodePtr Call(OpKind op, std::vector<RexNodePtr> operands) {
    auto call = rex_.MakeCall(op, std::move(operands));
    EXPECT_TRUE(call.ok());
    return call.value();
  }

  /// The row-native operators under test, each over 1500 input rows.
  std::vector<std::pair<std::string, RelNodePtr>> RowNativeInputs() {
    std::vector<std::pair<std::string, RelNodePtr>> out;
    RelNodePtr a = Scan(1500);
    RelNodePtr b = Scan(60, 10000);
    const RelDataTypePtr& rt = a->row_type();
    const int w = static_cast<int>(rt->fields().size());

    RexNodePtr equi =
        rex_.MakeEquals(rex_.MakeInputRef(rt, 1),
                        rex_.MakeInputRef(w + 1, rt->fields()[1].type));
    out.emplace_back("hash join",
                     EnumerableHashJoin::Create(
                         a, b, equi, JoinType::kLeft,
                         DeriveJoinRowType(rt, rt, JoinType::kLeft, tf_)));

    RexNodePtr non_equi = Call(
        OpKind::kLessThan,
        {Call(OpKind::kPlus,
              {rex_.MakeInputRef(rt, 1), rex_.MakeIntLiteral(10000)}),
         rex_.MakeInputRef(w, rt->fields()[0].type)});
    RelNodePtr small = Scan(40);
    out.emplace_back(
        "nested-loop join",
        EnumerableNestedLoopJoin::Create(
            small, b, non_equi, JoinType::kInner,
            DeriveJoinRowType(rt, rt, JoinType::kInner, tf_)));

    WindowGroup group;
    group.partition_keys = {1};
    group.order = RelCollation({FieldCollation{0, Direction::kAscending}});
    group.is_rows = true;
    AggregateCall sum;
    sum.kind = AggKind::kSum;
    sum.args = {3};
    sum.name = "running_d";
    sum.type = DeriveAggCallType(AggKind::kSum, {3}, rt, tf_);
    group.agg_calls = {sum};
    out.emplace_back("window",
                     EnumerableWindow::Create(
                         a, {group}, DeriveWindowRowType(rt, {group}, tf_)));

    out.emplace_back("union", EnumerableSetOp::Create(
                                  {a, Scan(300, 5000)}, SetOp::Kind::kUnion,
                                  /*all=*/true, rt));
    out.emplace_back("values",
                     EnumerableValues::Create(rt, MakeRows(1500)));
    out.emplace_back("interpreter", EnumerableInterpreter::Create(
                                        EnumerableValues::Create(
                                            rt, MakeRows(1500))));
    return out;
  }

  /// Filter, project and aggregates over `input`, reading its first five
  /// columns (every row-native input above starts with the test columns).
  std::vector<std::pair<std::string, RelNodePtr>> ExpressionsAbove(
      const RelNodePtr& input) {
    const RelDataTypePtr& rt = input->row_type();
    auto ref = [&](int i) { return rex_.MakeInputRef(rt, i); };
    std::vector<std::pair<std::string, RelNodePtr>> out;

    // A typed residual plus a LIKE that only the per-row fallback covers.
    RexNodePtr cond = rex_.MakeAnd(
        {Call(OpKind::kGreaterThan, {ref(0), ref(1)}),
         rex_.MakeOr({Call(OpKind::kLike,
                           {ref(2), rex_.MakeStringLiteral("s1%")}),
                      Call(OpKind::kIsNull, {ref(3)})})});
    RelNodePtr filtered = EnumerableFilter::Create(input, cond);
    out.emplace_back("filter", filtered);

    std::vector<RexNodePtr> exprs = {
        Call(OpKind::kPlus, {Call(OpKind::kTimes, {ref(0), ref(1)}),
                             rex_.MakeIntLiteral(3)}),
        Call(OpKind::kTimes, {ref(3), rex_.MakeDoubleLiteral(2.0)}),
        Call(OpKind::kUpper, {ref(2)}), ref(4), ref(1)};
    auto proj_type =
        DeriveProjectRowType(exprs, {"m", "d2", "us", "f", "k"}, tf_);
    out.emplace_back("project",
                     EnumerableProject::Create(input, exprs, proj_type));
    out.emplace_back("project(filter)",
                     EnumerableProject::Create(filtered, exprs, proj_type));

    std::vector<AggregateCall> calls;
    AggregateCall c;
    c.kind = AggKind::kCountStar;
    c.name = "cnt";
    calls.push_back(c);
    c.kind = AggKind::kSum;
    c.args = {3};
    c.name = "sum_d";
    calls.push_back(c);
    c.kind = AggKind::kMax;
    c.args = {2};
    c.name = "max_s";
    calls.push_back(c);
    for (std::vector<int> keys :
         {std::vector<int>{}, std::vector<int>{1}, std::vector<int>{1, 4}}) {
      out.emplace_back(
          "aggregate keys=" + std::to_string(keys.size()),
          EnumerableAggregate::Create(
              filtered, keys, calls,
              DeriveAggregateRowType(rt, keys, calls, tf_)));
    }
    return out;
  }

  TypeFactory tf_;
  RexBuilder rex_;
};

TEST_F(RowNativeParityTest, ExpressionsAboveRowNativeOperatorsMatchOracle) {
  for (auto& [input_name, input] : RowNativeInputs()) {
    for (auto& [expr_name, plan] : ExpressionsAbove(input)) {
      const std::string label = expr_name + " over " + input_name;
      auto want = testing::OracleRows(plan);
      ASSERT_TRUE(want.ok()) << label << ": " << want.status().ToString();
      ASSERT_FALSE(want.value().empty()) << label;
      std::vector<std::string> want_s = Strings(want.value());
      std::vector<std::string> want_sorted = want_s;
      std::sort(want_sorted.begin(), want_sorted.end());
      for (size_t bs : {size_t{1}, size_t{1024}}) {
        for (size_t threads : {size_t{1}, size_t{4}}) {
          ExecOptions opts;
          opts.batch_size = bs;
          opts.num_threads = threads;
          const std::string config = label + " bs=" + std::to_string(bs) +
                                     " threads=" + std::to_string(threads);
          auto got = RunPlan(plan, opts);
          ASSERT_TRUE(got.ok()) << config << ": " << got.status().ToString();
          std::vector<std::string> got_s = Strings(got.value());
          if (threads == 1) {
            ASSERT_EQ(got_s, want_s) << config;
          } else {
            std::sort(got_s.begin(), got_s.end());
            ASSERT_EQ(got_s, want_sorted) << config;
          }
        }
      }
    }
  }
}

// ------------------------- paged DiskTable leaf ----------------------------

TEST_F(RowNativeParityTest, DiskTablePagedLeafMatchesSerialAtFourThreads) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("calcite_leaf_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  storage::DiskTableOptions dt_opts;
  dt_opts.pool_pages = 16;
  dt_opts.pages_per_run = 2;
  auto created =
      storage::DiskTable::Create(dir + "/t.db", TestRowType(tf_), 0, dt_opts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::shared_ptr<storage::DiskTable> table = created.value();
  ASSERT_TRUE(table->InsertRows(MakeRows(6000)).ok());
  ASSERT_GT(table->heap_page_count(), dt_opts.pool_pages * 2);

  auto logical =
      LogicalTableScan::Create(table, {"t"}, Convention::Enumerable(), tf_);
  RelNodePtr scan =
      EnumerableTableScan::Create(*static_cast<const TableScan*>(logical.get()));
  const RelDataTypePtr& rt = scan->row_type();
  auto ref = [&](int i) { return rex_.MakeInputRef(rt, i); };
  auto lit = [&](int64_t v) { return rex_.MakeIntLiteral(v); };

  const std::vector<std::pair<std::string, RexNodePtr>> conditions = {
      {"pushed only",
       rex_.MakeAnd({Call(OpKind::kGreaterThanOrEqual, {ref(0), lit(1000)}),
                     Call(OpKind::kLessThan, {ref(0), lit(4500)}),
                     Call(OpKind::kIsNotNull, {ref(1)})})},
      {"pushed + residual",
       rex_.MakeAnd({Call(OpKind::kLessThan, {ref(0), lit(5000)}),
                     Call(OpKind::kGreaterThan,
                          {Call(OpKind::kPlus, {ref(1), ref(3)}),
                           rex_.MakeDoubleLiteral(4.0)})})},
      {"between", Call(OpKind::kBetween, {ref(0), lit(2500), lit(2600)})},
      {"string",
       rex_.MakeAnd(
           {Call(OpKind::kEquals, {ref(2), rex_.MakeStringLiteral("s3")}),
            rex_.MakeOr({Call(OpKind::kLike,
                              {ref(2), rex_.MakeStringLiteral("s%")}),
                         ref(4)})})},
  };
  std::vector<AggregateCall> calls;
  AggregateCall count;
  count.kind = AggKind::kCountStar;
  count.name = "cnt";
  calls.push_back(count);
  AggregateCall sum;
  sum.kind = AggKind::kSum;
  sum.args = {3};
  sum.name = "sum_d";
  calls.push_back(sum);

  for (const auto& [name, cond] : conditions) {
    RelNodePtr filtered = EnumerableFilter::Create(scan, cond);
    std::vector<RexNodePtr> exprs = {
        ref(0), Call(OpKind::kTimes, {ref(3), rex_.MakeDoubleLiteral(2.0)})};
    const std::vector<std::pair<std::string, RelNodePtr>> plans = {
        {"filter", filtered},
        {"project", EnumerableProject::Create(
                        filtered, exprs,
                        DeriveProjectRowType(exprs, {"id", "d2"}, tf_))},
        {"aggregate", EnumerableAggregate::Create(
                          filtered, {1}, calls,
                          DeriveAggregateRowType(rt, {1}, calls, tf_))},
        {"aggregate(2 keys)",
         EnumerableAggregate::Create(
             filtered, {1, 4}, calls,
             DeriveAggregateRowType(rt, {1, 4}, calls, tf_))},
    };
    for (const auto& [plan_name, plan] : plans) {
      const std::string label = plan_name + " / " + name;
      auto serial = RunPlan(plan, ExecOptions{});
      ASSERT_TRUE(serial.ok()) << label << ": " << serial.status().ToString();
      auto want = testing::OracleRows(plan);
      ASSERT_TRUE(want.ok()) << label;
      ASSERT_FALSE(want.value().empty()) << label;
      std::vector<std::string> serial_s = Strings(serial.value());
      std::vector<std::string> want_s = Strings(want.value());
      std::sort(serial_s.begin(), serial_s.end());
      std::sort(want_s.begin(), want_s.end());
      EXPECT_EQ(serial_s, want_s) << label;
      // kAuto sends the key-range conditions to the B-tree (a serial index
      // leaf); kForceHeap keeps every condition on page-run morsels.
      for (AccessPath path : {AccessPath::kAuto, AccessPath::kForceHeap}) {
        ExecOptions opts;
        opts.num_threads = 4;
        opts.access_path = path;
        auto par = RunPlan(plan, opts);
        ASSERT_TRUE(par.ok()) << label << ": " << par.status().ToString();
        std::vector<std::string> par_s = Strings(par.value());
        std::sort(par_s.begin(), par_s.end());
        EXPECT_EQ(par_s, serial_s)
            << label << " path=" << static_cast<int>(path);
      }
    }
  }
  EXPECT_EQ(table->buffer_pool().pinned_frames(), 0u);
  table.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// ------------------------- scan range pairing -----------------------------

ScanPredicate Bound(ScanPredicate::Kind kind, int column, Value lit) {
  ScanPredicate p;
  p.kind = kind;
  p.column = column;
  p.literal = std::move(lit);
  return p;
}

TEST(ScanRangeTest, FuseScanRangesPairsBounds) {
  ScanPredicateList preds;
  preds.push_back(
      Bound(ScanPredicate::Kind::kGreaterThanOrEqual, 0, Value::Int(10)));
  preds.push_back(Bound(ScanPredicate::Kind::kEquals, 2, Value::Int(1)));
  preds.push_back(Bound(ScanPredicate::Kind::kLessThan, 0, Value::Int(20)));
  preds.push_back(
      Bound(ScanPredicate::Kind::kGreaterThan, 1, Value::Double(0.5)));

  std::vector<FusedScanRange> ranges;
  ScanPredicateList rest;
  FuseScanRanges(std::move(preds), &ranges, &rest);

  // $0's bounds pair across the unrelated equality; the equality and the
  // partnerless $1 bound stay behind in order.
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].lower.column, 0);
  EXPECT_EQ(ranges[0].lower.kind, ScanPredicate::Kind::kGreaterThanOrEqual);
  EXPECT_EQ(ranges[0].upper.kind, ScanPredicate::Kind::kLessThan);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].kind, ScanPredicate::Kind::kEquals);
  EXPECT_EQ(rest[1].column, 1);

  // NULL-literal bounds never fuse (a NULL comparison passes nothing, and
  // the scalar NarrowByScanPredicate path owns that semantics).
  ScanPredicateList with_null;
  with_null.push_back(
      Bound(ScanPredicate::Kind::kGreaterThanOrEqual, 0, Value::Null()));
  with_null.push_back(Bound(ScanPredicate::Kind::kLessThan, 0, Value::Int(3)));
  ranges.clear();
  rest.clear();
  FuseScanRanges(std::move(with_null), &ranges, &rest);
  EXPECT_TRUE(ranges.empty());
  EXPECT_EQ(rest.size(), 2u);
}

}  // namespace
}  // namespace calcite
