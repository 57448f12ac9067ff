// Differential tests of the columnar execution path: every operator that
// evaluates expressions over ColumnBatches (scan, filter, project, hash
// aggregate, hash join probe, and the morsel-parallel pipelines) must
// produce byte-identical results to a test-local per-row evaluator
// (row_oracle.h: RexInterpreter::Eval / EvalPredicate over the table rows),
// across cardinalities that straddle the batch boundary (0 / 1 / 1023 /
// 1024 / 1025), NULL-heavy data, and num_threads ∈ {1, 4} (parallel plans
// compare as multisets — unordered fragments do not promise an order). A
// SQL-level differential runs whole optimized plans across threads and
// batch sizes against hand-checked baselines, and unit packs cover the
// arena allocator, the table column decomposition, leaf predicate pushdown
// on raw columns, the row/column conversion boundary, and the ExecOptions
// normalization clamps. Every pulled batch is checked against the
// normalized batch size, including a batch_size past kMaxBatchSize.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adapters/enumerable/columnar_agg.h"
#include "adapters/enumerable/enumerable_rels.h"
#include "exec/arena.h"
#include "exec/column_batch.h"
#include "exec/simd.h"
#include "rel/core.h"
#include "rex/rex_builder.h"
#include "row_oracle.h"
#include "storage/disk_table.h"
#include "test_schema.h"
#include "tools/frameworks.h"

namespace calcite {
namespace {

const std::vector<size_t> kCardinalities = {0, 1, 1023, 1024, 1025};

/// Five columns spanning every physical column class: id INT NOT NULL
/// (unique), k INT? (NULL every 3rd row), s VARCHAR? (NULL every 5th row),
/// d DOUBLE? (NULL every 4th row), f BOOLEAN? (NULL every 6th row).
RelDataTypePtr TestRowType(const TypeFactory& tf) {
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto int_null = tf.CreateSqlType(SqlTypeName::kInteger, -1, true);
  auto str_null = tf.CreateSqlType(SqlTypeName::kVarchar, 20, true);
  auto dbl_null = tf.CreateSqlType(SqlTypeName::kDouble, -1, true);
  auto bool_null = tf.CreateSqlType(SqlTypeName::kBoolean, -1, true);
  return tf.CreateStructType({"id", "k", "s", "d", "f"},
                             {int_t, int_null, str_null, dbl_null, bool_null});
}

std::vector<Row> MakeRows(size_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(
        {Value::Int(static_cast<int64_t>(i)),
         i % 3 == 0 ? Value::Null() : Value::Int(static_cast<int64_t>(i % 7)),
         i % 5 == 0 ? Value::Null()
                    : Value::String("s" + std::to_string(i % 11)),
         i % 4 == 0 ? Value::Null()
                    : Value::Double(static_cast<double>(i % 13) * 0.5),
         i % 6 == 0 ? Value::Null() : Value::Bool(i % 2 == 0)});
  }
  return rows;
}

Result<std::vector<Row>> RunPlan(const RelNodePtr& node, const ExecOptions& opts) {
  auto puller = node->ExecuteBatched(opts);
  if (!puller.ok()) return puller.status();
  std::vector<Row> out;
  for (;;) {
    auto batch = (puller.value())();
    if (!batch.ok()) return batch.status();
    if (batch.value().empty()) break;
    // Every batch respects the cap (joins split skewed output through
    // their pending buffer).
    EXPECT_LE(batch.value().size(), opts.Normalized().batch_size);
    for (Row& row : batch.value()) out.push_back(std::move(row));
  }
  return out;
}

std::vector<std::string> Strings(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(RowToString(row));
  return out;
}

/// Evaluates `node` with the per-row oracle (the reference) and asserts the
/// engine produces identical rows at several batch sizes (one past
/// kMaxBatchSize), then that 4-way parallel execution produces the same
/// multiset.
/// `unified_key`, when set, names an output group-key column in which an
/// Int and a numerically equal Double share one group: the parallel legs
/// compare it by numeric value, because which of the two cells a group
/// keeps depends on which worker saw the group first.
void ExpectColumnarParity(const RelNodePtr& node, const std::string& label,
                          std::optional<size_t> unified_key = std::nullopt) {
  auto base = testing::OracleRows(node);
  ASSERT_TRUE(base.ok()) << label << ": " << base.status().ToString();
  std::vector<std::string> want = Strings(base.value());
  auto parallel_strings = [&](std::vector<Row> rows) {
    if (unified_key.has_value()) {
      for (Row& row : rows) {
        Value& key = row[*unified_key];
        if (key.is_numeric()) key = Value::Double(key.AsDouble());
      }
    }
    std::vector<std::string> out = Strings(rows);
    std::sort(out.begin(), out.end());
    return out;
  };

  for (size_t bs : {size_t{1}, size_t{3}, size_t{1023}, size_t{1024},
                    4 * kMaxBatchSize}) {
    ExecOptions col_opts;
    col_opts.batch_size = bs;
    auto got = RunPlan(node, col_opts);
    ASSERT_TRUE(got.ok()) << label << " bs=" << bs << ": "
                          << got.status().ToString();
    std::vector<std::string> got_s = Strings(got.value());
    ASSERT_EQ(got_s.size(), want.size()) << label << " bs=" << bs;
    for (size_t i = 0; i < got_s.size(); ++i) {
      ASSERT_EQ(got_s[i], want[i]) << label << " bs=" << bs << " row " << i;
    }
  }

  const std::vector<std::string> want_sorted = parallel_strings(base.value());
  ExecOptions par_opts;
  par_opts.num_threads = 4;
  auto got = RunPlan(node, par_opts);
  ASSERT_TRUE(got.ok()) << label << " threads=4: " << got.status().ToString();
  ASSERT_EQ(parallel_strings(std::move(got).value()), want_sorted)
      << label << " threads=4";
}

class ColumnarParityTest : public ::testing::Test {
 protected:
  /// A scan over a MemTable — the leaf shape that exposes a columnar
  /// decomposition, so plans above it take the ColumnBatch path.
  RelNodePtr Scan(size_t n) {
    auto table = std::make_shared<MemTable>(TestRowType(tf_), MakeRows(n));
    return ScanOf(table);
  }

  RelNodePtr ScanOf(const TablePtr& table) {
    auto logical =
        LogicalTableScan::Create(table, {"t"}, Convention::Enumerable(), tf_);
    return EnumerableTableScan::Create(
        *static_cast<const TableScan*>(logical.get()));
  }

  /// Scan(n)'s columns plus m DOUBLE?, a column whose cells mix Int and
  /// Double, so it decomposes boxed: Int(2), Double(2.0), Int(3),
  /// Double(2.5), NULL in turn.
  RelNodePtr MixedScan(size_t n) {
    RelDataTypePtr base = TestRowType(tf_);
    std::vector<std::string> names;
    std::vector<RelDataTypePtr> types;
    for (const auto& field : base->fields()) {
      names.push_back(field.name);
      types.push_back(field.type);
    }
    names.push_back("m");
    types.push_back(tf_.CreateSqlType(SqlTypeName::kDouble, -1, true));
    std::vector<Row> rows = MakeRows(n);
    for (size_t i = 0; i < n; ++i) {
      const Value cells[] = {Value::Int(2), Value::Double(2.0), Value::Int(3),
                             Value::Double(2.5), Value::Null()};
      rows[i].push_back(cells[i % 5]);
    }
    return ScanOf(std::make_shared<MemTable>(
        tf_.CreateStructType(names, types), std::move(rows)));
  }

  RexNodePtr Field(const RelDataTypePtr& row_type, int i) {
    return rex_.MakeInputRef(row_type, i);
  }

  TypeFactory tf_;
  RexBuilder rex_;
};

TEST_F(ColumnarParityTest, TableScan) {
  for (size_t n : kCardinalities) {
    ExpectColumnarParity(Scan(n), "Scan n=" + std::to_string(n));
  }
}

TEST_F(ColumnarParityTest, Filter) {
  for (size_t n : kCardinalities) {
    RelNodePtr scan = Scan(n);
    const RelDataTypePtr& rt = scan->row_type();
    // Fully pushable: runs on the raw columns inside the leaf scan.
    auto lt = rex_.MakeCall(OpKind::kLessThan,
                            {Field(rt, 0), rex_.MakeIntLiteral(900)});
    ASSERT_TRUE(lt.ok());
    auto nn = rex_.MakeCall(OpKind::kIsNotNull, {Field(rt, 1)});
    ASSERT_TRUE(nn.ok());
    ExpectColumnarParity(
        EnumerableFilter::Create(scan, rex_.MakeAnd({lt.value(), nn.value()})),
        "Filter(pushed) n=" + std::to_string(n));

    // Pushed conjuncts plus a typed residual over two column refs.
    auto refs = rex_.MakeCall(OpKind::kGreaterThan,
                              {Field(rt, 0), Field(rt, 1)});
    ASSERT_TRUE(refs.ok());
    ExpectColumnarParity(
        EnumerableFilter::Create(
            scan, rex_.MakeAnd({lt.value(), refs.value()})),
        "Filter(residual) n=" + std::to_string(n));

    // Row-oracle fallback: LIKE is outside the typed kernel set.
    auto like = rex_.MakeCall(
        OpKind::kLike, {Field(rt, 2), rex_.MakeStringLiteral("s1%")});
    ASSERT_TRUE(like.ok());
    auto dgt = rex_.MakeCall(OpKind::kGreaterThan,
                             {Field(rt, 3), rex_.MakeDoubleLiteral(2.0)});
    ASSERT_TRUE(dgt.ok());
    ExpectColumnarParity(
        EnumerableFilter::Create(scan,
                                 rex_.MakeOr({like.value(), dgt.value()})),
        "Filter(fallback) n=" + std::to_string(n));

    // A nullable BOOLEAN column used directly as the condition.
    ExpectColumnarParity(EnumerableFilter::Create(scan, Field(rt, 4)),
                         "Filter(bool col) n=" + std::to_string(n));

    // Eliminates everything (columnar batches are skipped, never empty).
    ExpectColumnarParity(
        EnumerableFilter::Create(scan, rex_.MakeBoolLiteral(false)),
        "Filter(false) n=" + std::to_string(n));
  }
}

TEST_F(ColumnarParityTest, Project) {
  for (size_t n : kCardinalities) {
    RelNodePtr scan = Scan(n);
    const RelDataTypePtr& rt = scan->row_type();
    auto sum = rex_.MakeCall(OpKind::kPlus,
                             {Field(rt, 0), rex_.MakeIntLiteral(7)});
    ASSERT_TRUE(sum.ok());
    auto prod = rex_.MakeCall(OpKind::kTimes,
                              {Field(rt, 3), rex_.MakeDoubleLiteral(2.0)});
    ASSERT_TRUE(prod.ok());
    auto upper = rex_.MakeCall(OpKind::kUpper, {Field(rt, 2)});  // fallback
    ASSERT_TRUE(upper.ok());
    std::vector<RexNodePtr> exprs = {Field(rt, 0), sum.value(), prod.value(),
                                     upper.value(), Field(rt, 4),
                                     rex_.MakeStringLiteral("const")};
    auto row_type = DeriveProjectRowType(
        exprs, {"id", "id7", "d2", "us", "f", "c"}, tf_);
    ExpectColumnarParity(EnumerableProject::Create(scan, exprs, row_type),
                         "Project n=" + std::to_string(n));

    // Project over a filter: the projection consumes a selection-carrying
    // columnar stream.
    auto cond = rex_.MakeCall(OpKind::kGreaterThanOrEqual,
                              {Field(rt, 0), rex_.MakeIntLiteral(5)});
    ASSERT_TRUE(cond.ok());
    ExpectColumnarParity(
        EnumerableProject::Create(EnumerableFilter::Create(scan, cond.value()),
                                  exprs, row_type),
        "Project(filtered) n=" + std::to_string(n));
  }
}

TEST_F(ColumnarParityTest, Aggregate) {
  for (size_t n : kCardinalities) {
    RelNodePtr scan = Scan(n);
    const RelDataTypePtr& rt = scan->row_type();
    std::vector<AggregateCall> calls;
    {
      AggregateCall c;
      c.kind = AggKind::kCountStar;
      c.name = "cnt";
      calls.push_back(c);
      c.kind = AggKind::kCount;
      c.args = {1};
      c.name = "cnt_k";
      calls.push_back(c);
      c.kind = AggKind::kSum;
      c.args = {3};
      c.name = "sum_d";
      calls.push_back(c);
      c.kind = AggKind::kAvg;
      c.args = {0};
      c.name = "avg_id";
      calls.push_back(c);
      c.kind = AggKind::kMin;
      c.args = {2};
      c.name = "min_s";
      calls.push_back(c);
      c.kind = AggKind::kMax;
      c.args = {3};
      c.name = "max_d";
      calls.push_back(c);
      c.kind = AggKind::kCount;
      c.args = {1};
      c.distinct = true;
      c.name = "cntd_k";
      calls.push_back(c);
    }
    // Global (one output row even over empty input).
    {
      auto row_type = DeriveAggregateRowType(rt, {}, calls, tf_);
      ExpectColumnarParity(
          EnumerableAggregate::Create(scan, {}, calls, row_type),
          "Aggregate(global) n=" + std::to_string(n));
    }
    // Grouped by the NULL-heavy int column (the typed group-key fast path).
    {
      auto row_type = DeriveAggregateRowType(rt, {1}, calls, tf_);
      ExpectColumnarParity(
          EnumerableAggregate::Create(scan, {1}, calls, row_type),
          "Aggregate(k) n=" + std::to_string(n));
    }
    // Grouped by the string column (boxed group keys).
    {
      auto row_type = DeriveAggregateRowType(rt, {2}, calls, tf_);
      ExpectColumnarParity(
          EnumerableAggregate::Create(scan, {2}, calls, row_type),
          "Aggregate(s) n=" + std::to_string(n));
    }
    // Two group keys.
    {
      auto row_type = DeriveAggregateRowType(rt, {1, 2}, calls, tf_);
      ExpectColumnarParity(
          EnumerableAggregate::Create(scan, {1, 2}, calls, row_type),
          "Aggregate(k,s) n=" + std::to_string(n));
    }
    // Aggregate over a filter (selection-carrying columnar input).
    {
      auto cond = rex_.MakeCall(OpKind::kLessThan,
                                {Field(rt, 0), rex_.MakeIntLiteral(777)});
      ASSERT_TRUE(cond.ok());
      auto row_type = DeriveAggregateRowType(rt, {1}, calls, tf_);
      ExpectColumnarParity(
          EnumerableAggregate::Create(
              EnumerableFilter::Create(scan, cond.value()), {1}, calls,
              row_type),
          "Aggregate(filtered) n=" + std::to_string(n));
    }
    // Three keys: a boxed column mixing Int(2) and Double(2.0) (one group)
    // with Int(3), Double(2.5) and NULL; the NULL-heavy int; the string.
    {
      RelNodePtr mixed = MixedScan(n);
      const RelDataTypePtr& mt = mixed->row_type();
      auto row_type = DeriveAggregateRowType(mt, {5, 1, 2}, calls, tf_);
      ExpectColumnarParity(
          EnumerableAggregate::Create(mixed, {5, 1, 2}, calls, row_type),
          "Aggregate(m,k,s) n=" + std::to_string(n), /*unified_key=*/0);
      auto m_only = DeriveAggregateRowType(mt, {5}, calls, tf_);
      ExpectColumnarParity(
          EnumerableAggregate::Create(mixed, {5}, calls, m_only),
          "Aggregate(m) n=" + std::to_string(n), /*unified_key=*/0);
    }
  }
}

// NaN group keys: every NaN cell resolves to the one NaN group, whether
// the key column is typed or boxed, through Feed and through MergeFrom.
TEST_F(ColumnarParityTest, NaNGroupKeysFormOneGroup) {
  constexpr size_t kRows = size_t{1} << 16;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto dbl_null = tf_.CreateSqlType(SqlTypeName::kDouble, -1, true);
  auto row_type = tf_.CreateStructType({"z", "w"}, {dbl_null, dbl_null});
  // z: typed DOUBLE — NaN, integral doubles and NULL. w: boxed (it also
  // stores Ints) — NaN, Int, Double and NULL.
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    Value z = i % 5 == 0   ? Value::Null()
              : i % 5 < 4 ? Value::Double(nan)
                          : Value::Double(static_cast<double>(i % 7));
    Value w = i % 6 == 0   ? Value::Null()
              : i % 6 < 4 ? Value::Double(nan)
              : i % 6 == 4 ? Value::Int(static_cast<int64_t>(i % 3))
                           : Value::Double(static_cast<double>(i % 3));
    rows.push_back({std::move(z), std::move(w)});
  }
  auto table = std::make_shared<MemTable>(row_type, rows);
  TypeFactory tf;
  TableColumnsPtr columns = table->MaterializedColumns(tf);
  ASSERT_NE(columns, nullptr);
  ASSERT_EQ(columns->cols[0].type, PhysType::kDouble);
  ASSERT_EQ(columns->cols[1].type, PhysType::kValue);

  AggregateCall count;
  count.kind = AggKind::kCountStar;
  count.name = "c";
  for (const std::vector<int>& keys :
       {std::vector<int>{0}, std::vector<int>{1}, std::vector<int>{0, 1}}) {
    const std::string label = "keys=" + std::to_string(keys.size()) + "," +
                              std::to_string(keys[0]);
    auto agg_type = DeriveAggregateRowType(row_type, keys, {count}, tf_);
    RelNodePtr plan =
        EnumerableAggregate::Create(ScanOf(table), keys, {count}, agg_type);
    auto want = testing::OracleRows(plan);
    ASSERT_TRUE(want.ok()) << label;
    std::vector<std::string> want_s = Strings(want.value());

    // One builder fed the whole column in one batch.
    auto whole = ColumnarAggBuilder::Create(keys, {count});
    ASSERT_TRUE(whole->Feed(SliceTableColumns(columns, 0, kRows, table)).ok());
    EXPECT_EQ(Strings(whole->EmitBatch(kRows)), want_s) << label << " Feed";

    // Two builders fed one half each, then merged.
    auto first = ColumnarAggBuilder::Create(keys, {count});
    auto second = ColumnarAggBuilder::Create(keys, {count});
    ASSERT_TRUE(
        first->Feed(SliceTableColumns(columns, 0, kRows / 2, table)).ok());
    ASSERT_TRUE(second->Feed(SliceTableColumns(columns, kRows / 2, kRows / 2,
                                               table))
                    .ok());
    ASSERT_TRUE(first->MergeFrom(*second).ok());
    EXPECT_EQ(Strings(first->EmitBatch(kRows)), want_s) << label << " Merge";
  }

  // NaNs of any sign or payload are one group too (the oracle hashes NaN
  // bit patterns apart, so this case is checked by hand).
  const double neg_nan = -nan;
  uint64_t payload_bits = 0x7ff0000000000001ULL;  // a signalling NaN
  double payload_nan;
  std::memcpy(&payload_nan, &payload_bits, sizeof(payload_nan));
  std::vector<Row> nans = {{Value::Double(nan), Value::Null()},
                           {Value::Double(neg_nan), Value::Null()},
                           {Value::Double(payload_nan), Value::Null()},
                           {Value::Double(1.0), Value::Null()}};
  auto nan_table = std::make_shared<MemTable>(row_type, nans);
  TableColumnsPtr nan_columns = nan_table->MaterializedColumns(tf);
  auto builder = ColumnarAggBuilder::Create({0}, {count});
  ASSERT_TRUE(
      builder->Feed(SliceTableColumns(nan_columns, 0, 4, nan_table)).ok());
  EXPECT_EQ(Strings(builder->EmitBatch(16)),
            (std::vector<std::string>{"[nan, 3]", "[1.0, 1]"}));
}

TEST_F(ColumnarParityTest, HashJoinAllTypes) {
  const std::vector<JoinType> join_types = {
      JoinType::kInner, JoinType::kLeft,  JoinType::kRight,
      JoinType::kFull,  JoinType::kSemi,  JoinType::kAnti};
  for (size_t n : {size_t{0}, size_t{1}, size_t{1023}, size_t{1025}}) {
    RelNodePtr left = Scan(n);
    RelNodePtr right = Scan(97);
    const RelDataTypePtr& lt = left->row_type();
    const RelDataTypePtr& rt = right->row_type();
    size_t left_width = lt->fields().size();
    // Equi-key on the NULL-heavy k columns plus a non-equi residual.
    auto equi = rex_.MakeEquals(
        Field(lt, 1), rex_.MakeInputRef(static_cast<int>(left_width) + 1,
                                        rt->fields()[1].type));
    auto bound = rex_.MakeCall(
        OpKind::kPlus,
        {rex_.MakeInputRef(static_cast<int>(left_width) + 0,
                           rt->fields()[0].type),
         rex_.MakeIntLiteral(700)});
    ASSERT_TRUE(bound.ok());
    auto residual =
        rex_.MakeCall(OpKind::kLessThan, {Field(lt, 0), bound.value()});
    ASSERT_TRUE(residual.ok());
    RexNodePtr condition = rex_.MakeAnd({equi, residual.value()});
    for (JoinType jt : join_types) {
      auto row_type = DeriveJoinRowType(lt, rt, jt, tf_);
      ExpectColumnarParity(
          EnumerableHashJoin::Create(left, right, condition, jt, row_type),
          std::string("HashJoin ") + JoinTypeName(jt) +
              " n=" + std::to_string(n));
    }
    // Two-key equi-join on (k, s) with the same residual.
    auto equi_s = rex_.MakeEquals(
        Field(lt, 2), rex_.MakeInputRef(static_cast<int>(left_width) + 2,
                                        rt->fields()[2].type));
    RexNodePtr two_keys = rex_.MakeAnd({equi, equi_s, residual.value()});
    for (JoinType jt : join_types) {
      auto row_type = DeriveJoinRowType(lt, rt, jt, tf_);
      ExpectColumnarParity(
          EnumerableHashJoin::Create(left, right, two_keys, jt, row_type),
          std::string("HashJoin(k,s) ") + JoinTypeName(jt) +
              " n=" + std::to_string(n));
    }
    // Probe side under a filter: the probe consumes a selection-carrying
    // columnar stream.
    auto lcond = rex_.MakeCall(OpKind::kGreaterThanOrEqual,
                               {Field(lt, 0), rex_.MakeIntLiteral(3)});
    ASSERT_TRUE(lcond.ok());
    auto inner_type = DeriveJoinRowType(lt, rt, JoinType::kInner, tf_);
    ExpectColumnarParity(
        EnumerableHashJoin::Create(EnumerableFilter::Create(left,
                                                            lcond.value()),
                                   right, equi, JoinType::kInner, inner_type),
        "HashJoin(filtered probe) n=" + std::to_string(n));
  }
}

// One build key matched by more rows than a batch holds: a single probe
// row yields 1100 output rows, which the join hands out across several
// batches of at most batch_size rows, in build order.
TEST_F(ColumnarParityTest, HashJoinSkewedBuildKeySplitsOutput) {
  std::vector<Row> build_rows = MakeRows(1100);
  for (Row& row : build_rows) row[1] = Value::Int(1);
  RelNodePtr right =
      ScanOf(std::make_shared<MemTable>(TestRowType(tf_), build_rows));
  RelNodePtr left = Scan(20);
  const RelDataTypePtr& lt = left->row_type();
  const RelDataTypePtr& rt = right->row_type();
  auto equi = rex_.MakeEquals(
      Field(lt, 1), rex_.MakeInputRef(static_cast<int>(lt->fields().size()) + 1,
                                      rt->fields()[1].type));
  for (JoinType jt : {JoinType::kInner, JoinType::kLeft, JoinType::kFull}) {
    auto row_type = DeriveJoinRowType(lt, rt, jt, tf_);
    ExpectColumnarParity(
        EnumerableHashJoin::Create(left, right, equi, jt, row_type),
        std::string("HashJoin(skewed) ") + JoinTypeName(jt));
  }
}

// A batch_size past kMaxBatchSize handed straight to ExecuteBatched (no
// Connection in between to normalize it) still yields batches of at most
// kMaxBatchSize rows from every serial operator, over an input larger than
// kMaxBatchSize.
TEST_F(ColumnarParityTest, OversizedBatchSizeClampsOnTheSerialPath) {
  const size_t n = kMaxBatchSize + 5;
  RelNodePtr scan = Scan(n);
  const RelDataTypePtr& rt = scan->row_type();
  // A residual (not pushed into the scan) that every row passes.
  auto plus = rex_.MakeCall(OpKind::kPlus,
                            {Field(rt, 0), rex_.MakeIntLiteral(1)});
  ASSERT_TRUE(plus.ok());
  auto residual = rex_.MakeCall(OpKind::kGreaterThan,
                                {plus.value(), rex_.MakeIntLiteral(0)});
  ASSERT_TRUE(residual.ok());
  auto twice = rex_.MakeCall(OpKind::kTimes,
                             {Field(rt, 0), rex_.MakeIntLiteral(2)});
  ASSERT_TRUE(twice.ok());
  std::vector<RexNodePtr> exprs = {twice.value(), Field(rt, 2)};
  std::vector<AggregateCall> calls(1);
  calls[0].kind = AggKind::kCountStar;
  calls[0].name = "cnt";
  const std::vector<std::pair<std::string, RelNodePtr>> plans = {
      {"scan", scan},
      {"filter", EnumerableFilter::Create(scan, residual.value())},
      {"project",
       EnumerableProject::Create(
           scan, exprs, DeriveProjectRowType(exprs, {"id2", "s"}, tf_))},
      {"aggregate",
       EnumerableAggregate::Create(
           scan, {0}, calls, DeriveAggregateRowType(rt, {0}, calls, tf_))},
      {"sort", EnumerableSort::Create(
                   scan, RelCollation({{0, Direction::kDescending}}), 0, -1)},
      {"union", EnumerableSetOp::Create({scan, scan}, SetOp::Kind::kUnion,
                                        true, rt)},
      {"values", EnumerableValues::Create(rt, MakeRows(n))},
  };
  for (const auto& [name, plan] : plans) {
    auto want = testing::OracleRows(plan);
    ASSERT_TRUE(want.ok()) << name << ": " << want.status().ToString();
    ASSERT_GT(want.value().size(), kMaxBatchSize) << name;
    ExecOptions opts;
    opts.batch_size = 4 * kMaxBatchSize;
    ASSERT_EQ(opts.Normalized().batch_size, kMaxBatchSize);
    auto got = RunPlan(plan, opts);  // checks every batch's size
    ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
    EXPECT_EQ(Strings(got.value()), Strings(want.value())) << name;
  }
}

TEST_F(ColumnarParityTest, PipelineScanFilterProjectAggregate) {
  // The full converted pipeline in one plan, the hot-path shape the
  // benchmark sweeps measure.
  for (size_t n : kCardinalities) {
    RelNodePtr scan = Scan(n);
    const RelDataTypePtr& rt = scan->row_type();
    auto cond = rex_.MakeCall(OpKind::kLessThan,
                              {Field(rt, 0), rex_.MakeIntLiteral(999)});
    ASSERT_TRUE(cond.ok());
    RelNodePtr filtered = EnumerableFilter::Create(scan, cond.value());
    auto twice = rex_.MakeCall(OpKind::kTimes,
                               {Field(rt, 0), rex_.MakeIntLiteral(2)});
    ASSERT_TRUE(twice.ok());
    std::vector<RexNodePtr> exprs = {Field(rt, 1), twice.value(),
                                     Field(rt, 3)};
    auto proj_type = DeriveProjectRowType(exprs, {"k", "id2", "d"}, tf_);
    RelNodePtr projected =
        EnumerableProject::Create(filtered, exprs, proj_type);
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
    auto agg_type = DeriveAggregateRowType(proj_type, {0}, calls, tf_);
    ExpectColumnarParity(
        EnumerableAggregate::Create(projected, {0}, calls, agg_type),
        "Pipeline n=" + std::to_string(n));
  }
}

TEST_F(ColumnarParityTest, DiskTableScansBypassColumnarCache) {
  // A DiskTable exposes no columnar decomposition (MaterializedColumns is
  // nullptr — decomposing would pin the whole table in RAM), so filters
  // enter the columnar path through the rows->columns leaf over its
  // OpenScan and must still match the oracle exactly, serial and 4-way
  // parallel, with the buffer pool far smaller than the table. Exercised
  // bare and under a filter whose primary-key conjunct routes to the
  // B-tree on the serial path, with the index both forced and forced off.
  char tmpl[] = "/tmp/calcite_colpar_disk_XXXXXX";
  char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string dir_path = dir;

  for (size_t n : {size_t{0}, size_t{1}, size_t{1025}, size_t{4000}}) {
    storage::DiskTableOptions dt_opts;
    dt_opts.pool_pages = 8;
    auto table = storage::DiskTable::Create(
        dir_path + "/t" + std::to_string(n) + ".db", TestRowType(tf_), 0,
        dt_opts);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_TRUE((*table)->InsertRows(MakeRows(n)).ok());
    TypeFactory tf;
    EXPECT_EQ((*table)->MaterializedColumns(tf), nullptr);

    RelNodePtr scan = ScanOf(*table);
    ExpectColumnarParity(scan, "DiskScan n=" + std::to_string(n));

    const RelDataTypePtr& rt = scan->row_type();
    auto key_range = rex_.MakeCall(OpKind::kLessThan,
                                   {Field(rt, 0), rex_.MakeIntLiteral(500)});
    ASSERT_TRUE(key_range.ok());
    auto residual = rex_.MakeCall(OpKind::kIsNotNull, {Field(rt, 3)});
    ASSERT_TRUE(residual.ok());
    RelNodePtr filtered = EnumerableFilter::Create(
        scan, rex_.MakeAnd({key_range.value(), residual.value()}));
    for (AccessPath path : {AccessPath::kForceIndex, AccessPath::kForceHeap}) {
      const std::string label = "DiskFilter n=" + std::to_string(n) +
                                " path=" + std::to_string(static_cast<int>(path));
      auto want = testing::OracleRows(filtered);
      ASSERT_TRUE(want.ok()) << label;
      for (size_t bs : {size_t{1}, size_t{1024}}) {
        for (size_t threads : {size_t{1}, size_t{4}}) {
          ExecOptions opts;
          opts.access_path = path;
          opts.batch_size = bs;
          opts.num_threads = threads;
          auto got = RunPlan(filtered, opts);
          ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
          std::vector<std::string> got_s = Strings(got.value());
          std::vector<std::string> want_s = Strings(want.value());
          std::sort(got_s.begin(), got_s.end());
          std::sort(want_s.begin(), want_s.end());
          ASSERT_EQ(got_s, want_s)
              << label << " bs=" << bs << " threads=" << threads;
        }
      }
    }
    EXPECT_EQ((*table)->buffer_pool().pinned_frames(), 0u);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir_path, ec);
}

TEST_F(ColumnarParityTest, MutationInvalidatesColumnarCache) {
  auto table = std::make_shared<MemTable>(TestRowType(tf_), MakeRows(10));
  RelNodePtr scan = ScanOf(table);
  ExecOptions opts;
  auto before = RunPlan(scan, opts);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.value().size(), 10u);

  // Mutate through rows(): the cached decomposition must be dropped, so the
  // next columnar scan sees the new data.
  table->rows()[0][0] = Value::Int(4242);
  table->rows().push_back(MakeRows(11).back());
  auto after = RunPlan(scan, opts);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.value().size(), 11u);
  EXPECT_EQ(after.value()[0][0].ToString(), Value::Int(4242).ToString());
}

// ------------------------------ arena pack ----------------------------------

TEST(ArenaTest, AlignmentAndBytesUsed) {
  // Column storage must start on 64-byte boundaries (full cache line, widest
  // SIMD register): every kernel in exec/simd.h may assume vector loads from
  // an arena column's head never straddle a line.
  static_assert(Arena::kAlignment == 64, "SIMD kernels assume 64B columns");
  static_assert((Arena::kAlignment & (Arena::kAlignment - 1)) == 0,
                "alignment must be a power of two");
  Arena arena;
  for (size_t bytes : {size_t{1}, size_t{3}, size_t{17}, size_t{160}}) {
    void* p = arena.Allocate(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % Arena::kAlignment, 0u) << bytes;
  }
  EXPECT_GE(arena.bytes_used(), 1u + 3u + 17u + 160u);
  int64_t* col = arena.AllocateArray<int64_t>(100);
  col[0] = 7;
  col[99] = -7;
  EXPECT_EQ(col[0] + col[99], 0);
}

TEST(ArenaTest, ResetCoalescesChunks) {
  Arena arena(/*chunk_bytes=*/128);
  // Spill across several chunks.
  for (int i = 0; i < 10; ++i) arena.Allocate(100);
  EXPECT_GT(arena.chunk_count(), 1u);
  size_t used = arena.bytes_used();
  EXPECT_GE(used, 1000u);
  arena.Reset();
  // Coalesced into one chunk large enough for the whole workload, counters
  // rewound.
  EXPECT_EQ(arena.chunk_count(), 1u);
  EXPECT_EQ(arena.bytes_used(), 0u);
  for (int i = 0; i < 10; ++i) arena.Allocate(100);
  EXPECT_EQ(arena.chunk_count(), 1u);
}

TEST(ArenaTest, PoolRecyclesFreedArenas) {
  ArenaPool pool;
  ArenaPtr a = pool.Acquire();
  Arena* raw = a.get();
  a->Allocate(64);
  // Still referenced by the caller: the pool must hand out a fresh arena.
  ArenaPtr b = pool.Acquire();
  EXPECT_NE(b.get(), raw);
  // Released: the next Acquire reuses the arena, reset.
  a.reset();
  ArenaPtr c = pool.Acquire();
  EXPECT_EQ(c.get(), raw);
  EXPECT_EQ(c->bytes_used(), 0u);
}

// -------------------------- column batch pack -------------------------------

class ColumnBatchTest : public ::testing::Test {
 protected:
  TypeFactory tf_;
};

TEST_F(ColumnBatchTest, BuildProducesTypedColumnsWithNullMaps) {
  auto row_type = TestRowType(tf_);
  std::vector<Row> rows = MakeRows(30);
  auto cols = TableColumns::Build(rows, *row_type);
  ASSERT_NE(cols, nullptr);
  ASSERT_EQ(cols->num_rows, 30u);
  ASSERT_EQ(cols->cols.size(), 5u);
  EXPECT_EQ(cols->cols[0].type, PhysType::kInt64);
  EXPECT_EQ(cols->cols[1].type, PhysType::kInt64);
  EXPECT_EQ(cols->cols[2].type, PhysType::kString);
  EXPECT_EQ(cols->cols[3].type, PhysType::kDouble);
  EXPECT_EQ(cols->cols[4].type, PhysType::kBool);
  EXPECT_TRUE(cols->cols[0].nulls.empty());   // NOT NULL column
  EXPECT_FALSE(cols->cols[1].nulls.empty());  // has NULLs
  // Cell-level parity with the source rows, via the column views.
  for (size_t c = 0; c < 5; ++c) {
    ColumnVector view = cols->View(c, 0);
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(view.GetValue(i).ToString(), rows[i][c].ToString())
          << "col " << c << " row " << i;
    }
  }
}

TEST_F(ColumnBatchTest, BuildDegradesMistypedColumnToBoxed) {
  auto row_type = TestRowType(tf_);
  std::vector<Row> rows = MakeRows(5);
  rows[2][0] = Value::String("not an int");  // declared INT
  auto cols = TableColumns::Build(rows, *row_type);
  ASSERT_NE(cols, nullptr);
  EXPECT_EQ(cols->cols[0].type, PhysType::kValue);
  ColumnVector view = cols->View(0, 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(view.GetValue(i).ToString(), rows[i][0].ToString());
  }
  // Ragged rows cannot be decomposed at all.
  rows[3].pop_back();
  EXPECT_EQ(TableColumns::Build(rows, *row_type), nullptr);
}

TEST_F(ColumnBatchTest, ScanTableColumnsMatchesRowPredicates) {
  auto row_type = TestRowType(tf_);
  std::vector<Row> rows = MakeRows(2050);
  auto cols = TableColumns::Build(rows, *row_type);
  ASSERT_NE(cols, nullptr);

  ScanPredicateList preds;
  {
    ScanPredicate p;
    p.kind = ScanPredicate::Kind::kLessThan;
    p.column = 0;
    p.literal = Value::Int(1900);
    preds.push_back(p);
    p.kind = ScanPredicate::Kind::kIsNotNull;
    p.column = 1;
    p.literal = Value();
    preds.push_back(p);
    p.kind = ScanPredicate::Kind::kGreaterThanOrEqual;
    p.column = 3;
    p.literal = Value::Double(1.0);
    preds.push_back(p);
  }
  std::vector<Row> want;
  for (const Row& row : rows) {
    if (ScanPredicatesMatch(preds, row)) want.push_back(row);
  }
  ASSERT_FALSE(want.empty());

  for (size_t bs : {size_t{1}, size_t{7}, size_t{1024}}) {
    auto pull = ScanTableColumns(cols, bs, preds, cols);
    std::vector<Row> got;
    for (;;) {
      auto batch = pull();
      ASSERT_TRUE(batch.ok());
      if (batch.value().AtEnd()) break;
      // Never an empty batch mid-stream; physical rows respect the cap.
      ASSERT_GT(batch.value().ActiveCount(), 0u);
      ASSERT_LE(batch.value().num_rows, bs);
      RowBatch boxed;
      ColumnsToRows(batch.value(), &boxed);
      for (Row& row : boxed) got.push_back(std::move(row));
    }
    ASSERT_EQ(got.size(), want.size()) << "bs=" << bs;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(RowToString(got[i]), RowToString(want[i]))
          << "bs=" << bs << " row " << i;
    }
  }
}

TEST_F(ColumnBatchTest, RowColumnRoundTrip) {
  auto row_type = TestRowType(tf_);
  RowBatch rows = MakeRows(97);
  auto cols = RowsToColumns(rows, *row_type);
  ASSERT_TRUE(cols.ok()) << cols.status().ToString();
  RowBatch back;
  ColumnsToRows(cols.value(), &back);
  ASSERT_EQ(back.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(RowToString(back[i]), RowToString(rows[i])) << "row " << i;
  }
  // With a selection, only the active rows are boxed, in order.
  ColumnBatch selected = cols.value();
  selected.sel = {0, 13, 96};
  selected.has_sel = true;
  RowBatch live;
  ColumnsToRows(selected, &live);
  ASSERT_EQ(live.size(), 3u);
  EXPECT_EQ(RowToString(live[0]), RowToString(rows[0]));
  EXPECT_EQ(RowToString(live[1]), RowToString(rows[13]));
  EXPECT_EQ(RowToString(live[2]), RowToString(rows[96]));
  // GatherRow boxes one physical row.
  EXPECT_EQ(RowToString(cols.value().GatherRow(42)), RowToString(rows[42]));
}

TEST(ExecOptionsTest, NormalizedClampsBothKnobs) {
  ExecOptions opts;
  opts.batch_size = 0;
  opts.num_threads = 0;
  ExecOptions norm = opts.Normalized();
  EXPECT_EQ(norm.batch_size, 1u);
  EXPECT_EQ(norm.num_threads, 1u);

  opts.batch_size = SIZE_MAX;  // config typo must not become a huge alloc
  opts.num_threads = 8;
  norm = opts.Normalized();
  EXPECT_EQ(norm.batch_size, kMaxBatchSize);
  EXPECT_EQ(norm.num_threads, 8u);

  opts.batch_size = kMaxBatchSize;  // boundary passes through untouched
  norm = opts.Normalized();
  EXPECT_EQ(norm.batch_size, kMaxBatchSize);

  opts.batch_size = 777;  // in-range values pass through untouched
  norm = opts.Normalized();
  EXPECT_EQ(norm.batch_size, 777u);
}

// ------------------------- SQL-level differential ---------------------------
//
// Whole optimized plans must produce identical result grids at batch size
// 1 (row-at-a-time) and 1024, serial and 4-way parallel. Every query is
// fully ordered (ORDER BY over a unique prefix, or a single aggregate
// row), so even parallel grids compare byte-identically.

TEST_F(ColumnBatchTest, ScanRangeFusionMatchesRowPredicates) {
  auto row_type = TestRowType(tf_);
  std::vector<Row> rows = MakeRows(2050);
  auto cols = TableColumns::Build(rows, *row_type);
  ASSERT_NE(cols, nullptr);

  // A fusable pair on $0, a fusable double pair on $3 split around an
  // unrelated equality, and a partnerless bound — FuseScanRanges pairs the
  // first two and leaves the rest.
  ScanPredicateList preds;
  {
    ScanPredicate p;
    p.kind = ScanPredicate::Kind::kGreaterThanOrEqual;
    p.column = 0;
    p.literal = Value::Int(100);
    preds.push_back(p);
    p.kind = ScanPredicate::Kind::kLessThan;
    p.column = 0;
    p.literal = Value::Int(1800);
    preds.push_back(p);
    p.kind = ScanPredicate::Kind::kGreaterThan;
    p.column = 3;
    p.literal = Value::Double(0.5);
    preds.push_back(p);
    p.kind = ScanPredicate::Kind::kLessThanOrEqual;
    p.column = 3;
    p.literal = Value::Double(5.0);
    preds.push_back(p);
    p.kind = ScanPredicate::Kind::kGreaterThan;
    p.column = 1;
    p.literal = Value::Int(1);
    preds.push_back(p);
  }
  std::vector<Row> want;
  for (const Row& row : rows) {
    if (ScanPredicatesMatch(preds, row)) want.push_back(row);
  }
  ASSERT_FALSE(want.empty());

  for (size_t bs : {size_t{1}, size_t{7}, size_t{1024}}) {
    auto pull = ScanTableColumns(cols, bs, preds, cols);
    std::vector<Row> got;
    for (;;) {
      auto batch = pull();
      ASSERT_TRUE(batch.ok());
      if (batch.value().AtEnd()) break;
      RowBatch boxed;
      ColumnsToRows(batch.value(), &boxed);
      for (Row& row : boxed) got.push_back(std::move(row));
    }
    ASSERT_EQ(got.size(), want.size()) << "bs=" << bs;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(RowToString(got[i]), RowToString(want[i]))
          << "bs=" << bs << " row " << i;
    }
  }
}

TEST(ColumnarSqlTest, QueriesMatchAcrossBatchSizesAndThreads) {
  const std::vector<std::string> queries = {
      "SELECT * FROM sales ORDER BY saleid",
      "SELECT saleid, units FROM sales WHERE discount IS NOT NULL "
      "ORDER BY saleid",
      "SELECT saleid, units * 2 AS u2 FROM sales WHERE units > 2 "
      "ORDER BY saleid",
      "SELECT products.name, COUNT(*) AS c, SUM(sales.units) AS u "
      "FROM sales JOIN products USING (productId) "
      "GROUP BY products.name ORDER BY c DESC, products.name",
      "SELECT deptno, COUNT(*) AS c FROM emps GROUP BY deptno "
      "ORDER BY deptno",
      "SELECT COUNT(*) AS c, SUM(units) AS s, AVG(discount) AS a FROM sales",
      "SELECT empid FROM emps ORDER BY salary DESC LIMIT 2 OFFSET 1",
      // Arithmetic chains, range-pair WHERE clauses (one interval test in
      // the leaf scan), literal division and a per-row fallback operator.
      "SELECT saleid, (units + saleid) * 2 AS m FROM sales "
      "WHERE (units + saleid) * 2 > 8 ORDER BY saleid",
      "SELECT saleid FROM sales WHERE saleid >= 2 AND saleid < 5 "
      "ORDER BY saleid",
      "SELECT saleid, units FROM sales "
      "WHERE units > 1 AND discount < 0.3 AND discount IS NOT NULL "
      "ORDER BY saleid",
      "SELECT saleid, units / 2 AS h, units * 1.5 AS w FROM sales "
      "ORDER BY saleid",
      "SELECT empid, salary FROM emps "
      "WHERE salary >= 7000.0 AND salary < 11500.0 ORDER BY empid",
      "SELECT deptno, COUNT(*) AS c, SUM(salary + 1) AS s FROM emps "
      "WHERE empid >= 100 AND empid < 240 GROUP BY deptno ORDER BY deptno",
      "SELECT name FROM products WHERE UPPER(name) LIKE 'P%' ORDER BY name",
  };
  std::vector<std::string> baseline;
  {
    Connection::Config config;
    config.schema = testing::MakeTestSchema();
    config.exec_options.batch_size = 1;
    Connection conn(std::move(config));
    for (const std::string& sql : queries) {
      auto result = conn.Query(sql);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      baseline.push_back(result.value().ToTable());
    }
  }
  struct Config {
    size_t batch_size;
    size_t threads;
  };
  for (Config cfg : {Config{1024, 1}, Config{1024, 4}, Config{1, 4}}) {
    Connection::Config config;
    config.schema = testing::MakeTestSchema();
    config.exec_options.batch_size = cfg.batch_size;
    config.exec_options.num_threads = cfg.threads;
    Connection conn(std::move(config));
    for (size_t q = 0; q < queries.size(); ++q) {
      auto result = conn.Query(queries[q]);
      ASSERT_TRUE(result.ok())
          << queries[q] << ": " << result.status().ToString();
      EXPECT_EQ(result.value().ToTable(), baseline[q])
          << queries[q] << " batch=" << cfg.batch_size
          << " threads=" << cfg.threads;
    }
  }
}

// Join rewrites at the SQL level: JoinConditionPushRule moves single-side ON
// conjuncts into a join input, and the enumerable join rule builds the hash
// table on the smaller input by swapping the inputs under a restoring
// Project (LEFT and RIGHT trade places). The reference is the row oracle
// over the unoptimized logical plan, which no rule has touched. Every join
// type runs with ON conjuncts on one side, on both, across sides, with an
// IS NULL on either side, in both table orders (so the smaller table is the
// left input in one and the right in the other), over MemTables (row
// counts only) and ANALYZEd DiskTables, at threads {1,4} x batch {1,1024}.
TEST(ColumnarSqlTest, JoinRewritesMatchTheLogicalPlan) {
  TypeFactory tf;
  char tmpl[] = "/tmp/calcite_join_rewrite_XXXXXX";
  char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string dir_path = dir;
  const size_t kSmall = 40;
  const size_t kBig = 400;

  const std::vector<std::string> join_types = {"JOIN", "LEFT JOIN",
                                               "RIGHT JOIN", "FULL JOIN"};
  const std::vector<std::string> extra_on = {
      "",                                  // equi key only
      " AND x.id < 25",                    // left input only
      " AND y.d > 2.0",                    // right input only
      " AND x.id < 25 AND y.s <> 's3'",    // one conjunct per side
      " AND x.id < y.id",                  // across sides: stays
      " AND y.d IS NULL",                  // IS NULL on the right side
      " AND x.d IS NULL",                  // IS NULL on the left side
  };
  // A swap puts the restoring Project on the line right above the join.
  auto has_swap = [](const std::string& explain) {
    for (size_t pos = explain.find("EnumerableProject(");
         pos != std::string::npos;
         pos = explain.find("EnumerableProject(", pos + 1)) {
      const size_t line = explain.find('\n', pos);
      if (line == std::string::npos) return false;
      const size_t next = explain.find_first_not_of(' ', line + 1);
      if (next != std::string::npos &&
          explain.compare(next, 19, "EnumerableHashJoin(") == 0) {
        return true;
      }
    }
    return false;
  };
  int swapped_plans = 0;
  int pushed_plans = 0;
  for (bool disk : {false, true}) {
    SchemaPtr schema = std::make_shared<Schema>();
    for (const auto& [name, n] : {std::pair<std::string, size_t>{"small", kSmall},
                                  {"big", kBig}}) {
      if (!disk) {
        schema->AddTable(name, std::make_shared<MemTable>(TestRowType(tf),
                                                          MakeRows(n)));
        continue;
      }
      storage::DiskTableOptions dt_opts;
      dt_opts.pool_pages = 8;
      auto table = storage::DiskTable::Create(dir_path + "/" + name + ".db",
                                              TestRowType(tf), 0, dt_opts);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      ASSERT_TRUE((*table)->InsertRows(MakeRows(n)).ok());
      ASSERT_TRUE((*table)->Analyze().ok());
      schema->AddTable(name, *table);
    }
    Connection::Config base_config;
    base_config.schema = schema;
    Connection planner(base_config);
    for (const auto& [left, right] :
         {std::pair<std::string, std::string>{"small", "big"},
          {"big", "small"}}) {
      for (const std::string& type : join_types) {
        for (const std::string& on : extra_on) {
          const std::string sql = "SELECT * FROM " + left + " x " + type +
                                  " " + right + " y ON x.k = y.k" + on;
          const std::string label =
              sql + (disk ? " [DiskTable]" : " [MemTable]");
          auto logical = planner.ParseQuery(sql);
          ASSERT_TRUE(logical.ok()) << label << ": "
                                    << logical.status().ToString();
          auto want = testing::OracleRows(logical.value());
          ASSERT_TRUE(want.ok()) << label << ": " << want.status().ToString();
          std::vector<std::string> want_s = Strings(want.value());
          std::sort(want_s.begin(), want_s.end());

          auto explain = planner.Explain(sql, /*optimized=*/true);
          ASSERT_TRUE(explain.ok()) << label;
          if (has_swap(explain.value())) ++swapped_plans;
          if (explain.value().find("EnumerableFilter") != std::string::npos) {
            ++pushed_plans;
          }
          for (size_t threads : {size_t{1}, size_t{4}}) {
            for (size_t bs : {size_t{1}, size_t{1024}}) {
              Connection::Config config = base_config;
              config.exec_options.num_threads = threads;
              config.exec_options.batch_size = bs;
              Connection conn(config);
              auto got = conn.Query(sql);
              ASSERT_TRUE(got.ok())
                  << label << ": " << got.status().ToString();
              std::vector<std::string> got_s = Strings(got.value().rows);
              std::sort(got_s.begin(), got_s.end());
              ASSERT_EQ(got_s, want_s) << label << " threads=" << threads
                                       << " batch=" << bs << "\n"
                                       << explain.value();
            }
          }
        }
      }
    }
  }
  // The sweep must reach both rewrites, or it proves nothing about them.
  EXPECT_GT(swapped_plans, 0);
  EXPECT_GT(pushed_plans, 0);
  std::error_code ec;
  std::filesystem::remove_all(dir_path, ec);
}

// The vectorized kernel dispatch (exec/simd.h) must be invisible at the SQL
// level: whole plans produce identical grids with SIMD forced off (scalar
// reference kernels) and on, serial and parallel. In a CALCITE_SIMD=OFF
// build both runs take the scalar path and the test degenerates to a no-op
// sanity pass, which is fine — the CI matrix builds both ways.
TEST(ColumnarSqlTest, QueriesMatchWithSimdOnAndOff) {
  const std::vector<std::string> queries = {
      "SELECT saleid, units FROM sales WHERE units > 2 AND discount < 0.2 "
      "ORDER BY saleid",
      "SELECT saleid, units * 2 + saleid AS u2 FROM sales "
      "WHERE discount IS NOT NULL ORDER BY saleid",
      "SELECT deptno, COUNT(*) AS c, SUM(salary) AS s FROM emps "
      "GROUP BY deptno ORDER BY deptno",
      "SELECT products.name, SUM(sales.units) AS u "
      "FROM sales JOIN products USING (productId) "
      "GROUP BY products.name ORDER BY u DESC, products.name",
  };
  std::vector<std::string> baseline;
  {
    simd::ScopedDispatch scalar(/*enable_simd=*/false);
    Connection::Config config;
    config.schema = testing::MakeTestSchema();
    Connection conn(std::move(config));
    for (const std::string& sql : queries) {
      auto result = conn.Query(sql);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      baseline.push_back(result.value().ToTable());
    }
  }
  struct Config {
    bool simd;
    size_t threads;
  };
  for (Config cfg : {Config{true, 1}, Config{true, 4}, Config{false, 4}}) {
    simd::ScopedDispatch dispatch(cfg.simd);
    Connection::Config config;
    config.schema = testing::MakeTestSchema();
    config.exec_options.num_threads = cfg.threads;
    Connection conn(std::move(config));
    for (size_t q = 0; q < queries.size(); ++q) {
      auto result = conn.Query(queries[q]);
      ASSERT_TRUE(result.ok())
          << queries[q] << ": " << result.status().ToString();
      EXPECT_EQ(result.value().ToTable(), baseline[q])
          << queries[q] << " simd=" << cfg.simd << " threads=" << cfg.threads;
    }
  }
}

}  // namespace
}  // namespace calcite
