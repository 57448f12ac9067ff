#ifndef CALCITE_ADAPTERS_ENUMERABLE_ENUMERABLE_RELS_H_
#define CALCITE_ADAPTERS_ENUMERABLE_ENUMERABLE_RELS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rel/core.h"
#include "rex/rex_util.h"  // ExtractScanPredicates (moved; kept for callers)

namespace calcite {

/// Physical operators of the *enumerable calling convention* (§5):
/// client-side operators that "simply operate over tuples via an iterator
/// interface", letting Calcite "implement operators which may not be
/// available in each adapter's backend". This is the framework's built-in
/// execution engine; every logical operator has an enumerable counterpart.

class EnumerableTableScan final : public TableScan {
 public:
  static RelNodePtr Create(const TableScan& scan);

  std::string op_name() const override { return "EnumerableTableScan"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;
  /// Zero-copy columnar scan over the table's cached column decomposition
  /// (when the table exposes one).
  std::optional<Result<ColumnBatchPuller>> TryExecuteColumnar(
      const ExecOptions& opts) const override;

 private:
  using TableScan::TableScan;
};

/// Filter over ColumnBatches: when the input is a table scan, the simple
/// `column <op> literal` / NULL-test conjuncts run inside the leaf scan
/// before rows are materialized (ScanSpec::predicates), and the residual
/// narrows each batch's selection vector through RexColumnar.
/// ExecuteBatched boxes the survivors for row consumers.
class EnumerableFilter final : public Filter {
 public:
  static RelNodePtr Create(RelNodePtr input, RexNodePtr condition);

  std::string op_name() const override { return "EnumerableFilter"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;
  /// The filter's native pipeline: pushes simple conjuncts into the leaf
  /// scan and narrows each batch's selection vector for the residual —
  /// only the selection shrinks. Always returns a puller.
  std::optional<Result<ColumnBatchPuller>> TryExecuteColumnar(
      const ExecOptions& opts) const override;

 private:
  using Filter::Filter;
};

class EnumerableProject final : public Project {
 public:
  static RelNodePtr Create(RelNodePtr input, std::vector<RexNodePtr> exprs,
                           RelDataTypePtr row_type);

  std::string op_name() const override { return "EnumerableProject"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;
  /// Columnar projection: each expression becomes one dense output column
  /// computed by RexColumnar over the input's active rows; input columns
  /// referenced verbatim are aliased, not copied, when no selection is in
  /// play. Always returns a puller.
  std::optional<Result<ColumnBatchPuller>> TryExecuteColumnar(
      const ExecOptions& opts) const override;

 private:
  using Project::Project;
};

/// Hash join over the equi-key part of the condition; any residual
/// non-equi conjuncts are evaluated on each matched pair. "The
/// EnumerableJoin operator implements joins by collecting rows from its
/// child nodes and joining on the desired attributes" (§5).
class EnumerableHashJoin final : public Join {
 public:
  static RelNodePtr Create(RelNodePtr left, RelNodePtr right,
                           RexNodePtr condition, JoinType join_type,
                           RelDataTypePtr row_type);

  std::string op_name() const override { return "EnumerableHashJoin"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

  /// The right input is boxed into the hash table row by row; the left
  /// one streams through as columns. So build rows pay per byte of width
  /// (BuildBytes) and probe rows pay one unit each.
  std::optional<RelOptCost> SelfCost(MetadataQuery* mq) const override;

  /// Bytes `input` would occupy as a hash join's build side: estimated
  /// rows times average row width. The join rule builds on the input with
  /// fewer.
  static double BuildBytes(MetadataQuery* mq, const RelNodePtr& input);

 private:
  using Join::Join;
};

/// Fallback join for arbitrary (non-equi) conditions.
class EnumerableNestedLoopJoin final : public Join {
 public:
  static RelNodePtr Create(RelNodePtr left, RelNodePtr right,
                           RexNodePtr condition, JoinType join_type,
                           RelDataTypePtr row_type);

  std::string op_name() const override { return "EnumerableNestedLoopJoin"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

  std::optional<RelOptCost> SelfCost(MetadataQuery* mq) const override;

 private:
  using Join::Join;
};

class EnumerableAggregate final : public Aggregate {
 public:
  static RelNodePtr Create(RelNodePtr input, std::vector<int> group_keys,
                           std::vector<AggregateCall> agg_calls,
                           RelDataTypePtr row_type);

  std::string op_name() const override { return "EnumerableAggregate"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

 private:
  using Aggregate::Aggregate;
};

/// Sort + OFFSET/FETCH. Its trait set carries the produced collation, which
/// is how already-sorted inputs make the sort redundant (§4's sort-removal
/// example operates through subset membership in the cost-based planner).
class EnumerableSort final : public Sort {
 public:
  static RelNodePtr Create(RelNodePtr input, RelCollation collation,
                           int64_t offset, int64_t fetch);

  std::string op_name() const override { return "EnumerableSort"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

 private:
  using Sort::Sort;
};

class EnumerableSetOp final : public SetOp {
 public:
  static RelNodePtr Create(std::vector<RelNodePtr> inputs, Kind kind, bool all,
                           RelDataTypePtr row_type);

  std::string op_name() const override;
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

 private:
  using SetOp::SetOp;
};

class EnumerableValues final : public Values {
 public:
  static RelNodePtr Create(RelDataTypePtr row_type, std::vector<Row> tuples);

  std::string op_name() const override { return "EnumerableValues"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

 private:
  using Values::Values;
};

class EnumerableWindow final : public Window {
 public:
  static RelNodePtr Create(RelNodePtr input, std::vector<WindowGroup> groups,
                           RelDataTypePtr row_type);

  std::string op_name() const override { return "EnumerableWindow"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

 private:
  using Window::Window;
};

/// Bridges a foreign calling convention into the enumerable convention: it
/// executes its input inside the adapter's engine and exposes the resulting
/// rows through the iterator interface. The metadata cost model charges it a
/// per-row transfer cost, which is what makes pushing operations *into*
/// backends profitable (Figure 2).
class EnumerableInterpreter final : public Converter {
 public:
  static RelNodePtr Create(RelNodePtr input);

  std::string op_name() const override { return "EnumerableInterpreter"; }
  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override;
  Result<std::vector<Row>> Execute() const override;
  Result<RowBatchPuller> ExecuteBatched(const ExecOptions& opts)
      const override;

 private:
  using Converter::Converter;
};

/// Builds the concatenated row of a join result (left fields then right
/// fields), padding the missing side with NULLs for outer joins.
Row ConcatRows(const Row& left, const Row& right);
/// ConcatRows with the left row boxed straight out of physical row `row` of
/// a probe batch (one copy of its cells, no intermediate Row).
Row ConcatRows(const ColumnBatch& left, size_t row, const Row& right);
Row PadNullRight(const Row& left, size_t right_width);
Row PadNullLeft(size_t left_width, const Row& right);

/// Join emission helpers shared by the hash join, the nested-loop join and
/// the test oracle.
///
/// True for the join types that emit the concatenated row per match
/// (SEMI/ANTI decide emission per left row instead).
bool JoinEmitsCombinedRows(JoinType join_type);
/// Emission decided once per probed left row, after its matches ran.
/// `left_row` (a callable returning Row&) is invoked only when the row is
/// emitted, so columnar probes box it lazily.
template <typename LeftRow>
void JoinEmitPerLeftRow(JoinType join_type, bool matched, LeftRow&& left_row,
                        size_t right_width, RowBatch* out) {
  switch (join_type) {
    case JoinType::kLeft:
    case JoinType::kFull:
      if (!matched) out->push_back(PadNullRight(left_row(), right_width));
      break;
    case JoinType::kSemi:
      if (matched) out->push_back(std::move(left_row()));
      break;
    case JoinType::kAnti:
      if (!matched) out->push_back(std::move(left_row()));
      break;
    default:
      break;  // inner/right need no per-left-row emission
  }
}

}  // namespace calcite

#endif  // CALCITE_ADAPTERS_ENUMERABLE_ENUMERABLE_RELS_H_
