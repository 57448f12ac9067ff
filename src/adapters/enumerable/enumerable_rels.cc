#include "adapters/enumerable/enumerable_rels.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "adapters/enumerable/aggregates.h"
#include "adapters/enumerable/columnar_agg.h"
#include "adapters/enumerable/hash_join.h"
#include "exec/arena.h"
#include "exec/column_batch.h"
#include "exec/parallel/parallel_exec.h"
#include "metadata/metadata.h"
#include "rex/rex_columnar.h"
#include "rex/rex_interpreter.h"
#include "rex/rex_util.h"

namespace calcite {

// The operators below execute as vectorized pull pipelines. Operators that
// evaluate expressions (filter, project, hash-join probe, hash aggregate)
// consume ColumnBatches: their input's native columnar pipeline when it has
// one, else its RowBatches through the one rows->columns leaf
// (RowsToColumnsPuller). Every expression therefore runs through the
// per-node RexColumnar kernels, which fall back to per-row
// RexInterpreter::Eval for nodes without a typed kernel. Operators that
// evaluate no expressions (sort, nested-loop join, set ops, values, window)
// exchange dense RowBatches through ExecuteBatched. Execute() is the
// materializing wrapper over the same pipeline; `batch_size = 1` reproduces
// row-at-a-time behavior exactly (see the parity tests).

namespace {

RelTraitSet EnumerableTraits() {
  return RelTraitSet(Convention::Enumerable());
}

/// Three-way lexicographic row comparison under a collation.
int CompareRows(const Row& a, const Row& b, const RelCollation& collation) {
  for (const FieldCollation& fc : collation.fields()) {
    int c = a[static_cast<size_t>(fc.field)].Compare(
        b[static_cast<size_t>(fc.field)]);
    if (fc.direction == Direction::kDescending) c = -c;
    if (c != 0) return c;
  }
  return 0;
}

/// Full-row lexicographic order (for set operations).
struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

/// Bridges a columnar pipeline back to dense RowBatches (the conversion
/// boundary for row consumers: sort, set ops, QueryResult).
RowBatchPuller ColumnarToRowPuller(RelNodePtr self, ColumnBatchPuller pull) {
  return RowBatchPuller([self, pull]() -> Result<RowBatch> {
    auto batch = pull();
    if (!batch.ok()) return batch.status();
    RowBatch out;
    ColumnsToRows(batch.value(), &out);
    return out;
  });
}

/// The columnar view of `node`'s output: its native columnar pipeline when
/// it has one, else its row batches through the rows->columns leaf, which
/// decomposes only the columns `reads` names (all when empty).
Result<ColumnBatchPuller> ColumnarInput(const RelNode& node,
                                        const ExecOptions& opts,
                                        ColumnMask reads = {}) {
  if (auto native = node.TryExecuteColumnar(opts)) return std::move(*native);
  auto rows = node.ExecuteBatched(opts);
  if (!rows.ok()) return rows.status();
  return RowsToColumnsPuller(std::move(rows).value(), node.row_type(),
                             std::move(reads));
}

/// A mask over `node`'s output columns with `columns` set.
ColumnMask ReadMask(const RelNode& node, const std::vector<int>& columns) {
  ColumnMask mask(node.row_type()->fields().size(), false);
  for (int c : columns) {
    if (c >= 0 && static_cast<size_t>(c) < mask.size()) mask[c] = true;
  }
  return mask;
}

/// The table's own OpenScan over `scan` with `pushed` predicates and the
/// executor's batch size and access path. The table's puller may capture a
/// raw `this`; the returned closure pins the table for as long as the
/// pipeline pulls it.
Result<RowBatchPuller> OpenTableRows(const TableScan& scan,
                                     ScanPredicateList pushed,
                                     const ExecOptions& opts) {
  ScanSpec spec;
  spec.batch_size = opts.Normalized().batch_size;
  spec.predicates = std::move(pushed);
  spec.access_path = opts.access_path;
  CALCITE_ASSIGN_OR_RETURN(RowBatchPuller pull, scan.table()->OpenScan(spec));
  return RowBatchPuller(
      [table = scan.table(), pull]() -> Result<RowBatch> { return pull(); });
}

/// The columnar leaf of a filter over `scan` with `pushed` conjuncts: typed
/// loops over the table's columnar cache when it has one, else the
/// table's own OpenScan (which applies the pushed predicates and the
/// access path — index or heap — before rows exist) through RowsToColumns.
Result<ColumnBatchPuller> OpenScanLeaf(const TableScan& scan,
                                       ScanPredicateList pushed,
                                       const ExecOptions& opts) {
  TypeFactory type_factory;
  if (TableColumnsPtr columns = scan.table()->MaterializedColumns(type_factory)) {
    return ScanTableColumns(std::move(columns), opts.Normalized().batch_size,
                            std::move(pushed), scan.shared_from_this());
  }
  CALCITE_ASSIGN_OR_RETURN(RowBatchPuller rows,
                           OpenTableRows(scan, std::move(pushed), opts));
  return RowsToColumnsPuller(std::move(rows), scan.row_type());
}

/// Materializes a node's full output through its batch pipeline.
Result<std::vector<Row>> DrainNode(const RelNode& node) {
  auto puller = node.ExecuteBatched(ExecOptions{});
  if (!puller.ok()) return puller.status();
  return DrainBatches(puller.value());
}

}  // namespace

Row ConcatRows(const Row& left, const Row& right) {
  Row out;
  out.reserve(left.size() + right.size());
  out.insert(out.end(), left.begin(), left.end());
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

Row ConcatRows(const ColumnBatch& left, size_t row, const Row& right) {
  Row out;
  out.reserve(left.cols.size() + right.size());
  left.AppendRow(row, &out);
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

Row PadNullRight(const Row& left, size_t right_width) {
  Row out = left;
  out.resize(left.size() + right_width);
  return out;
}

Row PadNullLeft(size_t left_width, const Row& right) {
  Row out(left_width);
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

// ------------------------------- TableScan --------------------------------

RelNodePtr EnumerableTableScan::Create(const TableScan& scan) {
  return RelNodePtr(new EnumerableTableScan(
      EnumerableTraits(), scan.row_type(), scan.table(),
      scan.qualified_name(), scan.table_convention()));
}

RelNodePtr EnumerableTableScan::Copy(RelTraitSet traits,
                                     std::vector<RelNodePtr> inputs) const {
  (void)inputs;
  return RelNodePtr(new EnumerableTableScan(std::move(traits), row_type(),
                                            table_, qualified_name_,
                                            table_convention_));
}

Result<std::vector<Row>> EnumerableTableScan::Execute() const {
  return table_->Scan();
}

Result<RowBatchPuller> EnumerableTableScan::ExecuteBatched(
    const ExecOptions& opts) const {
  if (auto parallel = TryExecuteParallel(*this, opts)) {
    return std::move(*parallel);
  }
  return OpenTableRows(*this, ScanPredicateList{}, opts);
}

std::optional<Result<ColumnBatchPuller>>
EnumerableTableScan::TryExecuteColumnar(const ExecOptions& opts) const {
  TypeFactory type_factory;
  TableColumnsPtr columns = table_->MaterializedColumns(type_factory);
  if (columns == nullptr) return std::nullopt;
  // The batches are zero-copy views into the table's cached decomposition;
  // pinning the node (which owns the table) keeps that storage alive for as
  // long as the pipeline is pulled.
  return Result<ColumnBatchPuller>(
      ScanTableColumns(std::move(columns), opts.Normalized().batch_size,
                       ScanPredicateList{}, shared_from_this()));
}

// --------------------------------- Filter ---------------------------------

RelNodePtr EnumerableFilter::Create(RelNodePtr input, RexNodePtr condition) {
  RelDataTypePtr row_type = input->row_type();
  return RelNodePtr(new EnumerableFilter(EnumerableTraits(),
                                         std::move(row_type),
                                         std::move(input),
                                         std::move(condition)));
}

RelNodePtr EnumerableFilter::Copy(RelTraitSet traits,
                                  std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new EnumerableFilter(std::move(traits), row_type(),
                                         std::move(inputs[0]), condition_));
}

Result<std::vector<Row>> EnumerableFilter::Execute() const {
  return DrainNode(*this);
}

Result<RowBatchPuller> EnumerableFilter::ExecuteBatched(
    const ExecOptions& opts) const {
  if (auto parallel = TryExecuteParallel(*this, opts)) {
    return std::move(*parallel);
  }
  // Row consumer above the filter: survivors are boxed into dense batches
  // here, once (the selection was applied on the columns).
  auto columnar = *TryExecuteColumnar(opts);
  if (!columnar.ok()) return columnar.status();
  return ColumnarToRowPuller(shared_from_this(), std::move(columnar).value());
}

std::optional<Result<ColumnBatchPuller>> EnumerableFilter::TryExecuteColumnar(
    const ExecOptions& opts) const {
  RelNodePtr self = shared_from_this();

  // Leaf pushdown: over a table scan, the simple conjuncts run inside the
  // scan (typed loops over raw column storage, or the table's own
  // predicate/access-path machinery), and only the residual narrows the
  // selection here.
  std::vector<RexNodePtr> residual;
  ScanPredicateList pushed;
  const auto* scan = dynamic_cast<const EnumerableTableScan*>(input(0).get());
  if (scan != nullptr) {
    ExtractScanPredicates(
        condition_, static_cast<int>(scan->row_type()->fields().size()),
        &pushed, &residual);
  }
  if (pushed.empty()) residual.assign(1, condition_);
  auto in = scan != nullptr ? OpenScanLeaf(*scan, std::move(pushed), opts)
                            : ColumnarInput(*input(0), opts);
  if (!in.ok()) return in;
  ColumnBatchPuller pull = std::move(in).value();

  // Residual conjuncts narrow through the RexColumnar kernels in order,
  // each on the survivors of the last.
  auto conjuncts =
      std::make_shared<const std::vector<RexNodePtr>>(std::move(residual));
  // Scratch arenas for residual predicate evaluation; recycled batch to
  // batch (nothing the predicate allocates outlives the narrowing).
  auto pool = std::make_shared<ArenaPool>();
  return Result<ColumnBatchPuller>(ColumnBatchPuller(
      [self, conjuncts, pull, pool]() -> Result<ColumnBatch> {
        for (;;) {
          auto batch = pull();
          if (!batch.ok()) return batch;
          ColumnBatch cols = std::move(batch).value();
          if (cols.AtEnd()) return cols;
          if (!conjuncts->empty()) {
            if (!cols.has_sel) {
              cols.sel.resize(cols.num_rows);
              for (size_t i = 0; i < cols.num_rows; ++i) {
                cols.sel[i] = static_cast<uint32_t>(i);
              }
              cols.has_sel = true;
            }
            ArenaPtr scratch = pool->Acquire();
            for (const RexNodePtr& pred : *conjuncts) {
              if (cols.sel.empty()) break;
              CALCITE_RETURN_IF_ERROR(RexColumnar::NarrowSelection(
                  pred, cols, scratch, &cols.sel));
            }
          }
          // Whole batch eliminated: keep pulling (mid-stream batches always
          // carry at least one live row).
          if (cols.ActiveCount() == 0) continue;
          return cols;
        }
      }));
}

// --------------------------------- Project --------------------------------

RelNodePtr EnumerableProject::Create(RelNodePtr input,
                                     std::vector<RexNodePtr> exprs,
                                     RelDataTypePtr row_type) {
  return RelNodePtr(new EnumerableProject(EnumerableTraits(),
                                          std::move(row_type),
                                          std::move(input), std::move(exprs)));
}

RelNodePtr EnumerableProject::Copy(RelTraitSet traits,
                                   std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new EnumerableProject(std::move(traits), row_type(),
                                          std::move(inputs[0]), exprs_));
}

Result<std::vector<Row>> EnumerableProject::Execute() const {
  return DrainNode(*this);
}

Result<RowBatchPuller> EnumerableProject::ExecuteBatched(
    const ExecOptions& opts) const {
  if (auto parallel = TryExecuteParallel(*this, opts)) {
    return std::move(*parallel);
  }
  // The projected columns are boxed into rows only here, at the top of the
  // columnar pipeline.
  auto columnar = *TryExecuteColumnar(opts);
  if (!columnar.ok()) return columnar.status();
  return ColumnarToRowPuller(shared_from_this(), std::move(columnar).value());
}

std::optional<Result<ColumnBatchPuller>> EnumerableProject::TryExecuteColumnar(
    const ExecOptions& opts) const {
  std::vector<int> refs;
  for (const RexNodePtr& expr : exprs_) {
    for (int ref : RexUtil::InputRefs(expr)) refs.push_back(ref);
  }
  auto in = ColumnarInput(*input(0), opts, ReadMask(*input(0), refs));
  if (!in.ok()) return in;
  RelNodePtr self = shared_from_this();  // pins exprs_ for the pipeline
  ColumnBatchPuller pull = std::move(in).value();
  // Output columns are bump-allocated; each batch's arena is recycled once
  // the consumer drops the batch.
  auto pool = std::make_shared<ArenaPool>();
  return Result<ColumnBatchPuller>(ColumnBatchPuller(
      [this, self, pull, pool]() -> Result<ColumnBatch> {
        auto batch = pull();
        if (!batch.ok()) return batch;
        ColumnBatch in_cols = std::move(batch).value();
        if (in_cols.AtEnd()) return ColumnBatch{};
        // The output is dense: one entry per active input row, selection
        // consumed by the projection kernels (gather on write).
        ColumnBatch out;
        out.arena = pool->Acquire();
        out.num_rows = in_cols.ActiveCount();
        out.ShareStorage(in_cols);
        for (const RexNodePtr& expr : exprs_) {
          CALCITE_RETURN_IF_ERROR(
              RexColumnar::AppendEvalColumn(expr, in_cols, &out));
        }
        return out;
      }));
}

// -------------------------------- HashJoin --------------------------------

RelNodePtr EnumerableHashJoin::Create(RelNodePtr left, RelNodePtr right,
                                      RexNodePtr condition, JoinType join_type,
                                      RelDataTypePtr row_type) {
  return RelNodePtr(new EnumerableHashJoin(
      EnumerableTraits(), std::move(row_type), std::move(left),
      std::move(right), std::move(condition), join_type));
}

RelNodePtr EnumerableHashJoin::Copy(RelTraitSet traits,
                                    std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new EnumerableHashJoin(std::move(traits), row_type(),
                                           std::move(inputs[0]),
                                           std::move(inputs[1]), condition_,
                                           join_type_));
}

double EnumerableHashJoin::BuildBytes(MetadataQuery* mq,
                                      const RelNodePtr& input) {
  return mq->RowCount(input) * mq->AverageRowSize(input);
}

std::optional<RelOptCost> EnumerableHashJoin::SelfCost(
    MetadataQuery* mq) const {
  // One unit per build row to hash and insert it, plus one per cache line
  // of the row it copies.
  constexpr double kCacheLineBytes = 64;
  const double probe = mq->RowCount(input(0));
  const double build = mq->RowCount(input(1));
  const double cpu = probe + build + BuildBytes(mq, input(1)) / kCacheLineBytes;
  return RelOptCost(mq->RowCount(shared_from_this()), cpu, 0) *
         convention()->cost_factor();
}

Result<std::vector<Row>> EnumerableHashJoin::Execute() const {
  return DrainNode(*this);
}

namespace {

/// Streaming state of a join (hash or nested-loop): the build side is
/// built on first pull; probe batches then flow through one at a time.
struct JoinExecState {
  bool built = false;
  bool left_done = false;
  /// Join output already produced but not yet handed out: a skewed key can
  /// make one probe batch yield far more than batch_size rows, and the
  /// ExecuteBatched contract caps every returned batch. Drained through
  /// pending_pos (a cursor, so flushing stays linear); cleared — and the
  /// cursor reset — once fully handed out.
  RowBatch pending;
  size_t pending_pos = 0;
};

/// Hands out the next <= batch_size rows of state->pending.
RowBatch FlushPending(JoinExecState* state, size_t batch_size) {
  size_t n = std::min(batch_size, state->pending.size() - state->pending_pos);
  auto first = state->pending.begin() +
               static_cast<ptrdiff_t>(state->pending_pos);
  RowBatch out(std::make_move_iterator(first),
               std::make_move_iterator(first + static_cast<ptrdiff_t>(n)));
  state->pending_pos += n;
  if (state->pending_pos >= state->pending.size()) {
    state->pending.clear();
    state->pending_pos = 0;
  }
  return out;
}

}  // namespace

bool JoinEmitsCombinedRows(JoinType join_type) {
  switch (join_type) {
    case JoinType::kInner:
    case JoinType::kLeft:
    case JoinType::kRight:
    case JoinType::kFull:
      return true;
    case JoinType::kSemi:
    case JoinType::kAnti:
      return false;
  }
  return false;
}

Result<RowBatchPuller> EnumerableHashJoin::ExecuteBatched(
    const ExecOptions& opts) const {
  if (auto parallel = TryExecuteParallel(*this, opts)) {
    return std::move(*parallel);
  }
  // The parallel join's table and probe loop with one partition, built on
  // the calling thread: output is each left row's matches in build order,
  // left rows in probe order, then the RIGHT/FULL unmatched tail.
  auto table = std::make_shared<HashJoinTable>();
  if (!AnalyzeEquiKeys(&table->keys, &table->remaining)) {
    return Status::PlanError(
        "EnumerableHashJoin requires at least one equi-join key");
  }
  table->join_type = join_type_;
  table->right_width = input(1)->row_type()->fields().size();
  auto right = input(1)->ExecuteBatched(opts);
  if (!right.ok()) return right.status();

  RelNodePtr self = shared_from_this();
  const size_t left_width = input(0)->row_type()->fields().size();
  const size_t batch_size = opts.Normalized().batch_size;
  auto state = std::make_shared<JoinExecState>();
  auto scratch = std::make_shared<ProbeScratch>();
  RowBatchPuller right_pull = std::move(right).value();

  // Columnar probe: the join key is read straight off the raw columns and
  // the full left row is boxed lazily — only probe rows that actually emit
  // output pay the row gather.
  std::vector<int> left_keys;
  for (const auto& key : table->keys) left_keys.push_back(key.first);
  auto left = ColumnarInput(*input(0), opts, ReadMask(*input(0), left_keys));
  if (!left.ok()) return left.status();
  ColumnBatchPuller left_pull = std::move(left).value();

  return RowBatchPuller([self, table, state, scratch, left_pull, right_pull,
                         left_width, batch_size]() -> Result<RowBatch> {
    if (!state->built) {
      CALCITE_RETURN_IF_ERROR(BuildHashJoinTable(
          right_pull, /*num_partitions=*/1, /*scheduler=*/nullptr,
          table.get()));
      state->built = true;
    }
    if (!state->pending.empty()) {
      return FlushPending(state.get(), batch_size);
    }
    while (!state->left_done) {
      CALCITE_ASSIGN_OR_RETURN(ColumnBatch cols, left_pull());
      if (cols.AtEnd()) {
        state->left_done = true;
        break;
      }
      CALCITE_RETURN_IF_ERROR(
          ProbeBatch(*table, cols, scratch.get(), &state->pending));
      if (!state->pending.empty()) {
        return FlushPending(state.get(), batch_size);
      }
    }
    return table->build.NextUnmatched(table->join_type, left_width,
                                      batch_size);
  });
}

// ------------------------------ NestedLoopJoin ----------------------------

RelNodePtr EnumerableNestedLoopJoin::Create(RelNodePtr left, RelNodePtr right,
                                            RexNodePtr condition,
                                            JoinType join_type,
                                            RelDataTypePtr row_type) {
  return RelNodePtr(new EnumerableNestedLoopJoin(
      EnumerableTraits(), std::move(row_type), std::move(left),
      std::move(right), std::move(condition), join_type));
}

RelNodePtr EnumerableNestedLoopJoin::Copy(RelTraitSet traits,
                                          std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new EnumerableNestedLoopJoin(
      std::move(traits), row_type(), std::move(inputs[0]),
      std::move(inputs[1]), condition_, join_type_));
}

std::optional<RelOptCost> EnumerableNestedLoopJoin::SelfCost(
    MetadataQuery* mq) const {
  double left = mq->RowCount(input(0));
  double right = mq->RowCount(input(1));
  return RelOptCost(left * right, left * right, 0) *
         convention()->cost_factor();
}

Result<std::vector<Row>> EnumerableNestedLoopJoin::Execute() const {
  return DrainNode(*this);
}

Result<RowBatchPuller> EnumerableNestedLoopJoin::ExecuteBatched(
    const ExecOptions& opts) const {
  auto left = input(0)->ExecuteBatched(opts);
  if (!left.ok()) return left;
  auto right = input(1)->ExecuteBatched(opts);
  if (!right.ok()) return right;

  RelNodePtr self = shared_from_this();
  RexNodePtr condition = condition_;
  const JoinType join_type = join_type_;
  const size_t left_width = input(0)->row_type()->fields().size();
  const size_t right_width = input(1)->row_type()->fields().size();
  const size_t batch_size = opts.Normalized().batch_size;
  auto state = std::make_shared<JoinExecState>();
  auto build = std::make_shared<JoinBuildRows>();
  RowBatchPuller left_pull = std::move(left).value();
  RowBatchPuller right_pull = std::move(right).value();

  return RowBatchPuller([self, condition, state, build, left_pull, right_pull,
                         join_type, left_width, right_width,
                         batch_size]() -> Result<RowBatch> {
    if (!state->built) {
      CALCITE_RETURN_IF_ERROR(build->Drain(right_pull));
      state->built = true;
    }

    if (!state->pending.empty()) {
      return FlushPending(state.get(), batch_size);
    }

    while (!state->left_done) {
      auto batch = left_pull();
      if (!batch.ok()) return batch.status();
      RowBatch left_rows = std::move(batch).value();
      if (left_rows.empty()) {
        state->left_done = true;
        break;
      }
      RowBatch& out = state->pending;
      const std::vector<Row>& right_rows = build->rows();
      for (Row& lrow : left_rows) {
        bool matched = false;
        for (size_t ri = 0; ri < right_rows.size(); ++ri) {
          Row combined = ConcatRows(lrow, right_rows[ri]);
          auto pass = RexInterpreter::EvalPredicate(condition, combined);
          if (!pass.ok()) return pass.status();
          if (!pass.value()) continue;
          matched = true;
          build->MarkMatched(ri);
          if (JoinEmitsCombinedRows(join_type)) {
            out.push_back(std::move(combined));
          }
          if (join_type == JoinType::kSemi) break;
        }
        JoinEmitPerLeftRow(
            join_type, matched, [&]() -> Row& { return lrow; }, right_width,
            &out);
      }
      if (!out.empty()) return FlushPending(state.get(), batch_size);
    }

    return build->NextUnmatched(join_type, left_width, batch_size);
  });
}

// -------------------------------- Aggregate -------------------------------

RelNodePtr EnumerableAggregate::Create(RelNodePtr input,
                                       std::vector<int> group_keys,
                                       std::vector<AggregateCall> agg_calls,
                                       RelDataTypePtr row_type) {
  return RelNodePtr(new EnumerableAggregate(
      EnumerableTraits(), std::move(row_type), std::move(input),
      std::move(group_keys), std::move(agg_calls)));
}

RelNodePtr EnumerableAggregate::Copy(RelTraitSet traits,
                                     std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new EnumerableAggregate(std::move(traits), row_type(),
                                            std::move(inputs[0]), group_keys_,
                                            agg_calls_));
}

Result<std::vector<Row>> EnumerableAggregate::Execute() const {
  return DrainNode(*this);
}

Result<RowBatchPuller> EnumerableAggregate::ExecuteBatched(
    const ExecOptions& opts) const {
  if (auto parallel = TryExecuteParallel(*this, opts)) {
    return std::move(*parallel);
  }
  RelNodePtr self = shared_from_this();
  const size_t batch_size = opts.Normalized().batch_size;
  // The parallel aggregate's builder with one worker: batches feed the
  // typed accumulator adders straight from raw column storage, and group
  // keys resolve off hashed key columns without boxing a cell unless the
  // group is new.
  std::shared_ptr<ColumnarAggBuilder> builder =
      ColumnarAggBuilder::Create(group_keys_, agg_calls_);
  std::vector<int> reads = group_keys_;
  for (const AggregateCall& call : agg_calls_) {
    reads.insert(reads.end(), call.args.begin(), call.args.end());
  }
  auto columnar = ColumnarInput(*input(0), opts, ReadMask(*input(0), reads));
  if (!columnar.ok()) return columnar.status();
  ColumnBatchPuller pull = std::move(columnar).value();
  auto built = std::make_shared<bool>(false);
  return RowBatchPuller(
      [self, builder, pull, built, batch_size]() -> Result<RowBatch> {
        if (!*built) {
          for (;;) {
            CALCITE_ASSIGN_OR_RETURN(ColumnBatch cols, pull());
            if (cols.AtEnd()) break;
            CALCITE_RETURN_IF_ERROR(builder->Feed(cols));
          }
          *built = true;
        }
        return builder->EmitBatch(batch_size);
      });
}

// ---------------------------------- Sort -----------------------------------

RelNodePtr EnumerableSort::Create(RelNodePtr input, RelCollation collation,
                                  int64_t offset, int64_t fetch) {
  RelDataTypePtr row_type = input->row_type();
  RelTraitSet traits(Convention::Enumerable(), collation);
  return RelNodePtr(new EnumerableSort(std::move(traits), std::move(row_type),
                                       std::move(input), std::move(collation),
                                       offset, fetch));
}

RelNodePtr EnumerableSort::Copy(RelTraitSet traits,
                                std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new EnumerableSort(std::move(traits), row_type(),
                                       std::move(inputs[0]), collation_,
                                       offset_, fetch_));
}

Result<std::vector<Row>> EnumerableSort::Execute() const {
  return DrainNode(*this);
}

namespace {

struct SortState {
  bool built = false;
  std::vector<Row> data;
  size_t pos = 0;
  size_t end = 0;
};

}  // namespace

Result<RowBatchPuller> EnumerableSort::ExecuteBatched(
    const ExecOptions& opts) const {
  auto in = input(0)->ExecuteBatched(opts);
  if (!in.ok()) return in;
  RelNodePtr self = shared_from_this();  // pins collation_
  const EnumerableSort* node = this;
  const int64_t offset = offset_;
  const int64_t fetch = fetch_;
  const size_t batch_size = opts.Normalized().batch_size;
  auto state = std::make_shared<SortState>();
  RowBatchPuller pull = std::move(in).value();

  return RowBatchPuller([self, node, offset, fetch, state, pull,
                         batch_size]() -> Result<RowBatch> {
    const RelCollation& collation = node->collation_;
    if (!state->built) {
      for (;;) {
        auto batch = pull();
        if (!batch.ok()) return batch.status();
        if (batch.value().empty()) break;
        for (Row& row : batch.value()) state->data.push_back(std::move(row));
      }
      if (!collation.empty()) {
        std::stable_sort(state->data.begin(), state->data.end(),
                         [&collation](const Row& a, const Row& b) {
                           return CompareRows(a, b, collation) < 0;
                         });
      }
      state->pos = std::min(
          state->data.size(),
          static_cast<size_t>(std::max<int64_t>(0, offset)));
      state->end = state->data.size();
      if (fetch >= 0) {
        state->end = std::min(state->end,
                              state->pos + static_cast<size_t>(fetch));
      }
      state->built = true;
    }
    RowBatch out;
    size_t n = std::min(batch_size, state->end - state->pos);
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out.push_back(std::move(state->data[state->pos + i]));
    }
    state->pos += n;
    return out;
  });
}

// --------------------------------- SetOp ----------------------------------

std::string EnumerableSetOp::op_name() const {
  switch (set_kind()) {
    case Kind::kUnion:
      return "EnumerableUnion";
    case Kind::kIntersect:
      return "EnumerableIntersect";
    case Kind::kMinus:
      return "EnumerableMinus";
  }
  return "EnumerableSetOp";
}

RelNodePtr EnumerableSetOp::Create(std::vector<RelNodePtr> inputs, Kind kind,
                                   bool all, RelDataTypePtr row_type) {
  return RelNodePtr(new EnumerableSetOp(EnumerableTraits(),
                                        std::move(row_type), std::move(inputs),
                                        kind, all));
}

RelNodePtr EnumerableSetOp::Copy(RelTraitSet traits,
                                 std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new EnumerableSetOp(std::move(traits), row_type(),
                                        std::move(inputs), set_kind_, all_));
}

Result<std::vector<Row>> EnumerableSetOp::Execute() const {
  return DrainNode(*this);
}

namespace {

/// Multiset combination of fully-materialized inputs (INTERSECT / MINUS and
/// the deduplicating UNION; UNION ALL streams and never reaches this).
std::vector<Row> CombineSetOp(SetOp::Kind kind, bool all,
                              std::vector<std::vector<Row>> input_rows) {
  std::vector<Row> out;
  switch (kind) {
    case SetOp::Kind::kUnion: {
      for (std::vector<Row>& rows : input_rows) {
        out.insert(out.end(), std::make_move_iterator(rows.begin()),
                   std::make_move_iterator(rows.end()));
      }
      if (!all) {
        std::map<Row, bool, RowLess> seen;
        std::vector<Row> dedup;
        for (Row& row : out) {
          if (seen.emplace(row, true).second) dedup.push_back(std::move(row));
        }
        out = std::move(dedup);
      }
      return out;
    }
    case SetOp::Kind::kIntersect: {
      // Bag intersect: multiplicity = min across inputs (1 for DISTINCT).
      std::map<Row, size_t, RowLess> counts;
      for (const Row& row : input_rows[0]) ++counts[row];
      for (size_t i = 1; i < input_rows.size(); ++i) {
        std::map<Row, size_t, RowLess> other;
        for (const Row& row : input_rows[i]) ++other[row];
        for (auto& [row, count] : counts) {
          auto it = other.find(row);
          count = std::min(count, it == other.end() ? 0 : it->second);
        }
      }
      for (const Row& row : input_rows[0]) {
        auto it = counts.find(row);
        if (it != counts.end() && it->second > 0) {
          out.push_back(row);
          if (all) {
            --it->second;
          } else {
            it->second = 0;
          }
        }
      }
      return out;
    }
    case SetOp::Kind::kMinus: {
      std::map<Row, size_t, RowLess> subtract;
      for (size_t i = 1; i < input_rows.size(); ++i) {
        for (const Row& row : input_rows[i]) ++subtract[row];
      }
      std::map<Row, bool, RowLess> emitted;
      for (const Row& row : input_rows[0]) {
        auto it = subtract.find(row);
        if (it != subtract.end() && it->second > 0) {
          if (all) --it->second;
          continue;
        }
        if (!all && !emitted.emplace(row, true).second) continue;
        out.push_back(row);
      }
      return out;
    }
  }
  return out;
}

}  // namespace

Result<RowBatchPuller> EnumerableSetOp::ExecuteBatched(
    const ExecOptions& opts) const {
  RelNodePtr self = shared_from_this();
  if (set_kind_ == Kind::kUnion && all_) {
    // UNION ALL streams: batches flow through from each input in turn
    // without re-batching or materialization.
    std::vector<RowBatchPuller> pullers;
    pullers.reserve(inputs().size());
    for (const RelNodePtr& in : inputs()) {
      auto puller = in->ExecuteBatched(opts);
      if (!puller.ok()) return puller;
      pullers.push_back(std::move(puller).value());
    }
    auto shared = std::make_shared<std::vector<RowBatchPuller>>(
        std::move(pullers));
    auto current = std::make_shared<size_t>(0);
    return RowBatchPuller([self, shared, current]() -> Result<RowBatch> {
      while (*current < shared->size()) {
        auto batch = (*shared)[*current]();
        if (!batch.ok()) return batch;
        if (!batch.value().empty()) return batch;
        ++*current;
      }
      return RowBatch{};
    });
  }
  // The remaining kinds need full multiset views of their inputs.
  const Kind kind = set_kind_;
  const bool all = all_;
  std::vector<RelNodePtr> ins = inputs();
  const size_t batch_size = opts.Normalized().batch_size;
  auto state = std::make_shared<std::optional<RowBatchPuller>>();
  return RowBatchPuller(
      [self, kind, all, ins, batch_size, state,
       opts]() -> Result<RowBatch> {
        if (!state->has_value()) {
          std::vector<std::vector<Row>> input_rows;
          input_rows.reserve(ins.size());
          for (const RelNodePtr& in : ins) {
            auto puller = in->ExecuteBatched(opts);
            if (!puller.ok()) return puller.status();
            auto rows = DrainBatches(puller.value());
            if (!rows.ok()) return rows.status();
            input_rows.push_back(std::move(rows).value());
          }
          *state = ChunkRows(CombineSetOp(kind, all, std::move(input_rows)),
                             batch_size);
        }
        return (**state)();
      });
}

// --------------------------------- Values ---------------------------------

RelNodePtr EnumerableValues::Create(RelDataTypePtr row_type,
                                    std::vector<Row> tuples) {
  return RelNodePtr(new EnumerableValues(EnumerableTraits(),
                                         std::move(row_type),
                                         std::move(tuples)));
}

RelNodePtr EnumerableValues::Copy(RelTraitSet traits,
                                  std::vector<RelNodePtr> inputs) const {
  (void)inputs;
  return RelNodePtr(
      new EnumerableValues(std::move(traits), row_type(), tuples_));
}

Result<std::vector<Row>> EnumerableValues::Execute() const { return tuples_; }

Result<RowBatchPuller> EnumerableValues::ExecuteBatched(
    const ExecOptions& opts) const {
  RelNodePtr self = shared_from_this();  // pins tuples_ for the slicer
  RowBatchPuller pull = SliceRows(tuples_, opts.Normalized().batch_size);
  return RowBatchPuller(
      [self, pull]() -> Result<RowBatch> { return pull(); });
}

// --------------------------------- Window ---------------------------------

RelNodePtr EnumerableWindow::Create(RelNodePtr input,
                                    std::vector<WindowGroup> groups,
                                    RelDataTypePtr row_type) {
  return RelNodePtr(new EnumerableWindow(EnumerableTraits(),
                                         std::move(row_type), std::move(input),
                                         std::move(groups)));
}

RelNodePtr EnumerableWindow::Copy(RelTraitSet traits,
                                  std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new EnumerableWindow(std::move(traits), row_type(),
                                         std::move(inputs[0]), groups_));
}

Result<std::vector<Row>> EnumerableWindow::Execute() const {
  return DrainNode(*this);
}

namespace {

/// The input rows with one column appended per aggregate call of each
/// window group.
Result<std::vector<Row>> EvaluateWindow(const std::vector<WindowGroup>& groups,
                                        const std::vector<Row>& data) {
  // Output rows start as copies of the input; window columns are appended.
  std::vector<Row> out = data;

  for (const WindowGroup& group : groups) {
    // Partition the row indexes.
    std::map<Row, std::vector<size_t>, RowLess> partitions;
    for (size_t i = 0; i < data.size(); ++i) {
      Row key;
      key.reserve(group.partition_keys.size());
      for (int k : group.partition_keys) {
        key.push_back(data[i][static_cast<size_t>(k)]);
      }
      partitions[std::move(key)].push_back(i);
    }
    for (auto& [key, indexes] : partitions) {
      // Order rows within the partition.
      std::stable_sort(indexes.begin(), indexes.end(),
                       [&](size_t a, size_t b) {
                         return CompareRows(data[a], data[b], group.order) < 0;
                       });
      for (size_t pos = 0; pos < indexes.size(); ++pos) {
        // Determine the frame [lo, hi] for the row at `pos`.
        size_t lo = 0;
        size_t hi = pos;
        if (group.is_rows) {
          if (group.preceding >= 0) {
            lo = pos >= static_cast<size_t>(group.preceding)
                     ? pos - static_cast<size_t>(group.preceding)
                     : 0;
          }
          hi = std::min(indexes.size() - 1,
                        pos + static_cast<size_t>(
                                  std::max<int64_t>(0, group.following)));
        } else if (group.order.fields().empty()) {
          // No ordering: every partition row is a peer of every other, so
          // the default RANGE frame spans the whole partition.
          lo = 0;
          hi = indexes.size() - 1;
        } else {
          // RANGE frame on the first ordering key (numeric).
          int order_field = group.order.fields()[0].field;
          const Value& current =
              data[indexes[pos]][static_cast<size_t>(order_field)];
          if (group.preceding >= 0 && current.is_numeric()) {
            double low_bound =
                current.AsDouble() - static_cast<double>(group.preceding);
            while (lo < pos) {
              const Value& v =
                  data[indexes[lo]][static_cast<size_t>(order_field)];
              if (!v.IsNull() && v.AsDouble() >= low_bound) break;
              ++lo;
            }
          }
          // CURRENT ROW in RANGE mode includes peers of the current value.
          while (hi + 1 < indexes.size()) {
            const Value& v =
                data[indexes[hi + 1]][static_cast<size_t>(order_field)];
            if (v.Compare(current) != 0) break;
            ++hi;
          }
        }
        std::vector<Row> frame;
        frame.reserve(hi - lo + 1);
        for (size_t f = lo; f <= hi; ++f) frame.push_back(data[indexes[f]]);
        Row agg_values;
        CALCITE_RETURN_IF_ERROR(
            ComputeAggregates(group.agg_calls, frame, &agg_values));
        Row& target = out[indexes[pos]];
        for (Value& v : agg_values) target.push_back(std::move(v));
      }
    }
  }
  return out;
}

}  // namespace

Result<RowBatchPuller> EnumerableWindow::ExecuteBatched(
    const ExecOptions& opts) const {
  // Window frames reach arbitrarily far across the partition, so the
  // operator is inherently blocking: drain the input under the query's
  // options, compute, then re-chunk.
  CALCITE_ASSIGN_OR_RETURN(RowBatchPuller in, input(0)->ExecuteBatched(opts));
  CALCITE_ASSIGN_OR_RETURN(std::vector<Row> data, DrainBatches(in));
  CALCITE_ASSIGN_OR_RETURN(std::vector<Row> rows, EvaluateWindow(groups_, data));
  RowBatchPuller puller =
      ChunkRows(std::move(rows), opts.Normalized().batch_size);
  RelNodePtr self = shared_from_this();
  return RowBatchPuller(
      [self, puller]() -> Result<RowBatch> { return puller(); });
}

// ------------------------------- Interpreter -------------------------------

RelNodePtr EnumerableInterpreter::Create(RelNodePtr input) {
  RelDataTypePtr row_type = input->row_type();
  // The interpreter streams rows through unchanged, so the input's ordering
  // survives the convention crossing — e.g. a CassandraSort's clustering
  // order still counts toward an ORDER BY required at the root.
  RelTraitSet traits(Convention::Enumerable(), input->traits().collation());
  return RelNodePtr(new EnumerableInterpreter(
      std::move(traits), std::move(row_type), std::move(input)));
}

RelNodePtr EnumerableInterpreter::Copy(RelTraitSet traits,
                                       std::vector<RelNodePtr> inputs) const {
  return RelNodePtr(new EnumerableInterpreter(std::move(traits), row_type(),
                                              std::move(inputs[0])));
}

Result<std::vector<Row>> EnumerableInterpreter::Execute() const {
  return input(0)->Execute();
}

Result<RowBatchPuller> EnumerableInterpreter::ExecuteBatched(
    const ExecOptions& opts) const {
  // The foreign input executes inside its own engine; its default
  // ExecuteBatched materializes there and re-chunks — the per-row transfer
  // the cost model charges this converter for.
  return input(0)->ExecuteBatched(opts);
}

}  // namespace calcite
