#include "exec/parallel/parallel_exec.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "adapters/enumerable/columnar_agg.h"
#include "adapters/enumerable/enumerable_rels.h"
#include "adapters/enumerable/hash_join.h"
#include "exec/arena.h"
#include "exec/column_batch.h"
#include "exec/parallel/exchange.h"
#include "exec/parallel/morsel.h"
#include "exec/parallel/task_scheduler.h"
#include "rel/core.h"
#include "rex/rex_columnar.h"

namespace calcite {

namespace {

// ---------------------------------------------------------------------------
// Fragment recognition
// ---------------------------------------------------------------------------

/// One transform stage of a morsel pipeline: exactly one of {filter,
/// project} is set. Stages reference expression trees owned by the pinned
/// plan nodes, so a FragmentSource keeps those nodes alive.
struct PipelineStage {
  RexNodePtr filter;
  const std::vector<RexNodePtr>* project = nullptr;
};

/// A recognized morsel-parallelizable fragment: a (Filter|Project)* chain
/// over a leaf that workers can claim morsels of. Shared read-only by every
/// worker of the fragment. The leaf is one of:
///  - columnar (`columns` set): the table's columnar cache, or a Values
///    node's tuples decomposed once; morsels are row ranges sliced as
///    zero-copy views;
///  - paged (`paged` set): a table without a columnar cache that tiles
///    itself into scan units (a disk table's page runs); morsels are unit
///    ranges, each opened with its own unit-ranged OpenScan that applies
///    the `pushed` conjuncts of the bottom filter while decoding;
///  - an index leaf (`paged` set, `index_leaf` true): a paged table whose
///    own access-path decision sends the pushed conjuncts to its index.
///    The leaf is a single morsel, one OpenScan without a unit range, so
///    the table walks the index exactly as a serial scan would.
struct FragmentSource {
  std::vector<RelNodePtr> pinned;  // fragment nodes (keep exprs/tuples alive)
  TableColumnsPtr columns;
  TablePtr paged;
  bool index_leaf = false;
  AccessPath access_path = AccessPath::kAuto;
  RelDataTypePtr leaf_row_type;
  ScanPredicateList pushed;
  std::vector<PipelineStage> stages;  // applied bottom-up

  std::shared_ptr<MorselSource> Morsels(size_t num_threads) const {
    if (columns != nullptr) {
      return std::make_shared<MorselSource>(
          columns->num_rows, PickMorselSize(columns->num_rows, num_threads));
    }
    return std::make_shared<MorselSource>(
        index_leaf ? 1 : paged->ScanUnitCount(), /*morsel_size=*/1);
  }

  /// The whole-table scan of a paged leaf; a heap morsel narrows it to
  /// its unit range.
  ScanSpec LeafSpec(size_t batch_size) const {
    ScanSpec spec;
    spec.batch_size = batch_size;
    spec.predicates = pushed;
    spec.access_path = access_path;
    return spec;
  }
};

using FragmentSourcePtr = std::shared_ptr<const FragmentSource>;

/// Moves the pushable conjuncts of a paged leaf's bottom filter into the
/// leaf scan; what the scan cannot evaluate stays behind as one filter
/// stage per residual conjunct.
void PushBottomFilter(FragmentSource* src) {
  if (src->stages.empty() || src->stages.front().filter == nullptr) return;
  std::vector<RexNodePtr> residual;
  if (!ExtractScanPredicates(
          src->stages.front().filter,
          static_cast<int>(src->leaf_row_type->fields().size()), &src->pushed,
          &residual)) {
    return;
  }
  std::vector<PipelineStage> stages;
  for (RexNodePtr& pred : residual) {
    PipelineStage stage;
    stage.filter = std::move(pred);
    stages.push_back(std::move(stage));
  }
  stages.insert(stages.end(), src->stages.begin() + 1, src->stages.end());
  src->stages = std::move(stages);
}

/// Matches the fragment shape the morsel executor can run: a chain of
/// enumerable Filter/Project nodes over an enumerable TableScan or Values
/// leaf with a morsel surface. Converters (EnumerableInterpreter) and every
/// other operator stop the chain — fragments never cross a
/// calling-convention boundary. Tables with neither a columnar cache nor
/// scan units stay serial. A paged leaf asks its table which access path
/// the pushed conjuncts take under `access_path`, and becomes an index leaf
/// when the table answers with its index.
bool RecognizeMorselPipeline(const RelNode& root, AccessPath access_path,
                             FragmentSource* out) {
  const RelNode* cur = &root;
  std::vector<PipelineStage> top_down;
  for (;;) {
    if (cur->convention() != Convention::Enumerable()) return false;
    if (const auto* filter = dynamic_cast<const Filter*>(cur)) {
      PipelineStage stage;
      stage.filter = filter->condition();
      top_down.push_back(std::move(stage));
      out->pinned.push_back(cur->shared_from_this());
      cur = filter->input(0).get();
      continue;
    }
    if (const auto* project = dynamic_cast<const Project*>(cur)) {
      PipelineStage stage;
      stage.project = &project->exprs();
      top_down.push_back(std::move(stage));
      out->pinned.push_back(cur->shared_from_this());
      cur = project->input(0).get();
      continue;
    }
    if (const auto* scan = dynamic_cast<const TableScan*>(cur)) {
      // Streams are time-ordered by contract (Table::IsStream) and morsel
      // workers racing for row ranges would interleave their events, so
      // stream scans always stay serial.
      if (scan->table()->IsStream()) return false;
      out->pinned.push_back(cur->shared_from_this());
      TypeFactory type_factory;
      out->columns = scan->table()->MaterializedColumns(type_factory);
      if (out->columns == nullptr) {
        if (scan->table()->ScanUnitCount() == 0) return false;
        out->paged = scan->table();
      }
      out->leaf_row_type = scan->row_type();
      break;
    }
    if (const auto* values = dynamic_cast<const Values*>(cur)) {
      out->pinned.push_back(cur->shared_from_this());
      out->columns = TableColumns::Build(values->tuples(), *values->row_type());
      if (out->columns == nullptr) return false;
      out->leaf_row_type = values->row_type();
      break;
    }
    return false;
  }
  out->stages.assign(top_down.rbegin(), top_down.rend());
  if (out->paged != nullptr) {
    PushBottomFilter(out);
    out->access_path = access_path;
    out->index_leaf = out->paged->ScanUsesIndex(out->LeafSpec(1));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Worker side: morsel -> stage chain -> sink
// ---------------------------------------------------------------------------

/// Runs the stage chain on raw columns — the same RexColumnar calls as the
/// serial filter/project operators, whichever worker thread runs it:
/// filter stages narrow the batch's selection, project stages rebuild the
/// batch densely (selection consumed on write). The stages are shared and
/// immutable; `pool` is worker-local, so arena recycling stays on one
/// thread (batches never leave the worker as columns).
Status ApplyStagesColumnar(const std::vector<PipelineStage>& stages,
                           ArenaPool* pool, ColumnBatch* batch) {
  for (const PipelineStage& stage : stages) {
    if (batch->ActiveCount() == 0) return Status::OK();
    if (stage.filter != nullptr) {
      if (!batch->has_sel) {
        batch->sel.resize(batch->num_rows);
        for (size_t i = 0; i < batch->num_rows; ++i) {
          batch->sel[i] = static_cast<uint32_t>(i);
        }
        batch->has_sel = true;
      }
      ArenaPtr scratch = pool->Acquire();
      CALCITE_RETURN_IF_ERROR(RexColumnar::NarrowSelection(
          stage.filter, *batch, scratch, &batch->sel));
    } else {
      ColumnBatch out;
      out.arena = pool->Acquire();
      out.num_rows = batch->ActiveCount();
      out.ShareStorage(*batch);
      for (const RexNodePtr& expr : *stage.project) {
        CALCITE_RETURN_IF_ERROR(
            RexColumnar::AppendEvalColumn(expr, *batch, &out));
      }
      *batch = std::move(out);
    }
  }
  return Status::OK();
}

/// One batch of a morsel after the stage chain. A paged leaf's rows become
/// columns only when a stage has to run on them, so a bare paged scan hands
/// its decoded rows through as they are (`is_rows`); every other batch is
/// `cols`, its live rows named by its selection.
struct MorselBatch {
  bool is_rows = false;
  RowBatch rows;
  ColumnBatch cols;
};

/// A worker's view of a fragment: the shared stages and its own arena pool.
/// Run() streams one claimed morsel through the leaf and the stage chain
/// into a sink; Rows()/Columns() hand a batch over in whichever form the
/// sink consumes, converting only when the forms differ.
class MorselRunner {
 public:
  MorselRunner(FragmentSourcePtr src, const ExecOptions& opts)
      : src_(std::move(src)), batch_size_(opts.batch_size) {}

  /// Calls `sink(MorselBatch&&) -> Status` for every batch of `morsel` with
  /// live rows; stops at the first error or once `cancel` is set.
  template <typename Sink>
  Status Run(const Morsel& morsel, const QueryCancelState& cancel,
             Sink& sink) {
    if (src_->columns != nullptr) {
      for (size_t pos = morsel.begin; pos < morsel.end;) {
        if (cancel.cancelled()) return Status::OK();
        const size_t n = std::min(batch_size_, morsel.end - pos);
        MorselBatch batch;
        batch.cols = SliceTableColumns(src_->columns, pos, n, nullptr);
        pos += n;
        CALCITE_RETURN_IF_ERROR(Stage(&batch, sink));
      }
      return Status::OK();
    }
    // The paged leaf: one unit-ranged OpenScan per morsel streams just the
    // claimed page run through the buffer pool, decoding only rows that
    // pass the pushed conjuncts. An index leaf's single morsel is one
    // OpenScan over the whole table, which the table serves from its index.
    ScanSpec spec = src_->LeafSpec(batch_size_);
    if (!src_->index_leaf) {
      spec.unit_begin = morsel.begin;
      spec.unit_end = morsel.end;
    }
    CALCITE_ASSIGN_OR_RETURN(RowBatchPuller pull, src_->paged->OpenScan(spec));
    while (!cancel.cancelled()) {
      CALCITE_ASSIGN_OR_RETURN(RowBatch rows, pull());
      if (rows.empty()) break;
      MorselBatch batch;
      batch.is_rows = src_->stages.empty();
      if (batch.is_rows) {
        batch.rows = std::move(rows);
      } else {
        CALCITE_ASSIGN_OR_RETURN(batch.cols, ToColumns(std::move(rows)));
      }
      CALCITE_RETURN_IF_ERROR(Stage(&batch, sink));
    }
    return Status::OK();
  }

  /// The batch's live rows, boxed here on the worker thread.
  RowBatch Rows(MorselBatch&& batch) {
    if (batch.is_rows) return std::move(batch.rows);
    RowBatch out;
    ColumnsToRows(batch.cols, &out);
    return out;
  }

  Result<ColumnBatch> Columns(MorselBatch&& batch) {
    if (batch.is_rows) return ToColumns(std::move(batch.rows));
    return std::move(batch.cols);
  }

 private:
  Result<ColumnBatch> ToColumns(RowBatch rows) {
    return RowsToColumns(std::move(rows), *src_->leaf_row_type,
                         pool_.Acquire());
  }

  template <typename Sink>
  Status Stage(MorselBatch* batch, Sink& sink) {
    if (!batch->is_rows) {
      CALCITE_RETURN_IF_ERROR(
          ApplyStagesColumnar(src_->stages, &pool_, &batch->cols));
      if (batch->cols.ActiveCount() == 0) return Status::OK();
    }
    return sink(std::move(*batch));
  }

  FragmentSourcePtr src_;
  ArenaPool pool_;
  size_t batch_size_;
};

/// A worker's morsel loop: claims morsels until the source drains or the
/// fragment is cancelled, running each through `runner` into `sink`. The
/// first error cancels the fragment. A sink that finds the exchange closed
/// just returns: the exchange only closes after the fragment is cancelled.
template <typename Sink>
void DriveWorker(MorselRunner* runner, MorselSource* morsels,
                 QueryCancelState* cancel, Sink sink) {
  while (!cancel->cancelled()) {
    auto morsel = morsels->Next();
    if (!morsel.has_value()) return;
    Status status = runner->Run(*morsel, *cancel, sink);
    if (!status.ok()) {
      cancel->Cancel(std::move(status));
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Morsel-parallel scan -> filter -> project pipeline
// ---------------------------------------------------------------------------

Result<RowBatchPuller> ExecutePipelineParallel(FragmentSource fragment,
                                               const ExecOptions& opts) {
  const size_t threads = opts.num_threads;
  auto src = std::make_shared<const FragmentSource>(std::move(fragment));
  auto cancel = std::make_shared<QueryCancelState>();
  auto queue = std::make_shared<ExchangeQueue>(threads * 2, threads);
  auto start = [src, cancel, queue, threads,
                opts]() -> std::shared_ptr<TaskScheduler> {
    auto morsels = src->Morsels(threads);
    auto scheduler = std::make_shared<TaskScheduler>(threads);
    for (size_t t = 0; t < threads; ++t) {
      scheduler->Submit([src, cancel, queue, morsels, opts]() {
        MorselRunner runner(src, opts);
        // Survivors are boxed on the worker, so the gather thread only
        // hands finished rows on.
        DriveWorker(&runner, morsels.get(), cancel.get(),
                    [&](MorselBatch&& batch) {
                      queue->Push(runner.Rows(std::move(batch)));
                      return Status::OK();
                    });
        if (cancel->cancelled()) queue->Cancel();
        queue->ProducerDone();
      });
    }
    return scheduler;
  };
  return MakeGatherPuller(std::move(cancel), std::move(queue),
                          std::move(start));
}

// ---------------------------------------------------------------------------
// Partitioned hash aggregate (thread-local build + merge)
// ---------------------------------------------------------------------------

Result<RowBatchPuller> ExecuteAggregateParallel(const Aggregate& agg,
                                                FragmentSource fragment,
                                                const ExecOptions& opts) {
  const size_t threads = opts.num_threads;
  const size_t batch_size = opts.batch_size;
  auto src = std::make_shared<const FragmentSource>(std::move(fragment));
  RelNodePtr self = agg.shared_from_this();  // pins group_keys_/agg_calls_
  const Aggregate* node = &agg;
  // Set once the build phase has run: the merged builder emits directly.
  auto merged = std::make_shared<std::unique_ptr<ColumnarAggBuilder>>();

  return RowBatchPuller([src, self, node, merged, threads, batch_size,
                         opts]() -> Result<RowBatch> {
    if (*merged == nullptr) {
      // Build phase: one ColumnarAggBuilder per worker, fed straight from
      // the stage chain's columns, then a serial merge (partial-state
      // merge, not re-aggregation). The scheduler lives only for this
      // phase; its destructor joins the workers, so the builders are safe
      // to read afterwards. Group output order is first-seen order across
      // the merge: unspecified across threads (workers race for morsels).
      std::vector<std::unique_ptr<ColumnarAggBuilder>> builders(threads);
      for (auto& builder : builders) {
        builder = ColumnarAggBuilder::Create(node->group_keys(),
                                             node->agg_calls());
      }
      auto cancel = std::make_shared<QueryCancelState>();
      {
        auto morsels = src->Morsels(threads);
        TaskScheduler scheduler(threads);
        for (size_t t = 0; t < threads; ++t) {
          ColumnarAggBuilder* builder = builders[t].get();
          scheduler.Submit([&, builder]() {
            MorselRunner runner(src, opts);
            DriveWorker(&runner, morsels.get(), cancel.get(),
                        [&](MorselBatch&& batch) -> Status {
                          CALCITE_ASSIGN_OR_RETURN(
                              ColumnBatch cols,
                              runner.Columns(std::move(batch)));
                          return builder->Feed(cols);
                        });
          });
        }
        scheduler.WaitIdle();
      }
      CALCITE_RETURN_IF_ERROR(cancel->status());
      for (size_t t = 1; t < threads; ++t) {
        CALCITE_RETURN_IF_ERROR(builders[0]->MergeFrom(*builders[t]));
      }
      *merged = std::move(builders[0]);
    }
    return (*merged)->EmitBatch(batch_size);
  });
}

// ---------------------------------------------------------------------------
// Partitioned hash join
// ---------------------------------------------------------------------------

/// State of a parallel join shared by the build, the probe workers and
/// the consumer-side tail: the probe fragment and the hash table, with one
/// partition per worker.
struct ParallelJoinShared {
  FragmentSourcePtr probe;
  RelNodePtr self;        // pins condition / row types
  RelNodePtr build_node;  // right input, drained serially
  size_t left_width = 0;
  HashJoinTable table;
};

/// Hands accumulated output to the exchange in <= batch_size chunks.
void PushChunks(RowBatch* out, size_t batch_size, ExchangeQueue* queue) {
  for (size_t pos = 0; pos < out->size();) {
    const size_t n = std::min(batch_size, out->size() - pos);
    auto first = out->begin() + static_cast<ptrdiff_t>(pos);
    RowBatch chunk(std::make_move_iterator(first),
                   std::make_move_iterator(first + static_cast<ptrdiff_t>(n)));
    pos += n;
    if (!queue->Push(std::move(chunk))) break;
  }
  out->clear();
}

Result<RowBatchPuller> ExecuteHashJoinParallel(
    const Join& join, std::vector<std::pair<int, int>> keys,
    std::vector<RexNodePtr> remaining, FragmentSource probe,
    const ExecOptions& opts) {
  const size_t threads = opts.num_threads;
  const size_t batch_size = opts.batch_size;
  auto shared = std::make_shared<ParallelJoinShared>();
  shared->probe = std::make_shared<const FragmentSource>(std::move(probe));
  shared->self = join.shared_from_this();
  shared->build_node = join.input(1);
  shared->left_width = join.input(0)->row_type()->fields().size();
  shared->table.keys = std::move(keys);
  shared->table.remaining = std::move(remaining);
  shared->table.join_type = join.join_type();
  shared->table.right_width = join.input(1)->row_type()->fields().size();

  auto cancel = std::make_shared<QueryCancelState>();
  auto queue = std::make_shared<ExchangeQueue>(threads * 2, threads);
  auto start = [shared, cancel, queue, threads, batch_size,
                opts]() -> std::shared_ptr<TaskScheduler> {
    auto scheduler = std::make_shared<TaskScheduler>(threads);
    // The build side drains through its own (possibly itself parallel)
    // pipeline, then hashes into one partition per worker.
    Status status = [&]() -> Status {
      CALCITE_ASSIGN_OR_RETURN(RowBatchPuller build,
                               shared->build_node->ExecuteBatched(opts));
      return BuildHashJoinTable(build, threads, scheduler.get(),
                                &shared->table);
    }();
    if (!status.ok()) {
      cancel->Cancel(std::move(status));
      queue->Cancel();
      return scheduler;  // idle; the gather still joins it
    }
    auto morsels = shared->probe->Morsels(threads);
    for (size_t t = 0; t < threads; ++t) {
      scheduler->Submit([shared, cancel, queue, morsels, batch_size, opts]() {
        MorselRunner runner(shared->probe, opts);
        ProbeScratch scratch;
        RowBatch out;
        DriveWorker(&runner, morsels.get(), cancel.get(),
                    [&](MorselBatch&& batch) -> Status {
                      CALCITE_ASSIGN_OR_RETURN(
                          ColumnBatch cols, runner.Columns(std::move(batch)));
                      CALCITE_RETURN_IF_ERROR(
                          ProbeBatch(shared->table, cols, &scratch, &out));
                      PushChunks(&out, batch_size, queue.get());
                      return Status::OK();
                    });
        if (cancel->cancelled()) queue->Cancel();
        queue->ProducerDone();
      });
    }
    return scheduler;
  };

  // The RIGHT/FULL unmatched tail runs on the consumer once the gather
  // reports end-of-stream, i.e. after every probe worker has been joined
  // (which orders their matched-flag writes before these reads).
  RowBatchPuller gather = MakeGatherPuller(cancel, queue, std::move(start));
  auto in_tail = std::make_shared<bool>(false);
  return RowBatchPuller([gather, shared, in_tail,
                         batch_size]() -> Result<RowBatch> {
    if (!*in_tail) {
      auto batch = gather();
      if (!batch.ok() || !batch.value().empty()) return batch;
      *in_tail = true;
    }
    return shared->table.build.NextUnmatched(shared->table.join_type,
                                             shared->left_width, batch_size);
  });
}

}  // namespace

std::optional<Result<RowBatchPuller>> TryExecuteParallel(
    const RelNode& node, const ExecOptions& raw_opts) {
  ExecOptions opts = raw_opts.Normalized();
  if (opts.num_threads < 2) return std::nullopt;

  // A pipeline or aggregate over an index leaf would run its one morsel on
  // one worker: it stays serial, where the leaf takes the same index
  // without a scheduler. A join keeps its parallel partitioned build.
  if (const auto* agg = dynamic_cast<const Aggregate*>(&node)) {
    FragmentSource src;
    if (!RecognizeMorselPipeline(*agg->input(0), opts.access_path, &src) ||
        src.index_leaf) {
      return std::nullopt;
    }
    return ExecuteAggregateParallel(*agg, std::move(src), opts);
  }
  if (const auto* join = dynamic_cast<const Join*>(&node)) {
    std::vector<std::pair<int, int>> keys;
    std::vector<RexNodePtr> remaining;
    if (!join->AnalyzeEquiKeys(&keys, &remaining)) return std::nullopt;
    FragmentSource src;
    if (!RecognizeMorselPipeline(*join->input(0), opts.access_path, &src)) {
      return std::nullopt;
    }
    return ExecuteHashJoinParallel(*join, std::move(keys),
                                   std::move(remaining), std::move(src), opts);
  }
  FragmentSource src;
  if (!RecognizeMorselPipeline(node, opts.access_path, &src) ||
      src.index_leaf) {
    return std::nullopt;
  }
  return ExecutePipelineParallel(std::move(src), opts);
}

}  // namespace calcite
