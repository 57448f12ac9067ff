#include "exec/parallel/parallel_exec.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adapters/enumerable/aggregates.h"
#include "adapters/enumerable/columnar_agg.h"
#include "adapters/enumerable/enumerable_rels.h"
#include "exec/arena.h"
#include "exec/column_batch.h"
#include "exec/parallel/exchange.h"
#include "exec/parallel/morsel.h"
#include "exec/parallel/task_scheduler.h"
#include "exec/simd.h"
#include "rel/core.h"
#include "rex/rex_columnar.h"
#include "rex/rex_fuse.h"
#include "rex/rex_interpreter.h"

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

/// Rows per morsel: small enough that the tail of a scan still spreads
/// across the pool, large enough that the atomic claim amortizes.
size_t PickMorselSize(size_t total_rows, size_t num_threads) {
  size_t target = total_rows / (num_threads * 4);
  return std::min(kDefaultMorselSize, std::max<size_t>(256, target));
}

/// A recognized morsel-parallelizable fragment: a (Filter|Project)* chain
/// over a leaf that workers can claim morsels of. Shared read-only by every
/// worker of the fragment. The leaf is one of:
///  - columnar (`columns` set): the table's columnar cache, or a Values
///    node's tuples decomposed once; morsels are row ranges sliced as
///    zero-copy views;
///  - paged (`paged` set): a table without a columnar cache that tiles
///    itself into scan units (a disk table's page runs); morsels are unit
///    ranges, each opened with its own unit-ranged OpenScan that applies
///    the `pushed` conjuncts of the bottom filter while decoding.
struct FragmentSource {
  std::vector<RelNodePtr> pinned;  // fragment nodes (keep exprs/tuples alive)
  TableColumnsPtr columns;
  TablePtr paged;
  RelDataTypePtr leaf_row_type;
  ScanPredicateList pushed;
  std::vector<PipelineStage> stages;  // applied bottom-up

  std::shared_ptr<MorselSource> Morsels(size_t num_threads) const {
    if (columns != nullptr) {
      return std::make_shared<MorselSource>(
          columns->num_rows, PickMorselSize(columns->num_rows, num_threads));
    }
    return std::make_shared<MorselSource>(paged->ScanUnitCount(),
                                          /*morsel_size=*/1);
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
/// scan units stay serial.
bool RecognizeMorselPipeline(const RelNode& root, FragmentSource* out) {
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
  if (out->paged != nullptr) PushBottomFilter(out);
  return true;
}

// ---------------------------------------------------------------------------
// Worker side: morsel -> stage chain -> sink
// ---------------------------------------------------------------------------

/// Worker-local fused view of one pipeline stage: a FusedExpr per filter
/// predicate / projection expression. FusedExpr caches a compiled bytecode
/// program and register scratch and is not thread-safe (same contract as
/// ArenaPool), so every worker builds its own list next to its scratch
/// pool instead of sharing the RexNode-level stages directly.
struct FusedStage {
  std::unique_ptr<FusedExpr> filter;
  std::vector<FusedExpr> project;
};

std::vector<FusedStage> BuildFusedStages(
    const std::vector<PipelineStage>& stages, bool enable_fusion) {
  std::vector<FusedStage> out;
  out.reserve(stages.size());
  for (const PipelineStage& stage : stages) {
    FusedStage fused;
    if (stage.filter != nullptr) {
      fused.filter = std::make_unique<FusedExpr>(stage.filter, enable_fusion);
    } else {
      fused.project.reserve(stage.project->size());
      for (const RexNodePtr& expr : *stage.project) {
        fused.project.emplace_back(expr, enable_fusion);
      }
    }
    out.push_back(std::move(fused));
  }
  return out;
}

/// Runs the stage chain on raw columns — the same FusedExpr semantics as
/// the serial filter/project operators, whichever worker thread runs it:
/// filter stages narrow the batch's selection, project stages rebuild the
/// batch densely (selection consumed on write). `pool` and `stages` are
/// worker-local, so arena recycling and the fused interpreter state stay on
/// one thread (batches never leave the worker as columns).
Status ApplyStagesColumnar(std::vector<FusedStage>* stages, ArenaPool* pool,
                           ColumnBatch* batch) {
  for (FusedStage& stage : *stages) {
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
      CALCITE_RETURN_IF_ERROR(
          stage.filter->NarrowSelection(*batch, scratch, &batch->sel));
    } else {
      ColumnBatch out;
      out.arena = pool->Acquire();
      out.num_rows = batch->ActiveCount();
      out.ShareStorage(*batch);
      for (FusedExpr& expr : stage.project) {
        CALCITE_RETURN_IF_ERROR(expr.AppendEvalColumn(*batch, &out));
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

/// A worker's view of a fragment: its own fused stages and arena pool.
/// Run() streams one claimed morsel through the leaf and the stage chain
/// into a sink; Rows()/Columns() hand a batch over in whichever form the
/// sink consumes, converting only when the forms differ.
class MorselRunner {
 public:
  MorselRunner(FragmentSourcePtr src, const ExecOptions& opts)
      : src_(std::move(src)),
        stages_(BuildFusedStages(src_->stages, opts.enable_fusion)),
        batch_size_(opts.batch_size) {}

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
    // pass the pushed conjuncts.
    ScanSpec spec;
    spec.batch_size = batch_size_;
    spec.predicates = src_->pushed;
    spec.unit_begin = morsel.begin;
    spec.unit_end = morsel.end;
    CALCITE_ASSIGN_OR_RETURN(RowBatchPuller pull, src_->paged->OpenScan(spec));
    while (!cancel.cancelled()) {
      CALCITE_ASSIGN_OR_RETURN(RowBatch rows, pull());
      if (rows.empty()) break;
      MorselBatch batch;
      batch.is_rows = stages_.empty();
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
          ApplyStagesColumnar(&stages_, &pool_, &batch->cols));
      if (batch->cols.ActiveCount() == 0) return Status::OK();
    }
    return sink(std::move(*batch));
  }

  FragmentSourcePtr src_;
  std::vector<FusedStage> stages_;
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

/// Thread-local state of a wider-key aggregate (ColumnarAggBuilder covers
/// zero or one group key): one group table per worker, merged by the
/// consumer once every morsel has been aggregated. Group output order is
/// first-seen order across the merge — deterministic for one thread,
/// unspecified across threads (workers race for morsels).
struct LocalAggState {
  std::unordered_map<Row, size_t, RowHash> index;
  std::vector<Row> keys;
  std::vector<std::vector<AggAccumulator>> accs;
};

Status FeedLocalAgg(const std::vector<int>& group_keys,
                    const std::vector<AggregateCall>& agg_calls,
                    const RowBatch& rows, LocalAggState* local) {
  Row scratch_key;
  scratch_key.reserve(group_keys.size());
  for (const Row& row : rows) {
    scratch_key.clear();
    for (int k : group_keys) {
      scratch_key.push_back(row[static_cast<size_t>(k)]);
    }
    size_t group;
    auto it = local->index.find(scratch_key);
    if (it != local->index.end()) {
      group = it->second;
    } else {
      group = local->accs.size();
      local->index.emplace(scratch_key, group);
      local->keys.push_back(scratch_key);
      std::vector<AggAccumulator> accs;
      accs.reserve(agg_calls.size());
      for (const AggregateCall& call : agg_calls) accs.emplace_back(call);
      local->accs.push_back(std::move(accs));
    }
    for (AggAccumulator& acc : local->accs[group]) {
      CALCITE_RETURN_IF_ERROR(acc.Add(row));
    }
  }
  return Status::OK();
}

struct ParallelAggState {
  bool built = false;
  /// Set on the columnar path: the merged builder emits directly.
  std::unique_ptr<ColumnarAggBuilder> merged;
  std::vector<Row> out_rows;
  size_t pos = 0;
};

/// Folds the worker-local wider-key tables into `state->out_rows`
/// (partial-state merge, not re-aggregation).
Status MergeLocalAggs(const std::vector<AggregateCall>& agg_calls,
                      std::vector<LocalAggState>* locals,
                      ParallelAggState* state) {
  std::unordered_map<Row, size_t, RowHash> merged_index;
  std::vector<Row> merged_keys;
  std::vector<std::vector<AggAccumulator>> merged_accs;
  for (LocalAggState& local : *locals) {
    for (size_t g = 0; g < local.keys.size(); ++g) {
      auto it = merged_index.find(local.keys[g]);
      if (it == merged_index.end()) {
        merged_index.emplace(local.keys[g], merged_keys.size());
        merged_keys.push_back(std::move(local.keys[g]));
        merged_accs.push_back(std::move(local.accs[g]));
      } else {
        std::vector<AggAccumulator>& into = merged_accs[it->second];
        for (size_t a = 0; a < into.size(); ++a) {
          CALCITE_RETURN_IF_ERROR(into[a].MergeFrom(local.accs[g][a]));
        }
      }
    }
  }
  state->out_rows.reserve(merged_keys.size());
  for (size_t g = 0; g < merged_keys.size(); ++g) {
    Row result = std::move(merged_keys[g]);
    result.reserve(result.size() + agg_calls.size());
    for (const AggAccumulator& acc : merged_accs[g]) {
      result.push_back(acc.Finish());
    }
    state->out_rows.push_back(std::move(result));
  }
  return Status::OK();
}

Result<RowBatchPuller> ExecuteAggregateParallel(const Aggregate& agg,
                                                FragmentSource fragment,
                                                const ExecOptions& opts) {
  const size_t threads = opts.num_threads;
  const size_t batch_size = opts.batch_size;
  auto src = std::make_shared<const FragmentSource>(std::move(fragment));
  RelNodePtr self = agg.shared_from_this();  // pins group_keys_/agg_calls_
  const Aggregate* node = &agg;
  auto state = std::make_shared<ParallelAggState>();

  return RowBatchPuller([src, self, node, state, threads, batch_size,
                         opts]() -> Result<RowBatch> {
    const std::vector<int>& group_keys = node->group_keys();
    const std::vector<AggregateCall>& agg_calls = node->agg_calls();
    if (!state->built) {
      // Build phase: worker-local aggregation over morsels — a
      // ColumnarAggBuilder fed straight from the stage chain's columns
      // where the grouping shape allows, else a Row-keyed table over the
      // boxed survivors — then a serial merge. The scheduler lives only for
      // this phase; its destructor joins the workers, so the locals are
      // safe to read afterwards.
      std::vector<std::unique_ptr<ColumnarAggBuilder>> builders(threads);
      for (auto& builder : builders) {
        builder = ColumnarAggBuilder::TryCreate(group_keys, agg_calls);
      }
      std::vector<LocalAggState> locals(threads);
      auto cancel = std::make_shared<QueryCancelState>();
      {
        auto morsels = src->Morsels(threads);
        TaskScheduler scheduler(threads);
        for (size_t t = 0; t < threads; ++t) {
          ColumnarAggBuilder* builder = builders[t].get();
          LocalAggState* local = &locals[t];
          scheduler.Submit([&, builder, local]() {
            MorselRunner runner(src, opts);
            DriveWorker(&runner, morsels.get(), cancel.get(),
                        [&](MorselBatch&& batch) -> Status {
                          if (builder != nullptr) {
                            CALCITE_ASSIGN_OR_RETURN(
                                ColumnBatch cols,
                                runner.Columns(std::move(batch)));
                            return builder->Feed(cols);
                          }
                          return FeedLocalAgg(group_keys, agg_calls,
                                              runner.Rows(std::move(batch)),
                                              local);
                        });
          });
        }
        scheduler.WaitIdle();
      }
      CALCITE_RETURN_IF_ERROR(cancel->status());
      if (builders[0] != nullptr) {
        for (size_t t = 1; t < threads; ++t) {
          CALCITE_RETURN_IF_ERROR(builders[0]->MergeFrom(*builders[t]));
        }
        state->merged = std::move(builders[0]);
      } else {
        CALCITE_RETURN_IF_ERROR(MergeLocalAggs(agg_calls, &locals, state.get()));
      }
      state->built = true;
    }
    if (state->merged != nullptr) {
      return state->merged->EmitBatch(batch_size);
    }
    RowBatch out;
    size_t n = std::min(batch_size, state->out_rows.size() - state->pos);
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out.push_back(std::move(state->out_rows[state->pos + i]));
    }
    state->pos += n;
    return out;
  });
}

// ---------------------------------------------------------------------------
// Partitioned hash join
// ---------------------------------------------------------------------------

/// Hashes a block of extracted join keys at once (HashRowKey64 semantics).
/// All-single-int64 blocks gather the raw keys into a scratch column and
/// hash in SIMD lanes; everything else hashes per row. An empty Row is the
/// "no key" sentinel (a real key is never empty) — its hash slot is written
/// arbitrarily and must not be read.
void HashKeyBlock(const std::vector<Row>& keys, std::vector<uint64_t>* out,
                  std::vector<int64_t>* i64_scratch) {
  const size_t n = keys.size();
  out->resize(n);
  bool single_int = n >= 8;
  if (single_int) {
    for (const Row& k : keys) {
      if (k.empty()) continue;
      if (k.size() != 1 || !k[0].is_int()) {
        single_int = false;
        break;
      }
    }
  }
  if (single_int) {
    i64_scratch->resize(n);
    for (size_t j = 0; j < n; ++j) {
      (*i64_scratch)[j] = keys[j].empty() ? 0 : keys[j][0].AsInt();
    }
    simd::HashI64(i64_scratch->data(), n, out->data());
    return;
  }
  for (size_t j = 0; j < n; ++j) {
    if (!keys[j].empty()) (*out)[j] = HashRowKey64(keys[j]);
  }
}

/// One partition of the build-side table: build entries in insertion order
/// plus a hash index over them. The index is keyed by the full 64-bit key
/// hash (precomputed in blocks on both build and probe side); probes verify
/// candidates with Row equality, so the hash only routes.
struct BuildPartition {
  std::vector<std::pair<Row, size_t>> entries;  // (key, build row index)
  std::unordered_map<uint64_t, std::vector<uint32_t>> index;
};

/// Shared read-only state of a parallel join probe: the drained build side,
/// the per-partition hash tables (each written by exactly one build task,
/// read by every probe worker), and the matched flags outer joins need.
struct ParallelJoinShared {
  FragmentSourcePtr probe;
  RelNodePtr self;        // pins condition / row types
  RelNodePtr build_node;  // right input, drained serially
  std::vector<std::pair<int, int>> keys;
  std::vector<RexNodePtr> remaining;
  JoinType join_type;
  size_t left_width = 0;
  size_t right_width = 0;
  size_t partitions = 0;
  std::vector<Row> right_data;
  std::vector<BuildPartition> tables;
  /// Matched flags are racy-by-design across probe workers: only ever set
  /// to true, read after the workers have been joined.
  std::unique_ptr<std::atomic<bool>[]> right_matched;
};

/// Drains the build side through its own (possibly itself parallel) batch
/// pipeline and builds the partitioned hash table: one classify pass over
/// morsels of the build rows, then one insert task per partition — no two
/// tasks ever touch the same partition, so the build is lock-free.
Status BuildPartitionedTable(ParallelJoinShared* shared,
                             TaskScheduler* scheduler,
                             const ExecOptions& opts) {
  auto build = shared->build_node->ExecuteBatched(opts);
  if (!build.ok()) return build.status();
  const RowBatchPuller& pull = build.value();
  for (;;) {
    auto batch = pull();
    if (!batch.ok()) return batch.status();
    if (batch.value().empty()) break;
    for (Row& row : batch.value()) {
      shared->right_data.push_back(std::move(row));
    }
  }

  const size_t threads = opts.num_threads;
  const size_t partitions = shared->partitions;
  // Classify pass: workers claim morsels of the build rows and bucket
  // (key, row index) pairs by key partition, so the insert pass moves the
  // already-built keys instead of recomputing them. NULL keys never match
  // and are skipped — for RIGHT/FULL they surface through the unmatched
  // tail.
  struct KeyedIndex {
    Row key;
    size_t row;
    uint64_t hash;
  };
  std::vector<std::vector<std::vector<KeyedIndex>>> buckets(
      threads, std::vector<std::vector<KeyedIndex>>(partitions));
  {
    MorselSource morsels(shared->right_data.size(),
                         PickMorselSize(shared->right_data.size(), threads));
    for (size_t t = 0; t < threads; ++t) {
      std::vector<std::vector<KeyedIndex>>* mine = &buckets[t];
      ParallelJoinShared* sh = shared;
      scheduler->Submit([sh, mine, &morsels, partitions]() {
        std::vector<Row> keys;
        std::vector<size_t> rows;
        std::vector<uint64_t> hashes;
        std::vector<int64_t> scratch;
        while (auto morsel = morsels.Next()) {
          // Extract the morsel's keys, then hash them in one block.
          keys.clear();
          rows.clear();
          for (size_t i = morsel->begin; i < morsel->end; ++i) {
            auto key = JoinSideKey(sh->right_data[i], sh->keys,
                                   /*left_side=*/false);
            if (!key.has_value()) continue;
            keys.push_back(std::move(*key));
            rows.push_back(i);
          }
          HashKeyBlock(keys, &hashes, &scratch);
          for (size_t j = 0; j < keys.size(); ++j) {
            (*mine)[hashes[j] % partitions].push_back(
                KeyedIndex{std::move(keys[j]), rows[j], hashes[j]});
          }
        }
      });
    }
    scheduler->WaitIdle();
  }
  // Insert pass: partition p is owned by exactly one task. Inserts reuse
  // the hashes the classify pass computed.
  shared->tables.resize(partitions);
  for (size_t p = 0; p < partitions; ++p) {
    ParallelJoinShared* sh = shared;
    std::vector<std::vector<std::vector<KeyedIndex>>>* all = &buckets;
    scheduler->Submit([sh, all, p]() {
      BuildPartition& part = sh->tables[p];
      for (auto& worker_buckets : *all) {
        for (KeyedIndex& entry : worker_buckets[p]) {
          const uint32_t eid = static_cast<uint32_t>(part.entries.size());
          part.index[entry.hash].push_back(eid);
          part.entries.emplace_back(std::move(entry.key), entry.row);
        }
      }
    });
  }
  scheduler->WaitIdle();

  shared->right_matched =
      std::make_unique<std::atomic<bool>[]>(shared->right_data.size());
  for (size_t i = 0; i < shared->right_data.size(); ++i) {
    shared->right_matched[i].store(false, std::memory_order_relaxed);
  }
  return Status::OK();
}

/// Worker-local buffers of the probe loop, reused batch to batch.
struct ProbeScratch {
  std::vector<Row> keys;
  std::vector<uint64_t> hashes;
  std::vector<int64_t> i64;
};

/// Probes the live rows of one left batch against the read-only partition
/// tables and appends the output per the join type to `out`. Join keys are
/// read straight off the key columns and hashed in one block; the full
/// left row is boxed only when the row emits output.
Status ProbeBatch(const ParallelJoinShared& shared, const ColumnBatch& cols,
                  ProbeScratch* scratch, RowBatch* out) {
  const size_t active = cols.ActiveCount();
  // An empty Row marks a NULL-keyed row that can never match.
  scratch->keys.resize(active);
  for (size_t k = 0; k < active; ++k) {
    const size_t i = cols.ActiveIndex(k);
    Row& key = scratch->keys[k];
    key.clear();
    for (const auto& [l, r] : shared.keys) {
      (void)r;
      const ColumnVector& c = cols.cols[static_cast<size_t>(l)];
      if (c.IsNullAt(i)) {
        key.clear();
        break;
      }
      key.push_back(c.GetValue(i));
    }
  }
  HashKeyBlock(scratch->keys, &scratch->hashes, &scratch->i64);
  for (size_t k = 0; k < active; ++k) {
    const size_t i = cols.ActiveIndex(k);
    const Row& key = scratch->keys[k];
    Row lrow;
    bool have_lrow = false;
    auto left_row = [&]() -> Row& {
      if (!have_lrow) {
        lrow = cols.GatherRow(i);
        have_lrow = true;
      }
      return lrow;
    };
    bool matched = false;
    if (!key.empty()) {
      const uint64_t h = scratch->hashes[k];
      const BuildPartition& part = shared.tables[h % shared.partitions];
      auto it = part.index.find(h);
      if (it != part.index.end()) {
        for (uint32_t eid : it->second) {
          if (!(part.entries[eid].first == key)) continue;  // collision
          const size_t ri = part.entries[eid].second;
          Row combined = ConcatRows(cols, i, shared.right_data[ri]);
          bool pass = true;
          for (const RexNodePtr& pred : shared.remaining) {
            CALCITE_ASSIGN_OR_RETURN(pass,
                                     RexInterpreter::EvalPredicate(pred, combined));
            if (!pass) break;
          }
          if (!pass) continue;
          matched = true;
          shared.right_matched[ri].store(true, std::memory_order_relaxed);
          if (JoinEmitsCombinedRows(shared.join_type)) {
            out->push_back(std::move(combined));
          }
          if (shared.join_type == JoinType::kSemi) break;
        }
      }
    }
    JoinEmitPerLeftRow(shared.join_type, matched, left_row, shared.right_width,
                       out);
  }
  return Status::OK();
}

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

/// Consumer-side tail of a RIGHT/FULL join: emitted after the gather
/// reports end-of-stream, i.e. after every probe worker has been joined
/// (which orders their matched-flag writes before these reads).
struct JoinTailState {
  bool in_tail = false;
  size_t pos = 0;
};

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
  shared->keys = std::move(keys);
  shared->remaining = std::move(remaining);
  shared->join_type = join.join_type();
  shared->left_width = join.input(0)->row_type()->fields().size();
  shared->right_width = join.input(1)->row_type()->fields().size();
  shared->partitions = threads;

  auto cancel = std::make_shared<QueryCancelState>();
  auto queue = std::make_shared<ExchangeQueue>(threads * 2, threads);
  auto start = [shared, cancel, queue, threads, batch_size,
                opts]() -> std::shared_ptr<TaskScheduler> {
    auto scheduler = std::make_shared<TaskScheduler>(threads);
    Status status = BuildPartitionedTable(shared.get(), scheduler.get(), opts);
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
                          ProbeBatch(*shared, cols, &scratch, &out));
                      PushChunks(&out, batch_size, queue.get());
                      return Status::OK();
                    });
        if (cancel->cancelled()) queue->Cancel();
        queue->ProducerDone();
      });
    }
    return scheduler;
  };

  RowBatchPuller gather = MakeGatherPuller(cancel, queue, std::move(start));
  auto tail = std::make_shared<JoinTailState>();
  return RowBatchPuller([gather, shared, tail,
                         batch_size]() -> Result<RowBatch> {
    if (!tail->in_tail) {
      auto batch = gather();
      if (!batch.ok()) return batch;
      if (!batch.value().empty()) return batch;
      tail->in_tail = true;
    }
    if (shared->join_type == JoinType::kRight ||
        shared->join_type == JoinType::kFull) {
      RowBatch out;
      while (tail->pos < shared->right_data.size() &&
             out.size() < batch_size) {
        size_t i = tail->pos++;
        if (!shared->right_matched[i].load(std::memory_order_relaxed)) {
          out.push_back(
              PadNullLeft(shared->left_width, shared->right_data[i]));
        }
      }
      if (!out.empty()) return out;
    }
    return RowBatch{};
  });
}

}  // namespace

std::optional<Result<RowBatchPuller>> TryExecuteParallel(
    const RelNode& node, const ExecOptions& raw_opts) {
  ExecOptions opts = raw_opts.Normalized();
  if (opts.num_threads < 2) return std::nullopt;

  if (const auto* agg = dynamic_cast<const Aggregate*>(&node)) {
    FragmentSource src;
    if (!RecognizeMorselPipeline(*agg->input(0), &src)) return std::nullopt;
    return ExecuteAggregateParallel(*agg, std::move(src), opts);
  }
  if (const auto* join = dynamic_cast<const Join*>(&node)) {
    std::vector<std::pair<int, int>> keys;
    std::vector<RexNodePtr> remaining;
    if (!join->AnalyzeEquiKeys(&keys, &remaining)) return std::nullopt;
    FragmentSource src;
    if (!RecognizeMorselPipeline(*join->input(0), &src)) return std::nullopt;
    return ExecuteHashJoinParallel(*join, std::move(keys),
                                   std::move(remaining), std::move(src), opts);
  }
  FragmentSource src;
  if (!RecognizeMorselPipeline(node, &src)) return std::nullopt;
  return ExecutePipelineParallel(std::move(src), opts);
}

}  // namespace calcite
