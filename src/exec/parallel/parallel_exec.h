#ifndef CALCITE_EXEC_PARALLEL_PARALLEL_EXEC_H_
#define CALCITE_EXEC_PARALLEL_PARALLEL_EXEC_H_

#include <optional>

#include "exec/row_batch.h"
#include "rel/rel_node.h"

namespace calcite {

/// Entry point of the morsel-driven parallel executor. Called by the
/// enumerable convention's ExecuteBatched implementations before they build
/// their serial pipeline: when `opts.num_threads > 1` and the plan fragment
/// rooted at `node` has a parallel physical path, returns a RowBatchPuller
/// that runs it on a worker pool and gathers the results back into the
/// single-consumer pull protocol. Returns nullopt when the fragment stays
/// serial — either because num_threads is 1 (the serial path is then
/// byte-identical to the pre-parallel engine) or because the shape is not
/// parallelizable; the caller falls through to its serial pipeline, whose
/// *inputs* may still parallelize recursively.
///
/// Parallel physical paths:
///  - Morsel-driven pipelines: (Filter|Project)* over a TableScan or Values
///    leaf. Workers claim morsels of the leaf atomically — row ranges of a
///    columnar cache, or scan units (page runs) of a paged table, opened
///    with the bottom filter's pushed conjuncts — run the whole
///    filter/project chain morsel-at-a-time over ColumnBatches through
///    RexColumnar, box the survivors and exchange them to the consumer.
///    Tables with neither surface stay serial, and so does a pipeline whose
///    paged table answers the pushed conjuncts from its index
///    (Table::ScanUsesIndex under opts.access_path): the serial leaf takes
///    the same index, reading the same pages at every thread count.
///  - Partitioned hash aggregate: the same pipeline shape under an
///    Aggregate. Workers build thread-local hash-aggregation states over
///    their morsels; the consumer merges them (accumulator merge, not
///    re-aggregation) and emits the merged groups.
///  - Partitioned hash join: an equi-join whose probe (left) side is such a
///    pipeline. The build side is drained once, then partitioned and hashed
///    in parallel (each partition owned by one task — no locks); probe
///    workers stream left morsels against the read-only partition tables.
///    An index-resolved probe side is one morsel, so the build stays
///    parallel while the probe reads only the index range.
///
/// Ordering: fragments executed in parallel do not preserve row order —
/// workers race for morsels and the exchange interleaves their output. SQL
/// semantics are unaffected (ORDER BY sorts downstream of the fragment);
/// unordered query output may permute between runs.
///
/// Errors cancel the fragment: the first failing worker records its Status
/// in the fragment's QueryCancelState, every other worker stops at the next
/// morsel or exchange operation, and the gather puller surfaces that first
/// Status to the query.
std::optional<Result<RowBatchPuller>> TryExecuteParallel(
    const RelNode& node, const ExecOptions& opts);

}  // namespace calcite

#endif  // CALCITE_EXEC_PARALLEL_PARALLEL_EXEC_H_
