#ifndef CALCITE_ADAPTERS_ENUMERABLE_HASH_JOIN_H_
#define CALCITE_ADAPTERS_ENUMERABLE_HASH_JOIN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/column_batch.h"
#include "exec/row_batch.h"
#include "rel/rel_node.h"
#include "rex/rex_node.h"
#include "type/value.h"
#include "util/status.h"

namespace calcite {

class TaskScheduler;

/// The build (right) side rows of a join, plus one matched flag per row for
/// the RIGHT/FULL unmatched tail. Used by the hash join (serial and
/// parallel) and the nested-loop join. The flags are relaxed atomics
/// because parallel probe workers set them concurrently (only ever to
/// true); the tail reads them after every prober has finished.
class JoinBuildRows {
 public:
  /// Drains `pull` into rows() and clears every matched flag.
  Status Drain(const RowBatchPuller& pull);

  const std::vector<Row>& rows() const { return rows_; }

  void MarkMatched(size_t i) const {
    matched_[i].store(true, std::memory_order_relaxed);
  }

  /// The next <= `batch_size` never-matched build rows, NULL-padded on the
  /// left, in build order. Empty once exhausted, and always empty for join
  /// types other than RIGHT and FULL.
  RowBatch NextUnmatched(JoinType join_type, size_t left_width,
                         size_t batch_size);

 private:
  std::vector<Row> rows_;
  std::unique_ptr<std::atomic<bool>[]> matched_;
  size_t tail_pos_ = 0;
};

/// One partition of a hash join's build table: build entries in build-row
/// order plus a hash index over them. The index is keyed by the full
/// 64-bit key hash (HashRowKey64, computed in blocks on both build and
/// probe side); probes verify candidates with Row equality, so the hash
/// only routes. Each index list keeps build-row order.
struct BuildPartition {
  std::vector<std::pair<Row, size_t>> entries;  // (key, build row index)
  std::unordered_map<uint64_t, std::vector<uint32_t>> index;
};

/// The build side of an equi hash join: the drained build rows hashed into
/// partitions by key hash, plus what the probe needs to emit output. The
/// serial join uses one partition; the parallel join one per worker. Read
/// only once built, apart from the matched flags.
struct HashJoinTable {
  std::vector<std::pair<int, int>> keys;  // (left column, right column)
  std::vector<RexNodePtr> remaining;      // residual non-equi conjuncts
  JoinType join_type = JoinType::kInner;
  size_t right_width = 0;
  JoinBuildRows build;
  std::vector<BuildPartition> partitions;
};

/// Drains `build` into `table->build` and hashes its rows into
/// `num_partitions` partitions. With a scheduler, keys are extracted and
/// hashed by `num_partitions` tasks claiming morsels of the build rows,
/// then every partition is filled by its own task — no two tasks touch one
/// partition, so the build is lock-free. Without one, both passes run on
/// the calling thread. Rows with a NULL key are left out of the index;
/// RIGHT/FULL joins emit them through the unmatched tail.
Status BuildHashJoinTable(const RowBatchPuller& build, size_t num_partitions,
                          TaskScheduler* scheduler, HashJoinTable* table);

/// A prober's buffers, reused batch to batch.
struct ProbeScratch {
  std::vector<Row> keys;
  std::vector<uint64_t> hashes;
  std::vector<int64_t> i64;
};

/// Probes the live rows of one left batch against `table` and appends the
/// output per the join type to `out`: for each left row in batch order, its
/// matches in build order, then its per-left-row emission (outer padding,
/// SEMI, ANTI). Join keys are read straight off the key columns and hashed
/// in one block; the full left row is boxed only when the row emits
/// output. Safe to call from several threads at once.
Status ProbeBatch(const HashJoinTable& table, const ColumnBatch& cols,
                  ProbeScratch* scratch, RowBatch* out);

}  // namespace calcite

#endif  // CALCITE_ADAPTERS_ENUMERABLE_HASH_JOIN_H_
