#ifndef CALCITE_ADAPTERS_ENUMERABLE_COLUMNAR_AGG_H_
#define CALCITE_ADAPTERS_ENUMERABLE_COLUMNAR_AGG_H_

#include <memory>
#include <vector>

#include "adapters/enumerable/aggregates.h"
#include "exec/column_batch.h"
#include "rel/rel_node.h"
#include "type/value.h"
#include "util/status.h"

namespace calcite {

/// The hash aggregate, shared by the serial operator (one builder) and the
/// parallel one (a builder per worker, merged): consumes ColumnBatches,
/// resolving group ids off hashed key columns and feeding the typed adders
/// of AggAccumulator without boxing non-NULL cells. Handles the global
/// (ungrouped) case and any number of group keys.
///
/// Groups follow Value equality: first-seen key order, numerically equal
/// ints and doubles unify (Int(2) and Double(2.0) land in one group), NULLs
/// form their own group, and so do all NaNs. Accumulator state is
/// bit-for-bit what the per-row Add() calls would have built (the parity
/// suites enforce this against a per-row oracle).
class ColumnarAggBuilder {
 public:
  /// `calls` are copied; the builder is self-contained after construction.
  static std::unique_ptr<ColumnarAggBuilder> Create(
      const std::vector<int>& group_keys,
      const std::vector<AggregateCall>& calls);

  ColumnarAggBuilder(const ColumnarAggBuilder&) = delete;
  ColumnarAggBuilder& operator=(const ColumnarAggBuilder&) = delete;

  /// Feeds the active rows of one batch. Must precede the first EmitBatch.
  Status Feed(const ColumnBatch& batch);

  /// Folds another builder's groups into this one (parallel merge step).
  /// Both builders must have been created with the same keys and calls,
  /// and neither may have emitted yet.
  Status MergeFrom(const ColumnarAggBuilder& other);

  /// Emits up to `batch_size` result rows (group key columns then one value
  /// per aggregate call, in first-seen group order). The first call
  /// finalizes: a global aggregate over empty input materializes its one
  /// row here. An empty batch means all groups have been emitted.
  RowBatch EmitBatch(size_t batch_size);

 private:
  ColumnarAggBuilder(std::vector<int> group_keys,
                     std::vector<AggregateCall> calls)
      : group_keys_(std::move(group_keys)), calls_(std::move(calls)) {}

  /// Appends a new group's accumulators and returns its id.
  uint32_t NewGroup();

  /// Resolves the group ids of `n` keys into gids[0, n), creating groups
  /// on a miss: key j has hash hashes[j] and cells cells_at(j) — one row of
  /// the key columns, or another builder's boxed key (see columnar_agg.cc).
  template <typename CellsAt>
  void ResolveKeys(size_t n, const uint64_t* hashes, const CellsAt& cells_at,
                   uint32_t* gids);

  /// Opens a group for key `cells` (hash `hash`) in the empty slot `slot`.
  template <typename Cells>
  uint32_t InsertGroup(uint64_t hash, const Cells& cells, size_t slot);

  /// True when every key cell of `cells` equals group `gid`'s.
  template <typename Cells>
  bool GroupMatches(uint32_t gid, const Cells& cells) const;

  void RehashSlots();

  /// Hashes the key cells of active rows [base, base + n) of `batch` into
  /// hashes_[0, n), folded across columns as HashRowKey64 folds cells, and
  /// images key column c's cells into cell_bits_/cell_types_[c * n, +n).
  void PrepareKeys(const ColumnBatch& batch, size_t base, size_t n);

  /// Resolves the group id of every active row of `batch` into gids_.
  void ResolveGroups(const ColumnBatch& batch);

  /// Feeds call `call_idx` for every active row of `batch`, using the group
  /// ids already resolved into gids_.
  Status FeedCall(const ColumnBatch& batch, size_t call_idx);

  std::vector<int> group_keys_;  // empty for a global aggregate
  std::vector<AggregateCall> calls_;

  // The group index: a flat open-addressing table (linear probing,
  // power-of-two capacity, gid_plus_1 == 0 marks an empty slot) keyed by
  // the HashRowKey64 hash of the group key. Batches probe it with hashes
  // precomputed column-at-a-time by HashColumn; MergeFrom probes it with
  // HashRowKey64 of the other builder's boxed keys. HashColumn and
  // HashValue64 agreeing on numerically-equal values is what lets a raw
  // double find a group opened by an int (and vice versa). Each slot
  // carries its group's first key image, so a single-key probe whose cell
  // bit-matches accepts without leaving the slot.
  struct HashSlot {
    uint64_t hash = 0;
    uint64_t bits0 = 0;
    uint32_t gid_plus_1 = 0;
    uint8_t type0 = 0;
  };
  std::vector<HashSlot> hash_slots_;
  size_t hash_count_ = 0;
  // Per-block scratch filled by PrepareKeys.
  std::vector<uint64_t> hashes_;
  std::vector<uint64_t> col_hashes_;
  std::vector<uint64_t> cell_bits_;
  std::vector<uint8_t> cell_types_;
  std::vector<const ColumnVector*> key_cols_;  // per-Feed key columns

  // Per group in first-seen order, row-major groups x keys: the boxed key
  // cells, and their bit images (see CellImage in columnar_agg.cc).
  std::vector<Value> key_values_;
  std::vector<uint64_t> key_bits_;
  std::vector<uint8_t> key_types_;
  size_t num_groups_ = 0;
  std::vector<AggAccumulator> accs_;  // groups x calls, row-major
  std::vector<uint32_t> gids_;        // per-Feed scratch
  size_t emit_pos_ = 0;
  bool finalized_ = false;
};

}  // namespace calcite

#endif  // CALCITE_ADAPTERS_ENUMERABLE_COLUMNAR_AGG_H_
