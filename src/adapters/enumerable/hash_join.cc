#include "adapters/enumerable/hash_join.h"

#include <cstdint>

#include "adapters/enumerable/enumerable_rels.h"
#include "exec/parallel/morsel.h"
#include "exec/parallel/task_scheduler.h"
#include "exec/simd.h"
#include "rex/rex_interpreter.h"

namespace calcite {

namespace {

/// The build-side join key of `row`, or an empty Row when any key column is
/// NULL (NULL keys never match; a real key is never empty).
Row BuildKey(const Row& row, const std::vector<std::pair<int, int>>& keys) {
  Row key;
  key.reserve(keys.size());
  for (const auto& [l, r] : keys) {
    (void)l;
    const Value& v = row[static_cast<size_t>(r)];
    if (v.IsNull()) return Row{};
    key.push_back(v);
  }
  return key;
}

/// Hashes `n` extracted join keys at once into out[0, n) (HashRowKey64
/// semantics). All-single-int64 blocks gather the raw keys into a scratch
/// column and hash in SIMD lanes; everything else hashes per row. An empty
/// Row is the "no key" sentinel — its hash slot is written arbitrarily and
/// must not be read.
void HashKeyBlock(const Row* keys, size_t n, uint64_t* out,
                  std::vector<int64_t>* i64_scratch) {
  bool single_int = n >= 8;
  if (single_int) {
    for (size_t j = 0; j < n; ++j) {
      if (keys[j].empty()) continue;
      if (keys[j].size() != 1 || !keys[j][0].is_int()) {
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
    simd::HashI64(i64_scratch->data(), n, out);
    return;
  }
  for (size_t j = 0; j < n; ++j) {
    if (!keys[j].empty()) out[j] = HashRowKey64(keys[j]);
  }
}

/// Runs task(0) .. task(n - 1): on `scheduler`'s workers when there is one
/// (returning once all have finished), else in order on this thread.
template <typename Task>
void RunTasks(TaskScheduler* scheduler, size_t n, const Task& task) {
  if (scheduler == nullptr) {
    for (size_t t = 0; t < n; ++t) task(t);
    return;
  }
  for (size_t t = 0; t < n; ++t) {
    scheduler->Submit([&task, t]() { task(t); });
  }
  scheduler->WaitIdle();
}

}  // namespace

Status JoinBuildRows::Drain(const RowBatchPuller& pull) {
  for (;;) {
    CALCITE_ASSIGN_OR_RETURN(RowBatch batch, pull());
    if (batch.empty()) break;
    for (Row& row : batch) rows_.push_back(std::move(row));
  }
  matched_ = std::make_unique<std::atomic<bool>[]>(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    matched_[i].store(false, std::memory_order_relaxed);
  }
  return Status::OK();
}

RowBatch JoinBuildRows::NextUnmatched(JoinType join_type, size_t left_width,
                                      size_t batch_size) {
  RowBatch out;
  if (join_type != JoinType::kRight && join_type != JoinType::kFull) {
    return out;
  }
  while (tail_pos_ < rows_.size() && out.size() < batch_size) {
    const size_t i = tail_pos_++;
    if (!matched_[i].load(std::memory_order_relaxed)) {
      out.push_back(PadNullLeft(left_width, rows_[i]));
    }
  }
  return out;
}

Status BuildHashJoinTable(const RowBatchPuller& build, size_t num_partitions,
                          TaskScheduler* scheduler, HashJoinTable* table) {
  CALCITE_RETURN_IF_ERROR(table->build.Drain(build));
  const std::vector<Row>& rows = table->build.rows();

  // Key pass: tasks claim morsels of the build rows and extract, hash and
  // place each row's key in its own slot. A NULL-keyed row gets no
  // partition: it never matches, and RIGHT/FULL joins emit it through the
  // unmatched tail.
  constexpr uint32_t kNoPartition = UINT32_MAX;
  const size_t n = rows.size();
  std::vector<Row> keys(n);
  std::vector<uint64_t> hashes(n);
  std::vector<uint32_t> partition_of(n);
  MorselSource morsels(n, PickMorselSize(n, num_partitions));
  RunTasks(scheduler, num_partitions, [&](size_t) {
    std::vector<int64_t> scratch;
    while (auto morsel = morsels.Next()) {
      for (size_t i = morsel->begin; i < morsel->end; ++i) {
        keys[i] = BuildKey(rows[i], table->keys);
      }
      HashKeyBlock(&keys[morsel->begin], morsel->size(),
                   &hashes[morsel->begin], &scratch);
      for (size_t i = morsel->begin; i < morsel->end; ++i) {
        partition_of[i] = keys[i].empty()
                              ? kNoPartition
                              : static_cast<uint32_t>(hashes[i] %
                                                      num_partitions);
      }
    }
  });

  // Insert pass: partition p is filled by exactly one task, which moves in
  // only its own rows' keys, in build-row order.
  table->partitions.resize(num_partitions);
  RunTasks(scheduler, num_partitions, [&](size_t p) {
    BuildPartition& part = table->partitions[p];
    for (size_t i = 0; i < n; ++i) {
      if (partition_of[i] != p) continue;
      part.index[hashes[i]].push_back(
          static_cast<uint32_t>(part.entries.size()));
      part.entries.emplace_back(std::move(keys[i]), i);
    }
  });
  return Status::OK();
}

Status ProbeBatch(const HashJoinTable& table, const ColumnBatch& cols,
                  ProbeScratch* scratch, RowBatch* out) {
  const size_t active = cols.ActiveCount();
  const std::vector<Row>& right_rows = table.build.rows();
  // An empty Row marks a NULL-keyed row that can never match.
  scratch->keys.resize(active);
  for (size_t k = 0; k < active; ++k) {
    const size_t i = cols.ActiveIndex(k);
    Row& key = scratch->keys[k];
    key.clear();
    for (const auto& [l, r] : table.keys) {
      (void)r;
      const ColumnVector& c = cols.cols[static_cast<size_t>(l)];
      if (c.IsNullAt(i)) {
        key.clear();
        break;
      }
      key.push_back(c.GetValue(i));
    }
  }
  scratch->hashes.resize(active);
  HashKeyBlock(scratch->keys.data(), active, scratch->hashes.data(),
               &scratch->i64);
  const size_t num_partitions = table.partitions.size();
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
      const BuildPartition& part = table.partitions[h % num_partitions];
      auto it = part.index.find(h);
      if (it != part.index.end()) {
        for (uint32_t eid : it->second) {
          if (!(part.entries[eid].first == key)) continue;  // collision
          const size_t ri = part.entries[eid].second;
          Row combined = ConcatRows(cols, i, right_rows[ri]);
          bool pass = true;
          for (const RexNodePtr& pred : table.remaining) {
            CALCITE_ASSIGN_OR_RETURN(
                pass, RexInterpreter::EvalPredicate(pred, combined));
            if (!pass) break;
          }
          if (!pass) continue;
          matched = true;
          table.build.MarkMatched(ri);
          if (JoinEmitsCombinedRows(table.join_type)) {
            out->push_back(std::move(combined));
          }
          if (table.join_type == JoinType::kSemi) break;
        }
      }
    }
    JoinEmitPerLeftRow(table.join_type, matched, left_row, table.right_width,
                       out);
  }
  return Status::OK();
}

}  // namespace calcite
