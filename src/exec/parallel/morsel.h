#ifndef CALCITE_EXEC_PARALLEL_MORSEL_H_
#define CALCITE_EXEC_PARALLEL_MORSEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <optional>

namespace calcite {

/// A morsel: one contiguous row range of a leaf scan, the unit of work a
/// parallel worker claims. Morsel-driven scheduling (after HyPer and Hive
/// LLAP) keeps load balanced without a planner-chosen partitioning: fast
/// workers simply claim more morsels.
struct Morsel {
  size_t begin;
  size_t end;  // exclusive

  size_t size() const { return end - begin; }
};

/// Rows per morsel by default. A morsel spans several batches so the
/// atomic claim is amortized, but stays small relative to a typical table
/// so the tail of a scan still spreads across workers.
inline constexpr size_t kDefaultMorselSize = 4096;

/// Rows per morsel for `total_rows` rows split across `num_threads`
/// workers: small enough that the tail of a scan still spreads across the
/// pool, large enough that the atomic claim amortizes.
inline size_t PickMorselSize(size_t total_rows, size_t num_threads) {
  size_t target = total_rows / (num_threads * 4);
  return std::min(kDefaultMorselSize, std::max<size_t>(256, target));
}

/// Splits the row range [0, total_rows) into morsels that workers claim
/// with a single atomic fetch-add — lock-free and contention-light. Claims
/// never overlap and jointly cover the range exactly; Next() returns
/// nullopt once the range is exhausted.
class MorselSource {
 public:
  MorselSource(size_t total_rows, size_t morsel_size = kDefaultMorselSize)
      : total_rows_(total_rows),
        morsel_size_(morsel_size == 0 ? 1 : morsel_size) {}

  /// Claims the next unclaimed morsel; thread-safe.
  std::optional<Morsel> Next() {
    size_t begin = next_.fetch_add(morsel_size_, std::memory_order_relaxed);
    if (begin >= total_rows_) return std::nullopt;
    return Morsel{begin, std::min(begin + morsel_size_, total_rows_)};
  }

  size_t total_rows() const { return total_rows_; }
  size_t morsel_size() const { return morsel_size_; }

 private:
  const size_t total_rows_;
  const size_t morsel_size_;
  std::atomic<size_t> next_{0};
};

}  // namespace calcite

#endif  // CALCITE_EXEC_PARALLEL_MORSEL_H_
