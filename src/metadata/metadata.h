#ifndef CALCITE_METADATA_METADATA_H_
#define CALCITE_METADATA_METADATA_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "plan/traits.h"
#include "rel/rel_node.h"
#include "rex/rex_node.h"

namespace calcite {

class Join;
class MetadataQuery;

/// A pluggable metadata provider (§6: "Calcite provides interfaces that
/// allow data processing systems to plug their metadata information into the
/// framework"). Providers are consulted in registration order; the first
/// non-nullopt answer wins, falling back to the built-in default provider.
class MetadataProvider {
 public:
  virtual ~MetadataProvider() = default;

  /// Estimated number of rows produced by `node`.
  virtual std::optional<double> RowCount(const RelNodePtr&, MetadataQuery*) {
    return std::nullopt;
  }

  /// Cost of executing `node` itself, excluding its inputs.
  virtual std::optional<RelOptCost> NonCumulativeCost(const RelNodePtr&,
                                                      MetadataQuery*) {
    return std::nullopt;
  }

  /// Fraction of input rows that satisfy `predicate` at `node`.
  virtual std::optional<double> Selectivity(const RelNodePtr&,
                                            const RexNodePtr&,
                                            MetadataQuery*) {
    return std::nullopt;
  }

  /// Whether the given output columns are unique in `node`'s output.
  virtual std::optional<bool> AreColumnsUnique(const RelNodePtr&,
                                               const std::vector<int>&,
                                               MetadataQuery*) {
    return std::nullopt;
  }

  /// Average byte width of one output row.
  virtual std::optional<double> AverageRowSize(const RelNodePtr&,
                                               MetadataQuery*) {
    return std::nullopt;
  }
};

/// The optimizer's window onto plan metadata (§6 "Metadata providers"): row
/// counts, costs, selectivities, uniqueness, sizes. Results are memoized in
/// a cache keyed by (node, metadata kind, argument); the paper calls out
/// that this cache "yields significant performance improvements, e.g., when
/// we need to compute multiple types of metadata such as cardinality,
/// average row size, and selectivity for a given join, and all these
/// computations rely on the cardinality of their inputs" — reproduced by
/// bench_metadata_cache.
class MetadataQuery {
 public:
  /// Registers the built-in statistics-backed provider
  /// (metadata/table_stats_provider.h), so ANALYZE results feed every
  /// MetadataQuery automatically. Custom providers added afterwards take
  /// precedence over it.
  MetadataQuery();

  /// Registers a custom provider; later registrations take precedence.
  void AddProvider(std::shared_ptr<MetadataProvider> provider);

  /// Enables/disables memoization (on by default). Disabling also clears.
  void SetCacheEnabled(bool enabled);
  bool cache_enabled() const { return cache_enabled_; }

  /// Clears memoized results and releases the nodes they pinned (call when
  /// the plan graph changes identity).
  void ClearCache();

  /// Estimated output cardinality of `node`.
  double RowCount(const RelNodePtr& node);

  /// Cost of `node` itself (excluding inputs), already scaled by its
  /// convention's cost factor. Logical-convention operators are not
  /// executable and report infinite cost.
  RelOptCost NonCumulativeCost(const RelNodePtr& node);

  /// Cost of the whole subtree rooted at `node`.
  RelOptCost CumulativeCost(const RelNodePtr& node);

  /// Estimated fraction of `node`'s rows satisfying `predicate`
  /// (1.0 for null predicate).
  double Selectivity(const RelNodePtr& node, const RexNodePtr& predicate);

  /// True if the given columns form a unique key of `node`'s output.
  bool AreColumnsUnique(const RelNodePtr& node,
                        const std::vector<int>& columns);

  /// Average output row width in bytes.
  double AverageRowSize(const RelNodePtr& node);

  /// Estimated number of distinct non-NULL value combinations of `columns`
  /// in `node`'s output (Calcite's getDistinctRowCount), or nullopt when
  /// nothing is known: no unique key covers the columns and they do not
  /// trace back to ANALYZEd table columns.
  std::optional<double> DistinctRowCount(const RelNodePtr& node,
                                         const std::vector<int>& columns);

  /// Number of underlying (uncached) metadata computations performed; used
  /// by tests and the cache benchmark.
  int64_t computation_count() const { return computation_count_; }

 private:
  friend class DefaultMetadata;

  double ComputeRowCount(const RelNodePtr& node);
  RelOptCost ComputeNonCumulativeCost(const RelNodePtr& node);
  double ComputeSelectivity(const RelNodePtr& node,
                            const RexNodePtr& predicate);
  bool ComputeAreColumnsUnique(const RelNodePtr& node,
                               const std::vector<int>& columns);
  double ComputeAverageRowSize(const RelNodePtr& node);
  std::optional<double> ComputeDistinctRowCount(
      const RelNodePtr& node, const std::vector<int>& columns);
  /// Equi-join output size before residual conjuncts: |L|·|R| over the
  /// larger key distinct count, capped by a unique key on either side.
  double EquiJoinRowCount(const Join& join,
                          const std::vector<std::pair<int, int>>& keys);

  std::vector<std::shared_ptr<MetadataProvider>> providers_;
  bool cache_enabled_ = true;
  int64_t computation_count_ = 0;

  std::unordered_map<const RelNode*, double> row_count_cache_;
  std::unordered_map<const RelNode*, RelOptCost> cost_cache_;
  std::unordered_map<const RelNode*, RelOptCost> cumulative_cost_cache_;
  std::unordered_map<std::string, double> selectivity_cache_;
  std::unordered_map<std::string, bool> unique_cache_;
  std::unordered_map<const RelNode*, double> row_size_cache_;
  std::unordered_map<std::string, std::optional<double>> distinct_cache_;
  /// Every node with a cached answer, kept alive until ClearCache: the
  /// caches key on node addresses, so a node freed mid-phase would hand
  /// its answers to the next node allocated at its address.
  std::vector<RelNodePtr> pinned_;
};

}  // namespace calcite

#endif  // CALCITE_METADATA_METADATA_H_
