#include "metadata/table_stats_provider.h"

#include <algorithm>

#include "exec/column_batch.h"
#include "rel/core.h"
#include "rex/rex_util.h"
#include "schema/table_stats.h"

namespace calcite {

namespace {

/// The built-in fixed guesses (metadata.cc), keyed by pushed-predicate
/// shape — used for a pushed conjunct whose column lacks usable stats, so
/// a partially-analyzable conjunction still blends estimates per factor.
double DefaultGuess(ScanPredicate::Kind kind) {
  switch (kind) {
    case ScanPredicate::Kind::kEquals:
      return 0.15;
    case ScanPredicate::Kind::kNotEquals:
      return 0.85;
    case ScanPredicate::Kind::kIsNull:
      return 0.1;
    case ScanPredicate::Kind::kIsNotNull:
      return 0.9;
    default:
      return 0.5;  // range comparisons
  }
}

/// One pushed conjunct scored from its column's stats, or nullopt.
std::optional<double> Estimate(const TableStats& stats,
                               const ScanPredicate& pred) {
  const ColumnStats* column = stats.column(pred.column);
  return column ? EstimatePredicateSelectivity(*column, pred) : std::nullopt;
}

/// A lower and an upper bound on one column scored as one interval. Each
/// bound's estimate is its non-NULL fraction f times the non-NULL share s,
/// and the rows inside both bounds number max(0, f_lo + f_hi - 1) * s =
/// max(0, e_lo + e_hi - s). nullopt when either bound has no estimate.
std::optional<double> EstimateRange(const TableStats& stats,
                                    const FusedScanRange& range) {
  std::optional<double> lo = Estimate(stats, range.lower);
  std::optional<double> hi = Estimate(stats, range.upper);
  if (!lo.has_value() || !hi.has_value()) return std::nullopt;
  const double not_null = std::clamp(
      1.0 - stats.column(range.lower.column)->null_fraction, 0.0, 1.0);
  return std::max(0.0, *lo + *hi - not_null);
}

}  // namespace

std::optional<double> TableStatsProvider::Selectivity(
    const RelNodePtr& node, const RexNodePtr& predicate, MetadataQuery* mq) {
  if (predicate == nullptr) return std::nullopt;
  const auto* scan = dynamic_cast<const TableScan*>(node.get());
  if (scan == nullptr) return std::nullopt;
  TableStats stats = scan->table()->GetStatistic();
  if (!stats.analyzed()) return std::nullopt;

  const int width = static_cast<int>(stats.columns.size());
  ScanPredicateList pushed;
  std::vector<RexNodePtr> residual;
  ExtractScanPredicates(predicate, width, &pushed, &residual);
  if (pushed.empty()) return std::nullopt;

  // Conjunction under independence: product over the pushed factors (each
  // scored from its column's stats) times the residual factors (scored by
  // the MetadataQuery — this provider declines on them, so the built-in
  // guesses apply). A lower and an upper bound on the same column are not
  // independent: they pair up (as the columnar scan pairs them) and score
  // as one interval.
  std::vector<FusedScanRange> ranges;
  ScanPredicateList singles;
  FuseScanRanges(std::move(pushed), &ranges, &singles);
  bool any_estimated = false;
  double selectivity = 1.0;
  for (const FusedScanRange& range : ranges) {
    if (std::optional<double> estimate = EstimateRange(stats, range)) {
      any_estimated = true;
      selectivity *= *estimate;
    } else {
      singles.push_back(range.lower);
      singles.push_back(range.upper);
    }
  }
  for (const ScanPredicate& pred : singles) {
    std::optional<double> estimate = Estimate(stats, pred);
    if (estimate.has_value()) {
      any_estimated = true;
      selectivity *= *estimate;
    } else {
      selectivity *= DefaultGuess(pred.kind);
    }
  }
  if (!any_estimated) return std::nullopt;
  for (const RexNodePtr& conjunct : residual) {
    selectivity *= mq->Selectivity(node, conjunct);
  }
  return std::clamp(selectivity, 0.0, 1.0);
}

}  // namespace calcite
