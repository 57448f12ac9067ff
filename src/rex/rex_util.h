#ifndef CALCITE_REX_REX_UTIL_H_
#define CALCITE_REX_REX_UTIL_H_

#include <set>
#include <vector>

#include "exec/row_batch.h"
#include "rex/rex_builder.h"
#include "rex/rex_node.h"

namespace calcite {

/// Static analysis and rewriting helpers over row expressions; the C++
/// equivalent of Calcite's RexUtil. Used heavily by planner rules
/// (FilterIntoJoinRule splits conjunctions and classifies them by the side
/// of the join they reference).
class RexUtil {
 public:
  /// Splits a predicate into its top-level conjuncts (flattening nested
  /// ANDs). A TRUE literal produces an empty list.
  static std::vector<RexNodePtr> FlattenAnd(const RexNodePtr& node);

  /// Conjoins predicates (inverse of FlattenAnd).
  static RexNodePtr ComposeConjunction(const RexBuilder& builder,
                                       std::vector<RexNodePtr> conjuncts);

  /// Collects the indexes of all input fields referenced by `node`.
  static std::set<int> InputRefs(const RexNodePtr& node);

  /// True if every input reference in `node` falls in [lower, upper).
  static bool AllRefsInRange(const RexNodePtr& node, int lower, int upper);

  /// Rewrites input references by adding `offset` to each index (used when
  /// predicates move across a join: right-side refs shift by the left field
  /// count).
  static RexNodePtr ShiftRefs(const RexNodePtr& node, int offset);

  /// Rewrites input references through a field mapping: each $i becomes
  /// $mapping[i]. Indexes not present map unchanged. Used when pushing
  /// expressions through projections.
  static RexNodePtr RemapRefs(const RexNodePtr& node,
                              const std::vector<int>& mapping);

  /// Replaces each input reference $i by the expression exprs[i] (inlining
  /// through a projection).
  static RexNodePtr ReplaceRefs(const RexNodePtr& node,
                                const std::vector<RexNodePtr>& exprs);

  /// True if the expression contains no input references (evaluable at plan
  /// time given deterministic operators).
  static bool IsConstant(const RexNodePtr& node);

  /// True if the expression is a TRUE literal.
  static bool IsLiteralTrue(const RexNodePtr& node);

  /// True if the expression is a FALSE literal.
  static bool IsLiteralFalse(const RexNodePtr& node);

  /// Structural equality of two expressions (compares digests).
  static bool Equal(const RexNodePtr& a, const RexNodePtr& b);

  /// True if the projection expressions are exactly $0..$n-1 of an input
  /// with `input_field_count` fields — i.e. the projection is the identity.
  static bool IsIdentity(const std::vector<RexNodePtr>& exprs,
                         int input_field_count);
};

/// Splits a filter condition into leaf-pushable scan predicates and a
/// residual. Flattens the top-level conjunction and extracts every conjunct
/// of the shapes `$col <op> literal`, `literal <op> $col` (comparison
/// flipped), `$col IS [NOT] NULL` and `$col BETWEEN literal AND literal`
/// (pushed as `$col >= lo` and `$col <= hi`) — with $col a direct input
/// reference below scan_width — into `pushed`; everything else (NOT
/// BETWEEN, a non-literal bound, an expression operand) lands in
/// `residual`.
/// Returns true if anything was pushed. Shared by the batch filter pipeline
/// (pushdown into Table scans) and the statistics-backed selectivity
/// estimator (metadata/table_stats_provider.h), so both agree on exactly
/// which predicate shapes the stats can see.
bool ExtractScanPredicates(const RexNodePtr& condition, int scan_width,
                           ScanPredicateList* pushed,
                           std::vector<RexNodePtr>* residual);

/// Monotonicity of an expression with respect to the input's sort order —
/// needed to validate streaming window queries (§7.2: "streaming queries
/// involving window aggregates require the presence of monotonic or
/// quasi-monotonic expressions in the GROUP BY clause").
enum class Monotonicity {
  kIncreasing,
  kDecreasing,
  kConstant,
  kNotMonotonic,
};

/// Derives the monotonicity of `node` given the set of input columns known
/// to be (strictly or weakly) increasing — e.g. a stream's rowtime column.
/// TUMBLE/HOP/SESSION of a monotonic timestamp are monotonic; so are CAST,
/// FLOOR/CEIL and +/- of a monotonic expression with a constant.
Monotonicity DeriveMonotonicity(const RexNodePtr& node,
                                const std::set<int>& increasing_inputs);

}  // namespace calcite

#endif  // CALCITE_REX_REX_UTIL_H_
