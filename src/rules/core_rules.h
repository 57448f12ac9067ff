#ifndef CALCITE_RULES_CORE_RULES_H_
#define CALCITE_RULES_CORE_RULES_H_

#include <string>
#include <vector>

#include "plan/rule.h"
#include "rel/core.h"

namespace calcite {

/// The built-in logical transformation rules (§6). Calcite ships several
/// hundred; this library implements a representative, fully-functional set
/// covering the classes the paper discusses: predicate push-down
/// (FilterIntoJoinRule — Figure 4), operator merging and transposition,
/// expression reduction (constant folding), empty-input pruning, and
/// join-order exploration.

/// Figure 4's rule: "matches a filter node with a join node as a [child] and
/// checks if the filter can be performed by the join". Conjuncts referencing
/// only the left (right) side move below the join; cross-side conjuncts join
/// the join condition (inner joins).
RelOptRulePtr MakeFilterIntoJoinRule();

/// Calcite's FilterJoinRule.JoinConditionPushRule: ON conjuncts that
/// reference one input only become a Filter on that input. INNER joins push
/// both sides; an outer join pushes only into its null-producing side
/// (LEFT: right-only conjuncts, RIGHT: left-only ones), since a conjunct
/// over the preserved side decides padding, not membership. FULL, SEMI and
/// ANTI joins are left as they are.
RelOptRulePtr MakeJoinConditionPushRule();

/// Filter(Filter(x)) => Filter(x, c1 AND c2).
RelOptRulePtr MakeFilterMergeRule();

/// Filter(Project(x)) => Project(Filter(x)) — pushes predicates through
/// projections by inlining the projected expressions.
RelOptRulePtr MakeFilterProjectTransposeRule();

/// Filter(Aggregate(x)) => Aggregate(Filter(x)) when the predicate only
/// references group keys.
RelOptRulePtr MakeFilterAggregateTransposeRule();

/// Filter(Union(a, b, ...)) => Union(Filter(a), Filter(b), ...).
RelOptRulePtr MakeFilterSetOpTransposeRule();

/// Project(Project(x)) => Project(x) with composed expressions.
RelOptRulePtr MakeProjectMergeRule();

/// Removes identity projections.
RelOptRulePtr MakeProjectRemoveRule();

/// Constant-folds and simplifies expressions in Filter/Project/Join;
/// replaces always-false filters with empty Values.
RelOptRulePtr MakeReduceExpressionsRule();

/// Collapses operators over empty inputs (empty Values propagation) and
/// LIMIT 0.
RelOptRulePtr MakePruneEmptyRule();

/// Union(Union(a, b), c) => Union(a, b, c) for same ALL mode.
RelOptRulePtr MakeUnionMergeRule();

/// Removes sorts with no collation and no OFFSET/FETCH, and redundant
/// sorts directly under another sort.
RelOptRulePtr MakeSortRemoveRule();

/// Removes aggregates whose group keys are already unique and that compute
/// no aggregate functions (uses the AreColumnsUnique metadata — an example
/// of "providing information to the rules while they are being applied").
RelOptRulePtr MakeAggregateRemoveRule();

/// Join(a, b) => Join(b, a) with a restoring projection (inner joins).
RelOptRulePtr MakeJoinCommuteRule();

/// The pieces of Join(a, b) => Project(Join(b, a)), shared by
/// JoinCommuteRule and the enumerable join rule's build-side choice.
struct SwappedJoin {
  /// The condition over the swapped (b, a) field space.
  RexNodePtr condition;
  /// LEFT and RIGHT trade places; INNER and FULL stay.
  JoinType join_type;
  /// Row type of Join(b, a).
  RelDataTypePtr row_type;
  /// Input references over `row_type` that restore the original field
  /// order, and the original field names.
  std::vector<RexNodePtr> restore;
  std::vector<std::string> names;
};

/// Swaps `join`'s inputs. SEMI and ANTI joins emit only their left input
/// and cannot be swapped; the caller must not pass one.
SwappedJoin SwapJoin(const Join& join, const RexBuilder& rex);

/// Join(Join(a, b), c) => Join(a, Join(b, c)) when the predicates allow
/// (inner joins). Together with commute, spans the join-order space the
/// dynamic-programming planner explores.
RelOptRulePtr MakeJoinAssociateRule();

/// The standard, always-terminating logical rewrite set used by the
/// heuristic phase (no commute/associate).
std::vector<RelOptRulePtr> StandardLogicalRules();

/// Join-order exploration rules for the cost-based phase.
std::vector<RelOptRulePtr> JoinReorderRules();

}  // namespace calcite

#endif  // CALCITE_RULES_CORE_RULES_H_
