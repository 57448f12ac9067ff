#ifndef CALCITE_PLAN_VOLCANO_PLANNER_H_
#define CALCITE_PLAN_VOLCANO_PLANNER_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "plan/rule.h"
#include "rel/rel_node.h"
#include "util/status.h"

namespace calcite {

/// The cost-based planner engine (§6): a dynamic-programming search in the
/// style of Volcano/Cascades. "Initially, each expression is registered with
/// the planner, together with a digest based on the expression attributes
/// and its inputs. When a rule is fired on an expression e1 and the rule
/// produces a new expression e2, the planner will add e2 to the set of
/// equivalence expressions Sa that e1 belongs to. ... If a similar digest
/// associated with an expression e3 that belongs to a set Sb is found, the
/// planner has found a duplicate and hence will merge Sa and Sb."
///
/// The search terminates at a configurable fix point: either (i) exhaustive
/// — all rules applied to all expressions — or (ii) a heuristic stop when
/// the best plan cost has not improved by more than a threshold δ over the
/// last iterations.
class VolcanoPlanner {
 public:
  struct Options {
    /// Fixpoint mode (i): explore until the rule queue is drained.
    bool exhaustive = true;
    /// Fixpoint mode (ii): when not exhaustive, stop once the relative cost
    /// improvement of the best root plan over the last `delta_window` rule
    /// firings drops below this δ.
    double cost_improvement_delta = 0.01;
    int delta_window = 50;
    /// Hard safety bound on rule firings.
    int max_firings = 500000;
    /// Max member expressions per child set enumerated when binding
    /// concrete children for structural rules.
    int max_binding_exprs = 24;
  };

  VolcanoPlanner(std::vector<RelOptRulePtr> rules, PlannerContext* context);
  VolcanoPlanner(std::vector<RelOptRulePtr> rules, PlannerContext* context,
                 Options options);
  ~VolcanoPlanner();

  VolcanoPlanner(const VolcanoPlanner&) = delete;
  VolcanoPlanner& operator=(const VolcanoPlanner&) = delete;

  /// Runs the search: registers `root`, fires rules to fixpoint, and
  /// extracts the cheapest plan whose traits satisfy `required`.
  Result<RelNodePtr> Optimize(const RelNodePtr& root,
                              const RelTraitSet& required);

  /// Cost of the plan returned by the last Optimize() call.
  const RelOptCost& best_cost() const { return best_cost_; }

  int rule_fire_count() const { return rule_fire_count_; }
  int set_count() const;
  int expr_count() const { return static_cast<int>(expr_count_); }

 private:
  struct RelSet {
    int id = 0;
    int parent = -1;  // union-find
    std::vector<RelNodePtr> exprs;
    RelDataTypePtr row_type;
    /// Parent expressions referencing this set (for rule re-firing).
    std::vector<RelNodePtr> parent_exprs;
  };

  class SubsetRef;

  int Find(int set_id) const;
  RelSet& MutableSet(int set_id);

  /// Registers an expression (recursively registering children) and returns
  /// its set id. `target_set` (-1 for none) forces membership.
  Result<int> Register(const RelNodePtr& node, int target_set, int depth);

  /// Returns the canonical subset placeholder for (set, traits).
  RelNodePtr GetSubset(int set_id, const RelTraitSet& traits);

  void MergeSets(int a, int b);
  void RebuildDigests();

  void QueueMatches(const RelNodePtr& expr, int set_id);
  void FireRule(const RelOptRulePtr& rule, const RelNodePtr& expr,
                int set_id);

  /// Best cumulative cost of any expression in `set_id` satisfying
  /// `traits`.
  RelOptCost BestCost(int set_id, const RelTraitSet& traits,
                      std::unordered_set<std::string>* visiting);
  /// Extracts the cheapest concrete plan for (set, traits).
  Result<RelNodePtr> BuildBest(int set_id, const RelTraitSet& traits);

  std::string CostKey(int set_id, const RelTraitSet& traits) const;

  std::vector<RelOptRulePtr> rules_;
  PlannerContext* context_;
  Options options_;

  std::vector<std::unique_ptr<RelSet>> sets_;
  /// digest -> (expr, set id)
  std::unordered_map<std::string, std::pair<RelNodePtr, int>> digest_map_;
  /// Fired (rule, binding) signatures, to avoid duplicate work.
  std::unordered_set<std::string> fired_;
  /// Canonical subset nodes: key = CostKey.
  std::unordered_map<std::string, RelNodePtr> subsets_;

  struct QueueEntry {
    RelOptRulePtr rule;
    RelNodePtr expr;
    int set_id;
  };
  std::deque<QueueEntry> queue_;

  std::unordered_map<std::string, RelOptCost> best_cost_cache_;
  /// Reverse lookup: registered expression -> owning set.
  std::unordered_map<const RelNode*, int> expr_set_;
  /// Cycle guard for row-count queries across subset placeholders.
  std::unordered_set<int> row_count_guard_;
  /// Cycle guard for distinct-count queries across subset placeholders.
  std::unordered_set<int> distinct_guard_;
  /// Set from the CALCITE_TRACE environment variable: logs rule firings.
  bool trace_ = false;
  RelOptCost best_cost_ = RelOptCost::Infinite();
  int rule_fire_count_ = 0;
  size_t expr_count_ = 0;
  int root_set_ = -1;
  RelTraitSet root_traits_;
};

}  // namespace calcite

#endif  // CALCITE_PLAN_VOLCANO_PLANNER_H_
