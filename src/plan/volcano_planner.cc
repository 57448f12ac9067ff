#include "plan/volcano_planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace calcite {

/// Placeholder standing for "any expression of equivalence set N with the
/// given traits". Parents reference children through subsets, so a single
/// registered expression summarizes the whole group of alternatives (§6).
class VolcanoPlanner::SubsetRef final : public RelNode {
 public:
  SubsetRef(VolcanoPlanner* planner, int set_id, RelTraitSet traits,
            RelDataTypePtr row_type)
      : RelNode(std::move(traits), std::move(row_type), {}),
        planner_(planner),
        set_id_(set_id) {}

  int set_id() const { return set_id_; }

  std::string op_name() const override { return "Subset"; }

  std::string DigestAttributes() const override {
    return "set=" + std::to_string(planner_->Find(set_id_));
  }

  RelNodePtr Copy(RelTraitSet traits,
                  std::vector<RelNodePtr> inputs) const override {
    (void)inputs;
    return std::make_shared<SubsetRef>(planner_, set_id_, std::move(traits),
                                       row_type());
  }

  std::optional<double> SelfRowCount(MetadataQuery* mq) const override {
    int root = planner_->Find(set_id_);
    // Guard against cyclic sets (merges can create self-references).
    if (!planner_->row_count_guard_.insert(root).second) return 100.0;
    const RelSet& set = *planner_->sets_[static_cast<size_t>(root)];
    double result = 100.0;
    if (!set.exprs.empty()) result = mq->RowCount(set.exprs.front());
    planner_->row_count_guard_.erase(root);
    return result;
  }

  std::optional<bool> SelfColumnsUnique(
      MetadataQuery* mq, const std::vector<int>& columns) const override {
    int root = planner_->Find(set_id_);
    if (!planner_->row_count_guard_.insert(~root).second) return false;
    const RelSet& set = *planner_->sets_[static_cast<size_t>(root)];
    bool result = false;
    if (!set.exprs.empty()) {
      result = mq->AreColumnsUnique(set.exprs.front(), columns);
    }
    planner_->row_count_guard_.erase(~root);
    return result;
  }

  std::optional<double> SelfDistinctRowCount(
      MetadataQuery* mq, const std::vector<int>& columns) const override {
    int root = planner_->Find(set_id_);
    if (!planner_->distinct_guard_.insert(root).second) return std::nullopt;
    const RelSet& set = *planner_->sets_[static_cast<size_t>(root)];
    std::optional<double> result;
    if (!set.exprs.empty()) {
      result = mq->DistinctRowCount(set.exprs.front(), columns);
    }
    planner_->distinct_guard_.erase(root);
    return result;
  }

 private:
  VolcanoPlanner* planner_;
  int set_id_;
};

VolcanoPlanner::VolcanoPlanner(std::vector<RelOptRulePtr> rules,
                               PlannerContext* context)
    : VolcanoPlanner(std::move(rules), context, Options{}) {}

VolcanoPlanner::VolcanoPlanner(std::vector<RelOptRulePtr> rules,
                               PlannerContext* context, Options options)
    : rules_(std::move(rules)), context_(context), options_(options) {
  trace_ = std::getenv("CALCITE_TRACE") != nullptr;
}

VolcanoPlanner::~VolcanoPlanner() = default;

int VolcanoPlanner::Find(int set_id) const {
  while (sets_[static_cast<size_t>(set_id)]->parent >= 0) {
    set_id = sets_[static_cast<size_t>(set_id)]->parent;
  }
  return set_id;
}

VolcanoPlanner::RelSet& VolcanoPlanner::MutableSet(int set_id) {
  return *sets_[static_cast<size_t>(Find(set_id))];
}

int VolcanoPlanner::set_count() const {
  int count = 0;
  for (const auto& set : sets_) {
    if (set->parent < 0) ++count;
  }
  return count;
}

RelNodePtr VolcanoPlanner::GetSubset(int set_id, const RelTraitSet& traits) {
  int root = Find(set_id);
  std::string key = CostKey(root, traits);
  auto it = subsets_.find(key);
  if (it != subsets_.end()) return it->second;
  auto subset = std::make_shared<SubsetRef>(
      this, root, traits, sets_[static_cast<size_t>(root)]->row_type);
  subsets_[key] = subset;
  return subset;
}

std::string VolcanoPlanner::CostKey(int set_id,
                                    const RelTraitSet& traits) const {
  return std::to_string(Find(set_id)) + "|" + traits.ToString();
}

Result<int> VolcanoPlanner::Register(const RelNodePtr& node, int target_set,
                                     int depth) {
  if (depth > 4096) {
    return Status::PlanError("registration recursion limit exceeded");
  }
  if (const auto* subset = dynamic_cast<const SubsetRef*>(node.get())) {
    int found = Find(subset->set_id());
    if (target_set >= 0 && Find(target_set) != found) {
      MergeSets(found, Find(target_set));
      return Find(found);
    }
    return found;
  }

  // Normalize children to canonical subset placeholders.
  std::vector<RelNodePtr> new_inputs;
  new_inputs.reserve(node->inputs().size());
  bool changed = false;
  for (const RelNodePtr& input : node->inputs()) {
    if (const auto* child_subset =
            dynamic_cast<const SubsetRef*>(input.get())) {
      // Canonicalize (the set may have been merged since creation).
      RelNodePtr canonical =
          GetSubset(child_subset->set_id(), input->traits());
      changed = changed || canonical.get() != input.get();
      new_inputs.push_back(std::move(canonical));
      continue;
    }
    auto child_set = Register(input, -1, depth + 1);
    if (!child_set.ok()) return child_set;
    RelNodePtr subset = GetSubset(child_set.value(), input->traits());
    new_inputs.push_back(std::move(subset));
    changed = true;
  }
  RelNodePtr expr =
      changed ? node->CopyWithNewInputs(std::move(new_inputs)) : node;

  std::string digest = expr->Digest();
  auto it = digest_map_.find(digest);
  if (it != digest_map_.end()) {
    int existing = Find(it->second.second);
    if (target_set >= 0 && Find(target_set) != existing) {
      MergeSets(existing, Find(target_set));
    }
    return Find(existing);
  }

  int set_id;
  if (target_set >= 0) {
    set_id = Find(target_set);
  } else {
    set_id = static_cast<int>(sets_.size());
    auto set = std::make_unique<RelSet>();
    set->id = set_id;
    set->row_type = expr->row_type();
    sets_.push_back(std::move(set));
  }
  RelSet& set = MutableSet(set_id);
  set.exprs.push_back(expr);
  ++expr_count_;
  digest_map_[digest] = {expr, set_id};
  expr_set_[expr.get()] = set_id;

  // Track parent links for rule re-firing when child sets grow.
  for (const RelNodePtr& input : expr->inputs()) {
    if (const auto* child_subset =
            dynamic_cast<const SubsetRef*>(input.get())) {
      MutableSet(child_subset->set_id()).parent_exprs.push_back(expr);
    }
  }

  QueueMatches(expr, set_id);

  // Re-fire rules of parents: a new member may enable new child bindings.
  for (const RelNodePtr& parent : set.parent_exprs) {
    auto pit = expr_set_.find(parent.get());
    if (pit != expr_set_.end()) QueueMatches(parent, pit->second);
  }
  return set_id;
}

void VolcanoPlanner::MergeSets(int a, int b) {
  a = Find(a);
  b = Find(b);
  if (a == b) return;
  // Keep the smaller id as root (stable digests for early sets).
  if (b < a) std::swap(a, b);
  RelSet& loser = *sets_[static_cast<size_t>(b)];
  RelSet& winner = *sets_[static_cast<size_t>(a)];
  loser.parent = a;
  for (RelNodePtr& expr : loser.exprs) {
    winner.exprs.push_back(expr);
    expr_set_[expr.get()] = a;
    QueueMatches(expr, a);
  }
  loser.exprs.clear();
  for (RelNodePtr& parent : loser.parent_exprs) {
    winner.parent_exprs.push_back(std::move(parent));
  }
  loser.parent_exprs.clear();
  RebuildDigests();
  best_cost_cache_.clear();
}

void VolcanoPlanner::RebuildDigests() {
  // Subset digests resolve through Find(), so after a merge every expression
  // referencing the losing set changes digest. Rebuild the map and fold any
  // resulting duplicates (which may cascade into further merges).
  while (true) {
    digest_map_.clear();
    std::vector<std::pair<int, int>> pending_merges;
    for (const auto& set : sets_) {
      if (set->parent >= 0) continue;
      for (const RelNodePtr& expr : set->exprs) {
        std::string digest = expr->Digest();
        auto it = digest_map_.find(digest);
        if (it == digest_map_.end()) {
          digest_map_[digest] = {expr, set->id};
        } else if (Find(it->second.second) != Find(set->id)) {
          pending_merges.push_back({Find(it->second.second), Find(set->id)});
        }
      }
    }
    if (pending_merges.empty()) break;
    // Apply the first merge and loop (MergeSets itself calls back here, so
    // apply without recursion by inlining the link step).
    int a = Find(pending_merges[0].first);
    int b = Find(pending_merges[0].second);
    if (a == b) continue;
    if (b < a) std::swap(a, b);
    RelSet& loser = *sets_[static_cast<size_t>(b)];
    RelSet& winner = *sets_[static_cast<size_t>(a)];
    loser.parent = a;
    for (RelNodePtr& expr : loser.exprs) {
      winner.exprs.push_back(expr);
      expr_set_[expr.get()] = a;
      QueueMatches(expr, a);
    }
    loser.exprs.clear();
    for (RelNodePtr& parent : loser.parent_exprs) {
      winner.parent_exprs.push_back(std::move(parent));
    }
    loser.parent_exprs.clear();
  }
}

void VolcanoPlanner::QueueMatches(const RelNodePtr& expr, int set_id) {
  for (const RelOptRulePtr& rule : rules_) {
    if (!rule->MatchesRoot(*expr)) continue;
    queue_.push_back({rule, expr, set_id});
  }
}

void VolcanoPlanner::FireRule(const RelOptRulePtr& rule,
                              const RelNodePtr& expr, int set_id) {
  set_id = Find(set_id);

  auto convert_fn = [this](const RelNodePtr& node,
                           const RelTraitSet& traits) -> RelNodePtr {
    if (const auto* subset = dynamic_cast<const SubsetRef*>(node.get())) {
      return GetSubset(subset->set_id(), traits);
    }
    auto set = Register(node, -1, 0);
    if (!set.ok()) return nullptr;
    return GetSubset(set.value(), traits);
  };

  std::vector<RelNodePtr> bindings;
  if (!rule->NeedsConcreteChildren() || expr->num_inputs() == 0) {
    std::string key = rule->name() + "/" +
                      std::to_string(reinterpret_cast<uintptr_t>(expr.get()));
    if (!fired_.insert(key).second) return;
    bindings.push_back(expr);
  } else {
    // Enumerate concrete child combinations from the child sets.
    std::vector<std::vector<RelNodePtr>> child_candidates;
    child_candidates.reserve(static_cast<size_t>(expr->num_inputs()));
    for (int i = 0; i < expr->num_inputs(); ++i) {
      const auto* subset =
          dynamic_cast<const SubsetRef*>(expr->input(i).get());
      std::vector<RelNodePtr> candidates;
      if (subset == nullptr) {
        if (rule->MatchesChild(i, *expr->input(i))) {
          candidates.push_back(expr->input(i));
        }
      } else {
        const RelSet& child_set =
            *sets_[static_cast<size_t>(Find(subset->set_id()))];
        for (const RelNodePtr& cand : child_set.exprs) {
          if (static_cast<int>(candidates.size()) >=
              options_.max_binding_exprs) {
            break;
          }
          if (rule->MatchesChild(i, *cand)) candidates.push_back(cand);
        }
      }
      if (candidates.empty()) return;  // No possible binding.
      child_candidates.push_back(std::move(candidates));
    }
    // Cartesian product of candidates.
    std::vector<size_t> idx(child_candidates.size(), 0);
    while (true) {
      std::vector<RelNodePtr> children;
      children.reserve(idx.size());
      std::string key =
          rule->name() + "/" +
          std::to_string(reinterpret_cast<uintptr_t>(expr.get()));
      for (size_t i = 0; i < idx.size(); ++i) {
        children.push_back(child_candidates[i][idx[i]]);
        key += "," + std::to_string(
                         reinterpret_cast<uintptr_t>(children.back().get()));
      }
      if (fired_.insert(key).second) {
        bindings.push_back(expr->CopyWithNewInputs(std::move(children)));
      }
      // Advance the odometer.
      size_t pos = 0;
      while (pos < idx.size()) {
        if (++idx[pos] < child_candidates[pos].size()) break;
        idx[pos] = 0;
        ++pos;
      }
      if (pos == idx.size()) break;
    }
  }

  for (const RelNodePtr& binding : bindings) {
    RelOptRuleCall call(binding, context_);
    call.SetConvertFn(convert_fn);
    rule->OnMatch(&call);
    if (call.results().empty()) continue;
    ++rule_fire_count_;
    for (const RelNodePtr& result : call.results()) {
      if (trace_) {
        std::fprintf(stderr, "[volcano] %s: set %d += %s\n",
                     rule->name().c_str(), Find(set_id),
                     result->Digest().c_str());
      }
      auto registered = Register(result, set_id, 0);
      (void)registered;  // Registration failures only occur at depth limit.
    }
    best_cost_cache_.clear();
  }
}

RelOptCost VolcanoPlanner::BestCost(
    int set_id, const RelTraitSet& traits,
    std::unordered_set<std::string>* visiting) {
  set_id = Find(set_id);
  std::string key = CostKey(set_id, traits);
  auto it = best_cost_cache_.find(key);
  if (it != best_cost_cache_.end()) return it->second;
  if (!visiting->insert(key).second) return RelOptCost::Infinite();

  RelOptCost best = RelOptCost::Infinite();
  const RelSet& set = *sets_[static_cast<size_t>(set_id)];
  for (const RelNodePtr& expr : set.exprs) {
    if (!expr->traits().Satisfies(traits)) continue;
    RelOptCost cost = context_->metadata()->NonCumulativeCost(expr);
    if (cost.IsInfinite()) continue;
    bool feasible = true;
    for (const RelNodePtr& input : expr->inputs()) {
      const auto* subset = dynamic_cast<const SubsetRef*>(input.get());
      if (subset == nullptr) {
        cost = cost + context_->metadata()->CumulativeCost(input);
        continue;
      }
      RelOptCost child =
          BestCost(subset->set_id(), input->traits(), visiting);
      if (child.IsInfinite()) {
        feasible = false;
        break;
      }
      cost = cost + child;
    }
    if (feasible && cost.IsLt(best)) best = cost;
  }
  visiting->erase(key);
  best_cost_cache_[key] = best;
  return best;
}

Result<RelNodePtr> VolcanoPlanner::BuildBest(int set_id,
                                             const RelTraitSet& traits) {
  set_id = Find(set_id);
  const RelSet& set = *sets_[static_cast<size_t>(set_id)];
  RelOptCost best = RelOptCost::Infinite();
  RelNodePtr best_expr;
  std::unordered_set<std::string> visiting;
  for (const RelNodePtr& expr : set.exprs) {
    if (!expr->traits().Satisfies(traits)) continue;
    RelOptCost cost = context_->metadata()->NonCumulativeCost(expr);
    if (cost.IsInfinite()) continue;
    bool feasible = true;
    visiting.clear();
    visiting.insert(CostKey(set_id, traits));
    for (const RelNodePtr& input : expr->inputs()) {
      const auto* subset = dynamic_cast<const SubsetRef*>(input.get());
      if (subset == nullptr) {
        cost = cost + context_->metadata()->CumulativeCost(input);
        continue;
      }
      RelOptCost child = BestCost(subset->set_id(), input->traits(),
                                  &visiting);
      if (child.IsInfinite()) {
        feasible = false;
        break;
      }
      cost = cost + child;
    }
    if (feasible && cost.IsLt(best)) {
      best = cost;
      best_expr = expr;
    }
  }
  if (best_expr == nullptr) {
    return Status::PlanError(
        "no feasible plan for set " + std::to_string(set_id) +
        " with traits " + traits.ToString());
  }
  std::vector<RelNodePtr> children;
  children.reserve(best_expr->inputs().size());
  for (const RelNodePtr& input : best_expr->inputs()) {
    const auto* subset = dynamic_cast<const SubsetRef*>(input.get());
    if (subset == nullptr) {
      children.push_back(input);
      continue;
    }
    auto child = BuildBest(subset->set_id(), input->traits());
    if (!child.ok()) return child;
    children.push_back(std::move(child).value());
  }
  if (children.empty() && best_expr->num_inputs() == 0) return best_expr;
  return best_expr->CopyWithNewInputs(std::move(children));
}

Result<RelNodePtr> VolcanoPlanner::Optimize(const RelNodePtr& root,
                                            const RelTraitSet& required) {
  rule_fire_count_ = 0;
  auto root_set = Register(root, -1, 0);
  if (!root_set.ok()) return root_set.status();
  root_set_ = root_set.value();
  root_traits_ = required;
  GetSubset(root_set_, required);

  double last_best = std::numeric_limits<double>::infinity();
  int firings_since_check = 0;
  int processed = 0;
  while (!queue_.empty()) {
    if (processed >= options_.max_firings) break;
    QueueEntry entry = std::move(queue_.front());
    queue_.pop_front();
    ++processed;
    FireRule(entry.rule, entry.expr, entry.set_id);
    ++firings_since_check;

    if (!options_.exhaustive &&
        firings_since_check >= options_.delta_window) {
      firings_since_check = 0;
      best_cost_cache_.clear();
      std::unordered_set<std::string> visiting;
      RelOptCost current = BestCost(root_set_, required, &visiting);
      if (!current.IsInfinite()) {
        double magnitude = current.Magnitude();
        if (std::isfinite(last_best)) {
          double improvement =
              last_best > 0 ? (last_best - magnitude) / last_best : 0;
          if (improvement < options_.cost_improvement_delta) break;
        }
        last_best = magnitude;
      }
    }
  }

  best_cost_cache_.clear();
  std::unordered_set<std::string> visiting;
  best_cost_ = BestCost(root_set_, required, &visiting);
  if (best_cost_.IsInfinite()) {
    return Status::PlanError(
        "cost-based planner found no implementation for the query in traits " +
        required.ToString());
  }
  return BuildBest(root_set_, required);
}

}  // namespace calcite
