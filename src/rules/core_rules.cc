#include "rules/core_rules.h"

#include <memory>
#include <set>

#include "rel/core.h"
#include "rex/rex_util.h"

namespace calcite {

namespace {

bool IsLogicalConvention(const RelNode& node) {
  return node.convention() == Convention::Logical();
}

/// Conjuncts over a join's output, sorted by the input they reference.
struct SideSplit {
  std::vector<RexNodePtr> left;   // left input's fields only
  std::vector<RexNodePtr> right;  // right input's, shifted to its field space
  std::vector<RexNodePtr> rest;   // both inputs, none, or a side not allowed
};

SideSplit SplitBySide(const std::vector<RexNodePtr>& conjuncts,
                      const Join& join, bool to_left, bool to_right) {
  const int left_count = join.input(0)->row_type()->field_count();
  const int total = left_count + join.input(1)->row_type()->field_count();
  SideSplit split;
  for (const RexNodePtr& conjunct : conjuncts) {
    // A constant conjunct stays. Pushing `ON TRUE` would build a
    // Filter(TRUE) that ReduceExpressionsRule removes again, recreating the
    // join, so the rules would never stop firing.
    if (RexUtil::InputRefs(conjunct).empty()) {
      split.rest.push_back(conjunct);
    } else if (to_left && RexUtil::AllRefsInRange(conjunct, 0, left_count)) {
      split.left.push_back(conjunct);
    } else if (to_right &&
               RexUtil::AllRefsInRange(conjunct, left_count, total)) {
      split.right.push_back(RexUtil::ShiftRefs(conjunct, -left_count));
    } else {
      split.rest.push_back(conjunct);
    }
  }
  return split;
}

/// `join` with `split.left` and `split.right` as Filters on its inputs and
/// `split.rest` as its condition.
RelNodePtr PushBelowJoin(const Join& join, SideSplit split,
                         RelOptRuleCall* call) {
  const RexBuilder& rex = call->rex_builder();
  RelNodePtr left = join.input(0);
  RelNodePtr right = join.input(1);
  if (!split.left.empty()) {
    left = LogicalFilter::Create(left, rex.MakeAnd(std::move(split.left)));
  }
  if (!split.right.empty()) {
    right = LogicalFilter::Create(right, rex.MakeAnd(std::move(split.right)));
  }
  return LogicalJoin::Create(std::move(left), std::move(right),
                             rex.MakeAnd(std::move(split.rest)),
                             join.join_type(), call->type_factory());
}

// ----------------------------- FilterIntoJoin ------------------------------

class FilterIntoJoinRule final : public RelOptRule {
 public:
  std::string name() const override { return "FilterIntoJoinRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    return IsLogicalConvention(node) &&
           dynamic_cast<const Filter*>(&node) != nullptr;
  }

  bool MatchesChild(int i, const RelNode& child) const override {
    return i != 0 || dynamic_cast<const Join*>(&child) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& filter = static_cast<const Filter&>(*call->rel());
    const auto* join = dynamic_cast<const Join*>(filter.input(0).get());
    if (join == nullptr) return;
    // Push-down below an outer join would change semantics on the padded
    // side; restrict to inner joins (Calcite's default "smart" behaviour).
    if (join->join_type() != JoinType::kInner) return;

    SideSplit split =
        SplitBySide(RexUtil::FlattenAnd(filter.condition()), *join,
                    /*to_left=*/true, /*to_right=*/true);
    if (split.left.empty() && split.right.empty()) return;  // Nothing moves.
    // Cross-side conjuncts can be performed by the join itself.
    std::vector<RexNodePtr> join_conjuncts =
        RexUtil::FlattenAnd(join->condition());
    join_conjuncts.insert(join_conjuncts.end(), split.rest.begin(),
                          split.rest.end());
    split.rest = std::move(join_conjuncts);
    call->TransformTo(PushBelowJoin(*join, std::move(split), call));
  }
};

// --------------------------- JoinConditionPush ----------------------------

class JoinConditionPushRule final : public RelOptRule {
 public:
  std::string name() const override { return "JoinConditionPushRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    const auto* join = dynamic_cast<const Join*>(&node);
    return IsLogicalConvention(node) && join != nullptr &&
           (join->join_type() == JoinType::kInner ||
            join->join_type() == JoinType::kLeft ||
            join->join_type() == JoinType::kRight);
  }

  bool NeedsConcreteChildren() const override { return false; }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& join = static_cast<const Join&>(*call->rel());
    // Only the null-producing side of an outer join may lose rows early.
    SideSplit split = SplitBySide(RexUtil::FlattenAnd(join.condition()), join,
                                  join.join_type() != JoinType::kLeft,
                                  join.join_type() != JoinType::kRight);
    if (split.left.empty() && split.right.empty()) return;  // Nothing moves.
    call->TransformTo(PushBelowJoin(join, std::move(split), call));
  }
};

// ------------------------------- FilterMerge -------------------------------

class FilterMergeRule final : public RelOptRule {
 public:
  std::string name() const override { return "FilterMergeRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    return IsLogicalConvention(node) &&
           dynamic_cast<const Filter*>(&node) != nullptr;
  }

  bool MatchesChild(int i, const RelNode& child) const override {
    return i != 0 || dynamic_cast<const Filter*>(&child) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& outer = static_cast<const Filter&>(*call->rel());
    const auto* inner = dynamic_cast<const Filter*>(outer.input(0).get());
    if (inner == nullptr) return;
    std::vector<RexNodePtr> conjuncts = RexUtil::FlattenAnd(outer.condition());
    for (const RexNodePtr& c : RexUtil::FlattenAnd(inner->condition())) {
      conjuncts.push_back(c);
    }
    call->TransformTo(LogicalFilter::Create(
        inner->input(0), call->rex_builder().MakeAnd(std::move(conjuncts))));
  }
};

// -------------------------- FilterProjectTranspose --------------------------

class FilterProjectTransposeRule final : public RelOptRule {
 public:
  std::string name() const override { return "FilterProjectTransposeRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    return IsLogicalConvention(node) &&
           dynamic_cast<const Filter*>(&node) != nullptr;
  }

  bool MatchesChild(int i, const RelNode& child) const override {
    return i != 0 || dynamic_cast<const Project*>(&child) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& filter = static_cast<const Filter&>(*call->rel());
    const auto* project = dynamic_cast<const Project*>(filter.input(0).get());
    if (project == nullptr) return;
    // Inline the projected expressions into the predicate.
    RexNodePtr pushed =
        RexUtil::ReplaceRefs(filter.condition(), project->exprs());
    RelNodePtr new_filter = LogicalFilter::Create(project->input(0), pushed);
    std::vector<std::string> names;
    for (const RelDataTypeField& f : project->row_type()->fields()) {
      names.push_back(f.name);
    }
    call->TransformTo(LogicalProject::Create(std::move(new_filter),
                                             project->exprs(), names,
                                             call->type_factory()));
  }
};

// ------------------------- FilterAggregateTranspose -------------------------

class FilterAggregateTransposeRule final : public RelOptRule {
 public:
  std::string name() const override {
    return "FilterAggregateTransposeRule";
  }

  bool MatchesRoot(const RelNode& node) const override {
    return IsLogicalConvention(node) &&
           dynamic_cast<const Filter*>(&node) != nullptr;
  }

  bool MatchesChild(int i, const RelNode& child) const override {
    return i != 0 || dynamic_cast<const Aggregate*>(&child) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& filter = static_cast<const Filter&>(*call->rel());
    const auto* agg = dynamic_cast<const Aggregate*>(filter.input(0).get());
    if (agg == nullptr) return;
    int key_count = static_cast<int>(agg->group_keys().size());
    // Only predicates over the group keys may move below the aggregate.
    if (!RexUtil::AllRefsInRange(filter.condition(), 0, key_count)) return;
    // Output field i (i < key_count) corresponds to input field
    // group_keys[i].
    std::vector<int> mapping(static_cast<size_t>(key_count));
    for (int i = 0; i < key_count; ++i) {
      mapping[static_cast<size_t>(i)] = agg->group_keys()[static_cast<size_t>(i)];
    }
    RexNodePtr pushed = RexUtil::RemapRefs(filter.condition(), mapping);
    RelNodePtr new_filter = LogicalFilter::Create(agg->input(0), pushed);
    call->TransformTo(LogicalAggregate::Create(std::move(new_filter),
                                               agg->group_keys(),
                                               agg->agg_calls(),
                                               call->type_factory()));
  }
};

// --------------------------- FilterSetOpTranspose ---------------------------

class FilterSetOpTransposeRule final : public RelOptRule {
 public:
  std::string name() const override { return "FilterSetOpTransposeRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    return IsLogicalConvention(node) &&
           dynamic_cast<const Filter*>(&node) != nullptr;
  }

  bool MatchesChild(int i, const RelNode& child) const override {
    return i != 0 || dynamic_cast<const SetOp*>(&child) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& filter = static_cast<const Filter&>(*call->rel());
    const auto* setop = dynamic_cast<const SetOp*>(filter.input(0).get());
    if (setop == nullptr) return;
    std::vector<RelNodePtr> new_inputs;
    new_inputs.reserve(setop->inputs().size());
    for (const RelNodePtr& input : setop->inputs()) {
      new_inputs.push_back(LogicalFilter::Create(input, filter.condition()));
    }
    call->TransformTo(LogicalSetOp::Create(std::move(new_inputs),
                                           setop->set_kind(), setop->all(),
                                           call->type_factory()));
  }
};

// ------------------------------- ProjectMerge ------------------------------

class ProjectMergeRule final : public RelOptRule {
 public:
  std::string name() const override { return "ProjectMergeRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    return IsLogicalConvention(node) &&
           dynamic_cast<const Project*>(&node) != nullptr;
  }

  bool MatchesChild(int i, const RelNode& child) const override {
    return i != 0 || dynamic_cast<const Project*>(&child) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& outer = static_cast<const Project&>(*call->rel());
    const auto* inner = dynamic_cast<const Project*>(outer.input(0).get());
    if (inner == nullptr) return;
    std::vector<RexNodePtr> composed;
    composed.reserve(outer.exprs().size());
    for (const RexNodePtr& expr : outer.exprs()) {
      composed.push_back(RexUtil::ReplaceRefs(expr, inner->exprs()));
    }
    std::vector<std::string> names;
    for (const RelDataTypeField& f : outer.row_type()->fields()) {
      names.push_back(f.name);
    }
    call->TransformTo(LogicalProject::Create(inner->input(0),
                                             std::move(composed), names,
                                             call->type_factory()));
  }
};

// ------------------------------ ProjectRemove ------------------------------

class ProjectRemoveRule final : public RelOptRule {
 public:
  std::string name() const override { return "ProjectRemoveRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    return IsLogicalConvention(node) &&
           dynamic_cast<const Project*>(&node) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& project = static_cast<const Project&>(*call->rel());
    int input_fields = project.input(0)->row_type()->field_count();
    if (!RexUtil::IsIdentity(project.exprs(), input_fields)) return;
    // Identity projections may still rename fields; dropping them is safe
    // within the optimizer because consumers bind by index.
    call->TransformTo(project.input(0));
  }
};

// ---------------------------- ReduceExpressions ----------------------------

class ReduceExpressionsRule final : public RelOptRule {
 public:
  std::string name() const override { return "ReduceExpressionsRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    return IsLogicalConvention(node) &&
           (dynamic_cast<const Filter*>(&node) != nullptr ||
            dynamic_cast<const Project*>(&node) != nullptr ||
            dynamic_cast<const Join*>(&node) != nullptr);
  }

  bool NeedsConcreteChildren() const override { return false; }

  void OnMatch(RelOptRuleCall* call) const override {
    const RexSimplifier& simplifier = call->context()->simplifier();
    if (const auto* filter = dynamic_cast<const Filter*>(call->rel().get())) {
      RexNodePtr simplified = simplifier.Simplify(filter->condition());
      if (RexUtil::IsLiteralTrue(simplified)) {
        call->TransformTo(filter->input(0));
        return;
      }
      if (RexUtil::IsLiteralFalse(simplified)) {
        call->TransformTo(
            LogicalValues::Create(filter->row_type(), {}));
        return;
      }
      if (!RexUtil::Equal(simplified, filter->condition())) {
        call->TransformTo(
            LogicalFilter::Create(filter->input(0), std::move(simplified)));
      }
      return;
    }
    if (const auto* project = dynamic_cast<const Project*>(call->rel().get())) {
      std::vector<RexNodePtr> simplified;
      simplified.reserve(project->exprs().size());
      bool changed = false;
      for (const RexNodePtr& expr : project->exprs()) {
        RexNodePtr s = simplifier.Simplify(expr);
        changed = changed || !RexUtil::Equal(s, expr);
        simplified.push_back(std::move(s));
      }
      if (!changed) return;
      std::vector<std::string> names;
      for (const RelDataTypeField& f : project->row_type()->fields()) {
        names.push_back(f.name);
      }
      call->TransformTo(LogicalProject::Create(project->input(0),
                                               std::move(simplified), names,
                                               call->type_factory()));
      return;
    }
    if (const auto* join = dynamic_cast<const Join*>(call->rel().get())) {
      RexNodePtr simplified = simplifier.Simplify(join->condition());
      if (!RexUtil::Equal(simplified, join->condition())) {
        call->TransformTo(LogicalJoin::Create(join->input(0), join->input(1),
                                              std::move(simplified),
                                              join->join_type(),
                                              call->type_factory()));
      }
    }
  }
};

// -------------------------------- PruneEmpty -------------------------------

bool IsEmptyValues(const RelNode& node) {
  const auto* values = dynamic_cast<const Values*>(&node);
  return values != nullptr && values->tuples().empty();
}

class PruneEmptyRule final : public RelOptRule {
 public:
  std::string name() const override { return "PruneEmptyRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    if (!IsLogicalConvention(node)) return false;
    if (const auto* sort = dynamic_cast<const Sort*>(&node)) {
      return sort->fetch() == 0 || true;  // fetch-0 handled in OnMatch too
    }
    return dynamic_cast<const Filter*>(&node) != nullptr ||
           dynamic_cast<const Project*>(&node) != nullptr ||
           dynamic_cast<const Join*>(&node) != nullptr ||
           dynamic_cast<const SetOp*>(&node) != nullptr ||
           dynamic_cast<const Aggregate*>(&node) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const RelNodePtr& node = call->rel();
    if (const auto* sort = dynamic_cast<const Sort*>(node.get())) {
      if (sort->fetch() == 0 || IsEmptyValues(*sort->input(0))) {
        call->TransformTo(LogicalValues::Create(node->row_type(), {}));
      }
      return;
    }
    if (const auto* agg = dynamic_cast<const Aggregate*>(node.get())) {
      // Aggregate without group keys over empty input still yields one row,
      // so only prune grouped aggregates.
      if (!agg->group_keys().empty() && IsEmptyValues(*node->input(0))) {
        call->TransformTo(LogicalValues::Create(node->row_type(), {}));
      }
      return;
    }
    if (const auto* setop = dynamic_cast<const SetOp*>(node.get())) {
      if (setop->set_kind() == SetOp::Kind::kUnion) {
        std::vector<RelNodePtr> live;
        for (const RelNodePtr& input : setop->inputs()) {
          if (!IsEmptyValues(*input)) live.push_back(input);
        }
        if (live.size() == setop->inputs().size()) return;
        if (live.empty()) {
          call->TransformTo(LogicalValues::Create(node->row_type(), {}));
        } else if (live.size() == 1 && setop->all()) {
          call->TransformTo(live[0]);
        } else {
          call->TransformTo(LogicalSetOp::Create(std::move(live),
                                                 setop->set_kind(),
                                                 setop->all(),
                                                 call->type_factory()));
        }
      } else if (IsEmptyValues(*setop->input(0))) {
        // INTERSECT/MINUS with empty first input is empty.
        call->TransformTo(LogicalValues::Create(node->row_type(), {}));
      }
      return;
    }
    if (const auto* join = dynamic_cast<const Join*>(node.get())) {
      bool left_empty = IsEmptyValues(*join->input(0));
      bool right_empty = IsEmptyValues(*join->input(1));
      bool prune = false;
      switch (join->join_type()) {
        case JoinType::kInner:
        case JoinType::kSemi:
          prune = left_empty || right_empty;
          break;
        case JoinType::kLeft:
        case JoinType::kAnti:
          prune = left_empty;
          break;
        case JoinType::kRight:
          prune = right_empty;
          break;
        case JoinType::kFull:
          prune = left_empty && right_empty;
          break;
      }
      if (prune) {
        call->TransformTo(LogicalValues::Create(node->row_type(), {}));
      }
      return;
    }
    // Filter/Project over empty input.
    if (node->num_inputs() == 1 && IsEmptyValues(*node->input(0))) {
      call->TransformTo(LogicalValues::Create(node->row_type(), {}));
    }
  }
};

// -------------------------------- UnionMerge -------------------------------

class UnionMergeRule final : public RelOptRule {
 public:
  std::string name() const override { return "UnionMergeRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    const auto* setop = dynamic_cast<const SetOp*>(&node);
    return IsLogicalConvention(node) && setop != nullptr &&
           setop->set_kind() == SetOp::Kind::kUnion;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& setop = static_cast<const SetOp&>(*call->rel());
    std::vector<RelNodePtr> flattened;
    bool changed = false;
    for (const RelNodePtr& input : setop.inputs()) {
      const auto* child = dynamic_cast<const SetOp*>(input.get());
      if (child != nullptr && child->set_kind() == SetOp::Kind::kUnion &&
          child->all() == setop.all()) {
        changed = true;
        for (const RelNodePtr& grand : child->inputs()) {
          flattened.push_back(grand);
        }
      } else {
        flattened.push_back(input);
      }
    }
    if (!changed) return;
    call->TransformTo(LogicalSetOp::Create(std::move(flattened),
                                           SetOp::Kind::kUnion, setop.all(),
                                           call->type_factory()));
  }
};

// -------------------------------- SortRemove -------------------------------

class SortRemoveRule final : public RelOptRule {
 public:
  std::string name() const override { return "SortRemoveRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    return IsLogicalConvention(node) &&
           dynamic_cast<const Sort*>(&node) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& sort = static_cast<const Sort&>(*call->rel());
    if (sort.collation().empty() && sort.offset() == 0 && sort.fetch() < 0) {
      call->TransformTo(sort.input(0));
      return;
    }
    // Sort over sort: the inner ordering is overwritten (unless the inner
    // one limits rows, in which case it still matters).
    const auto* inner = dynamic_cast<const Sort*>(sort.input(0).get());
    if (inner != nullptr && inner->offset() == 0 && inner->fetch() < 0) {
      call->TransformTo(LogicalSort::Create(inner->input(0), sort.collation(),
                                            sort.offset(), sort.fetch()));
    }
  }
};

// ------------------------------ AggregateRemove ----------------------------

class AggregateRemoveRule final : public RelOptRule {
 public:
  std::string name() const override { return "AggregateRemoveRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    const auto* agg = dynamic_cast<const Aggregate*>(&node);
    return IsLogicalConvention(node) && agg != nullptr &&
           agg->agg_calls().empty() && !agg->group_keys().empty();
  }

  bool NeedsConcreteChildren() const override { return false; }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& agg = static_cast<const Aggregate&>(*call->rel());
    // Metadata-driven: the aggregate is a no-op only if the keys are
    // already unique in the input.
    if (!call->metadata()->AreColumnsUnique(agg.input(0), agg.group_keys())) {
      return;
    }
    const RexBuilder& rex = call->rex_builder();
    std::vector<RexNodePtr> exprs;
    std::vector<std::string> names;
    for (size_t i = 0; i < agg.group_keys().size(); ++i) {
      int key = agg.group_keys()[i];
      exprs.push_back(rex.MakeInputRef(agg.input(0)->row_type(), key));
      names.push_back(agg.row_type()->fields()[i].name);
    }
    call->TransformTo(LogicalProject::Create(agg.input(0), std::move(exprs),
                                             names, call->type_factory()));
  }
};

// ------------------------------- JoinCommute -------------------------------

class JoinCommuteRule final : public RelOptRule {
 public:
  std::string name() const override { return "JoinCommuteRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    const auto* join = dynamic_cast<const Join*>(&node);
    return IsLogicalConvention(node) && join != nullptr &&
           join->join_type() == JoinType::kInner;
  }

  bool NeedsConcreteChildren() const override { return false; }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& join = static_cast<const Join&>(*call->rel());
    SwappedJoin swap = SwapJoin(join, call->rex_builder());
    RelNodePtr swapped = LogicalJoin::Create(
        join.input(1), join.input(0), std::move(swap.condition),
        swap.join_type, call->type_factory());
    call->TransformTo(LogicalProject::Create(std::move(swapped),
                                             std::move(swap.restore),
                                             swap.names,
                                             call->type_factory()));
  }
};

// ------------------------------ JoinAssociate ------------------------------

class JoinAssociateRule final : public RelOptRule {
 public:
  std::string name() const override { return "JoinAssociateRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    const auto* join = dynamic_cast<const Join*>(&node);
    return IsLogicalConvention(node) && join != nullptr &&
           join->join_type() == JoinType::kInner;
  }

  bool MatchesChild(int i, const RelNode& child) const override {
    if (i != 0) return true;
    const auto* join = dynamic_cast<const Join*>(&child);
    return join != nullptr && join->join_type() == JoinType::kInner;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    const auto& top = static_cast<const Join&>(*call->rel());
    const auto* bottom = dynamic_cast<const Join*>(top.input(0).get());
    if (bottom == nullptr || bottom->join_type() != JoinType::kInner) return;

    const RelNodePtr& a = bottom->input(0);
    const RelNodePtr& b = bottom->input(1);
    const RelNodePtr& c = top.input(1);
    int a_count = a->row_type()->field_count();
    int b_count = b->row_type()->field_count();
    int c_count = c->row_type()->field_count();
    int total = a_count + b_count + c_count;

    // Conjuncts of both conditions, all in (a, b, c) field space.
    std::vector<RexNodePtr> all;
    for (const RexNodePtr& conj : RexUtil::FlattenAnd(bottom->condition())) {
      all.push_back(conj);
    }
    for (const RexNodePtr& conj : RexUtil::FlattenAnd(top.condition())) {
      all.push_back(conj);
    }
    // Split: conjuncts over (b, c) only go to the new bottom join; anything
    // touching `a` stays on top.
    std::vector<RexNodePtr> bottom_preds;
    std::vector<RexNodePtr> top_preds;
    for (const RexNodePtr& conj : all) {
      if (RexUtil::AllRefsInRange(conj, a_count, total)) {
        bottom_preds.push_back(RexUtil::ShiftRefs(conj, -a_count));
      } else {
        top_preds.push_back(conj);
      }
    }
    const RexBuilder& rex = call->rex_builder();
    RelNodePtr bc = LogicalJoin::Create(b, c,
                                        rex.MakeAnd(std::move(bottom_preds)),
                                        JoinType::kInner,
                                        call->type_factory());
    call->TransformTo(LogicalJoin::Create(a, std::move(bc),
                                          rex.MakeAnd(std::move(top_preds)),
                                          JoinType::kInner,
                                          call->type_factory()));
  }
};

}  // namespace

RelOptRulePtr MakeFilterIntoJoinRule() {
  return std::make_shared<FilterIntoJoinRule>();
}
RelOptRulePtr MakeJoinConditionPushRule() {
  return std::make_shared<JoinConditionPushRule>();
}
RelOptRulePtr MakeFilterMergeRule() {
  return std::make_shared<FilterMergeRule>();
}
RelOptRulePtr MakeFilterProjectTransposeRule() {
  return std::make_shared<FilterProjectTransposeRule>();
}
RelOptRulePtr MakeFilterAggregateTransposeRule() {
  return std::make_shared<FilterAggregateTransposeRule>();
}
RelOptRulePtr MakeFilterSetOpTransposeRule() {
  return std::make_shared<FilterSetOpTransposeRule>();
}
RelOptRulePtr MakeProjectMergeRule() {
  return std::make_shared<ProjectMergeRule>();
}
RelOptRulePtr MakeProjectRemoveRule() {
  return std::make_shared<ProjectRemoveRule>();
}
RelOptRulePtr MakeReduceExpressionsRule() {
  return std::make_shared<ReduceExpressionsRule>();
}
RelOptRulePtr MakePruneEmptyRule() {
  return std::make_shared<PruneEmptyRule>();
}
RelOptRulePtr MakeUnionMergeRule() {
  return std::make_shared<UnionMergeRule>();
}
RelOptRulePtr MakeSortRemoveRule() {
  return std::make_shared<SortRemoveRule>();
}
RelOptRulePtr MakeAggregateRemoveRule() {
  return std::make_shared<AggregateRemoveRule>();
}
RelOptRulePtr MakeJoinCommuteRule() {
  return std::make_shared<JoinCommuteRule>();
}
RelOptRulePtr MakeJoinAssociateRule() {
  return std::make_shared<JoinAssociateRule>();
}

std::vector<RelOptRulePtr> StandardLogicalRules() {
  return {
      MakeReduceExpressionsRule(),
      MakeFilterMergeRule(),
      MakeFilterProjectTransposeRule(),
      MakeFilterAggregateTransposeRule(),
      MakeFilterSetOpTransposeRule(),
      MakeFilterIntoJoinRule(),
      MakeJoinConditionPushRule(),
      MakeProjectMergeRule(),
      MakeProjectRemoveRule(),
      MakeUnionMergeRule(),
      MakeSortRemoveRule(),
      MakeAggregateRemoveRule(),
      MakePruneEmptyRule(),
  };
}

SwappedJoin SwapJoin(const Join& join, const RexBuilder& rex) {
  int left_count = join.input(0)->row_type()->field_count();
  int right_count = join.input(1)->row_type()->field_count();
  SwappedJoin swap;
  switch (join.join_type()) {
    case JoinType::kLeft:
      swap.join_type = JoinType::kRight;
      break;
    case JoinType::kRight:
      swap.join_type = JoinType::kLeft;
      break;
    default:
      swap.join_type = join.join_type();
  }
  // Remap condition refs into the swapped field space.
  std::vector<int> mapping(static_cast<size_t>(left_count + right_count));
  for (int i = 0; i < left_count; ++i) {
    mapping[static_cast<size_t>(i)] = i + right_count;
  }
  for (int i = 0; i < right_count; ++i) {
    mapping[static_cast<size_t>(left_count + i)] = i;
  }
  swap.condition = RexUtil::RemapRefs(join.condition(), mapping);
  swap.row_type =
      DeriveJoinRowType(join.input(1)->row_type(), join.input(0)->row_type(),
                        swap.join_type, rex.type_factory());
  // Restore the original field order with a projection.
  const auto& fields = join.row_type()->fields();
  for (int i = 0; i < left_count + right_count; ++i) {
    swap.restore.push_back(
        rex.MakeInputRef(swap.row_type, mapping[static_cast<size_t>(i)]));
    swap.names.push_back(fields[static_cast<size_t>(i)].name);
  }
  return swap;
}

std::vector<RelOptRulePtr> JoinReorderRules() {
  return {MakeJoinCommuteRule(), MakeJoinAssociateRule()};
}

}  // namespace calcite
