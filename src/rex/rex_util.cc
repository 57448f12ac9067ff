#include "rex/rex_util.h"

#include <cassert>
#include <optional>
#include <utility>

namespace calcite {

std::vector<RexNodePtr> RexUtil::FlattenAnd(const RexNodePtr& node) {
  std::vector<RexNodePtr> result;
  if (node == nullptr || IsLiteralTrue(node)) return result;
  if (const RexCall* call = AsCall(node); call && call->op() == OpKind::kAnd) {
    for (const RexNodePtr& operand : call->operands()) {
      auto sub = FlattenAnd(operand);
      result.insert(result.end(), sub.begin(), sub.end());
    }
    return result;
  }
  result.push_back(node);
  return result;
}

RexNodePtr RexUtil::ComposeConjunction(const RexBuilder& builder,
                                       std::vector<RexNodePtr> conjuncts) {
  return builder.MakeAnd(std::move(conjuncts));
}

namespace {

void CollectRefs(const RexNodePtr& node, std::set<int>* refs) {
  if (const RexInputRef* ref = AsInputRef(node)) {
    refs->insert(ref->index());
    return;
  }
  if (const RexCall* call = AsCall(node)) {
    for (const RexNodePtr& operand : call->operands()) {
      CollectRefs(operand, refs);
    }
  }
}

}  // namespace

std::set<int> RexUtil::InputRefs(const RexNodePtr& node) {
  std::set<int> refs;
  CollectRefs(node, &refs);
  return refs;
}

bool RexUtil::AllRefsInRange(const RexNodePtr& node, int lower, int upper) {
  for (int ref : InputRefs(node)) {
    if (ref < lower || ref >= upper) return false;
  }
  return true;
}

RexNodePtr RexUtil::ShiftRefs(const RexNodePtr& node, int offset) {
  if (offset == 0) return node;
  if (const RexInputRef* ref = AsInputRef(node)) {
    return std::make_shared<RexInputRef>(ref->index() + offset, node->type());
  }
  if (const RexCall* call = AsCall(node)) {
    std::vector<RexNodePtr> operands;
    operands.reserve(call->operands().size());
    for (const RexNodePtr& operand : call->operands()) {
      operands.push_back(ShiftRefs(operand, offset));
    }
    return std::make_shared<RexCall>(call->op(), std::move(operands),
                                     node->type());
  }
  return node;
}

RexNodePtr RexUtil::RemapRefs(const RexNodePtr& node,
                              const std::vector<int>& mapping) {
  if (const RexInputRef* ref = AsInputRef(node)) {
    int index = ref->index();
    if (index >= 0 && static_cast<size_t>(index) < mapping.size()) {
      index = mapping[static_cast<size_t>(index)];
    }
    return std::make_shared<RexInputRef>(index, node->type());
  }
  if (const RexCall* call = AsCall(node)) {
    std::vector<RexNodePtr> operands;
    operands.reserve(call->operands().size());
    for (const RexNodePtr& operand : call->operands()) {
      operands.push_back(RemapRefs(operand, mapping));
    }
    return std::make_shared<RexCall>(call->op(), std::move(operands),
                                     node->type());
  }
  return node;
}

RexNodePtr RexUtil::ReplaceRefs(const RexNodePtr& node,
                                const std::vector<RexNodePtr>& exprs) {
  if (const RexInputRef* ref = AsInputRef(node)) {
    int index = ref->index();
    assert(index >= 0 && static_cast<size_t>(index) < exprs.size());
    return exprs[static_cast<size_t>(index)];
  }
  if (const RexCall* call = AsCall(node)) {
    std::vector<RexNodePtr> operands;
    operands.reserve(call->operands().size());
    for (const RexNodePtr& operand : call->operands()) {
      operands.push_back(ReplaceRefs(operand, exprs));
    }
    return std::make_shared<RexCall>(call->op(), std::move(operands),
                                     node->type());
  }
  return node;
}

bool RexUtil::IsConstant(const RexNodePtr& node) {
  return InputRefs(node).empty();
}

bool RexUtil::IsLiteralTrue(const RexNodePtr& node) {
  const RexLiteral* lit = AsLiteral(node);
  return lit != nullptr && lit->value().is_bool() && lit->value().AsBool();
}

bool RexUtil::IsLiteralFalse(const RexNodePtr& node) {
  const RexLiteral* lit = AsLiteral(node);
  return lit != nullptr && lit->value().is_bool() && !lit->value().AsBool();
}

bool RexUtil::Equal(const RexNodePtr& a, const RexNodePtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  return a->ToString() == b->ToString();
}

bool RexUtil::IsIdentity(const std::vector<RexNodePtr>& exprs,
                         int input_field_count) {
  if (static_cast<int>(exprs.size()) != input_field_count) return false;
  for (size_t i = 0; i < exprs.size(); ++i) {
    const RexInputRef* ref = AsInputRef(exprs[i]);
    if (ref == nullptr || ref->index() != static_cast<int>(i)) return false;
  }
  return true;
}

Monotonicity DeriveMonotonicity(const RexNodePtr& node,
                                const std::set<int>& increasing_inputs) {
  if (const RexInputRef* ref = AsInputRef(node)) {
    return increasing_inputs.count(ref->index()) > 0
               ? Monotonicity::kIncreasing
               : Monotonicity::kNotMonotonic;
  }
  if (node->is_literal()) return Monotonicity::kConstant;
  const RexCall* call = AsCall(node);
  if (call == nullptr) return Monotonicity::kNotMonotonic;
  switch (call->op()) {
    case OpKind::kTumble:
    case OpKind::kTumbleStart:
    case OpKind::kTumbleEnd:
    case OpKind::kHop:
    case OpKind::kHopEnd:
    case OpKind::kSession:
    case OpKind::kSessionEnd:
    case OpKind::kFloor:
    case OpKind::kCeil:
    case OpKind::kCast: {
      // Monotone transforms of the first operand (remaining operands must be
      // constants, which the builder enforces for window functions).
      Monotonicity m = DeriveMonotonicity(call->operand(0), increasing_inputs);
      for (size_t i = 1; i < call->operands().size(); ++i) {
        if (DeriveMonotonicity(call->operands()[i], increasing_inputs) !=
            Monotonicity::kConstant) {
          return Monotonicity::kNotMonotonic;
        }
      }
      return m;
    }
    case OpKind::kPlus:
    case OpKind::kMinus: {
      Monotonicity a = DeriveMonotonicity(call->operand(0), increasing_inputs);
      Monotonicity b = DeriveMonotonicity(call->operand(1), increasing_inputs);
      if (a == Monotonicity::kConstant && b == Monotonicity::kConstant) {
        return Monotonicity::kConstant;
      }
      if (b == Monotonicity::kConstant) return a;
      if (a == Monotonicity::kConstant) {
        if (call->op() == OpKind::kPlus) return b;
        // constant - increasing = decreasing.
        return b == Monotonicity::kIncreasing ? Monotonicity::kDecreasing
               : b == Monotonicity::kDecreasing ? Monotonicity::kIncreasing
                                                : b;
      }
      return Monotonicity::kNotMonotonic;
    }
    case OpKind::kUnaryMinus: {
      Monotonicity m = DeriveMonotonicity(call->operand(0), increasing_inputs);
      if (m == Monotonicity::kIncreasing) return Monotonicity::kDecreasing;
      if (m == Monotonicity::kDecreasing) return Monotonicity::kIncreasing;
      return m;
    }
    default: {
      // An expression over constants only is constant.
      for (const RexNodePtr& operand : call->operands()) {
        if (DeriveMonotonicity(operand, increasing_inputs) !=
            Monotonicity::kConstant) {
          return Monotonicity::kNotMonotonic;
        }
      }
      return Monotonicity::kConstant;
    }
  }
}

bool ExtractScanPredicates(const RexNodePtr& condition, int scan_width,
                           ScanPredicateList* pushed,
                           std::vector<RexNodePtr>* residual) {
  // Flatten the top-level conjunction (nested ANDs included, mirroring the
  // interpreter's recursive narrowing).
  std::vector<RexNodePtr> conjuncts;
  std::vector<RexNodePtr> stack = {condition};
  while (!stack.empty()) {
    RexNodePtr node = std::move(stack.back());
    stack.pop_back();
    const RexCall* call = AsCall(node);
    if (call != nullptr && call->op() == OpKind::kAnd) {
      // Preserve left-to-right conjunct order: the stack is LIFO.
      for (auto it = call->operands().rbegin(); it != call->operands().rend();
           ++it) {
        stack.push_back(*it);
      }
      continue;
    }
    conjuncts.push_back(std::move(node));
  }

  auto ref_index = [scan_width](const RexNodePtr& node) -> int {
    const RexInputRef* ref = AsInputRef(node);
    if (ref == nullptr || ref->index() < 0 || ref->index() >= scan_width) {
      return -1;
    }
    return ref->index();
  };
  auto comparison_kind =
      [](OpKind op, bool flipped) -> std::optional<ScanPredicate::Kind> {
    switch (op) {
      case OpKind::kEquals:
        return ScanPredicate::Kind::kEquals;
      case OpKind::kNotEquals:
        return ScanPredicate::Kind::kNotEquals;
      case OpKind::kLessThan:
        return flipped ? ScanPredicate::Kind::kGreaterThan
                       : ScanPredicate::Kind::kLessThan;
      case OpKind::kLessThanOrEqual:
        return flipped ? ScanPredicate::Kind::kGreaterThanOrEqual
                       : ScanPredicate::Kind::kLessThanOrEqual;
      case OpKind::kGreaterThan:
        return flipped ? ScanPredicate::Kind::kLessThan
                       : ScanPredicate::Kind::kGreaterThan;
      case OpKind::kGreaterThanOrEqual:
        return flipped ? ScanPredicate::Kind::kLessThanOrEqual
                       : ScanPredicate::Kind::kGreaterThanOrEqual;
      default:
        return std::nullopt;
    }
  };

  bool any = false;
  for (RexNodePtr& conjunct : conjuncts) {
    const RexCall* call = AsCall(conjunct);
    if (call != nullptr && call->operands().size() == 1 &&
        (call->op() == OpKind::kIsNull || call->op() == OpKind::kIsNotNull)) {
      int col = ref_index(call->operand(0));
      if (col >= 0) {
        ScanPredicate pred;
        pred.kind = call->op() == OpKind::kIsNull
                        ? ScanPredicate::Kind::kIsNull
                        : ScanPredicate::Kind::kIsNotNull;
        pred.column = col;
        pushed->push_back(std::move(pred));
        any = true;
        continue;
      }
    }
    if (call != nullptr && call->op() == OpKind::kBetween &&
        call->operands().size() == 3) {
      // `$col BETWEEN lo AND hi` is `$col >= lo AND $col <= hi`: both
      // NULL-strict, both false on reversed bounds, like BETWEEN itself.
      int col = ref_index(call->operand(0));
      const RexLiteral* lo = AsLiteral(call->operand(1));
      const RexLiteral* hi = AsLiteral(call->operand(2));
      if (col >= 0 && lo != nullptr && hi != nullptr) {
        ScanPredicate ge;
        ge.kind = ScanPredicate::Kind::kGreaterThanOrEqual;
        ge.column = col;
        ge.literal = lo->value();
        pushed->push_back(std::move(ge));
        ScanPredicate le;
        le.kind = ScanPredicate::Kind::kLessThanOrEqual;
        le.column = col;
        le.literal = hi->value();
        pushed->push_back(std::move(le));
        any = true;
        continue;
      }
    }
    if (call != nullptr && call->operands().size() == 2) {
      const RexLiteral* lhs_lit = AsLiteral(call->operand(0));
      const RexLiteral* rhs_lit = AsLiteral(call->operand(1));
      int lhs_col = ref_index(call->operand(0));
      int rhs_col = ref_index(call->operand(1));
      std::optional<ScanPredicate::Kind> kind;
      ScanPredicate pred;
      if (lhs_col >= 0 && rhs_lit != nullptr) {
        kind = comparison_kind(call->op(), /*flipped=*/false);
        pred.column = lhs_col;
        pred.literal = rhs_lit->value();
      } else if (lhs_lit != nullptr && rhs_col >= 0) {
        kind = comparison_kind(call->op(), /*flipped=*/true);
        pred.column = rhs_col;
        pred.literal = lhs_lit->value();
      }
      if (kind.has_value()) {
        pred.kind = *kind;
        pushed->push_back(std::move(pred));
        any = true;
        continue;
      }
    }
    residual->push_back(std::move(conjunct));
  }
  return any;
}

}  // namespace calcite
