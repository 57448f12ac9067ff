#include "metadata/metadata.h"

#include <algorithm>
#include <cmath>

#include "metadata/table_stats_provider.h"
#include "rel/core.h"
#include "rex/rex_util.h"

namespace calcite {

namespace {

/// Fallback row count when a table provides no statistics.
constexpr double kDefaultTableRows = 100.0;

/// Cache key of a (node, column set) metadata question.
std::string ColumnsKey(const RelNodePtr& node, const std::vector<int>& columns) {
  std::string key = std::to_string(reinterpret_cast<uintptr_t>(node.get()));
  for (int c : columns) key += "," + std::to_string(c);
  return key;
}

}  // namespace

MetadataQuery::MetadataQuery() {
  AddProvider(std::make_shared<TableStatsProvider>());
}

void MetadataQuery::AddProvider(std::shared_ptr<MetadataProvider> provider) {
  providers_.push_back(std::move(provider));
}

void MetadataQuery::SetCacheEnabled(bool enabled) {
  cache_enabled_ = enabled;
  ClearCache();
}

void MetadataQuery::ClearCache() {
  row_count_cache_.clear();
  cost_cache_.clear();
  cumulative_cost_cache_.clear();
  selectivity_cache_.clear();
  unique_cache_.clear();
  row_size_cache_.clear();
  distinct_cache_.clear();
  pinned_.clear();
}

double MetadataQuery::RowCount(const RelNodePtr& node) {
  if (cache_enabled_) {
    auto it = row_count_cache_.find(node.get());
    if (it != row_count_cache_.end()) return it->second;
  }
  double result = ComputeRowCount(node);
  if (cache_enabled_) {
    row_count_cache_[node.get()] = result;
    pinned_.push_back(node);
  }
  return result;
}

double MetadataQuery::ComputeRowCount(const RelNodePtr& node) {
  ++computation_count_;
  // Custom providers take precedence (most recently added first).
  for (auto it = providers_.rbegin(); it != providers_.rend(); ++it) {
    if (auto v = (*it)->RowCount(node, this)) return *v;
  }
  // Node-level override (adapter nodes, planner subsets, table stats).
  if (auto v = node->SelfRowCount(this)) return *v;

  if (const auto* scan = dynamic_cast<const TableScan*>(node.get())) {
    return scan->table()->GetStatistic().row_count.value_or(kDefaultTableRows);
  }
  if (const auto* filter = dynamic_cast<const Filter*>(node.get())) {
    return RowCount(node->input(0)) *
           Selectivity(node->input(0), filter->condition());
  }
  if (dynamic_cast<const Project*>(node.get()) != nullptr) {
    return RowCount(node->input(0));
  }
  if (const auto* join = dynamic_cast<const Join*>(node.get())) {
    double left = RowCount(node->input(0));
    double right = RowCount(node->input(1));
    std::vector<std::pair<int, int>> keys;
    std::vector<RexNodePtr> remaining;
    if (join->AnalyzeEquiKeys(&keys, &remaining)) {
      double base = EquiJoinRowCount(*join, keys);
      double remaining_sel = 1.0;
      for (const RexNodePtr& pred : remaining) {
        remaining_sel *= Selectivity(node, pred);
      }
      double rows = base * remaining_sel;
      if (join->join_type() == JoinType::kLeft ||
          join->join_type() == JoinType::kFull) {
        rows = std::max(rows, left);
      }
      if (join->join_type() == JoinType::kRight ||
          join->join_type() == JoinType::kFull) {
        rows = std::max(rows, right);
      }
      if (join->join_type() == JoinType::kSemi ||
          join->join_type() == JoinType::kAnti) {
        rows = std::min(rows, left);
      }
      return std::max(1.0, rows);
    }
    return std::max(1.0, left * right * Selectivity(node, join->condition()));
  }
  if (const auto* agg = dynamic_cast<const Aggregate*>(node.get())) {
    if (agg->group_keys().empty()) return 1.0;
    double input = RowCount(node->input(0));
    if (AreColumnsUnique(node->input(0), agg->group_keys())) return input;
    // Heuristic: grouping reduces cardinality; more keys retain more groups.
    double fraction =
        1.0 - std::pow(0.5, static_cast<double>(agg->group_keys().size()));
    return std::max(1.0, input * fraction);
  }
  if (const auto* sort = dynamic_cast<const Sort*>(node.get())) {
    double input = RowCount(node->input(0));
    if (sort->offset() > 0) {
      input = std::max(0.0, input - static_cast<double>(sort->offset()));
    }
    if (sort->fetch() >= 0) {
      input = std::min(input, static_cast<double>(sort->fetch()));
    }
    return input;
  }
  if (const auto* setop = dynamic_cast<const SetOp*>(node.get())) {
    double total = 0;
    double first = RowCount(node->input(0));
    for (const RelNodePtr& input : node->inputs()) {
      total += RowCount(input);
    }
    switch (setop->set_kind()) {
      case SetOp::Kind::kUnion:
        return setop->all() ? total : total * 0.8;
      case SetOp::Kind::kIntersect:
        return std::max(1.0, first * 0.5);
      case SetOp::Kind::kMinus:
        return std::max(1.0, first * 0.5);
    }
  }
  if (const auto* values = dynamic_cast<const Values*>(node.get())) {
    return static_cast<double>(values->tuples().size());
  }
  // Window, Delta, Converter: cardinality-preserving.
  if (node->num_inputs() == 1) return RowCount(node->input(0));
  return kDefaultTableRows;
}

double MetadataQuery::EquiJoinRowCount(
    const Join& join, const std::vector<std::pair<int, int>>& keys) {
  const RelNodePtr& left = join.input(0);
  const RelNodePtr& right = join.input(1);
  std::vector<int> left_cols;
  std::vector<int> right_cols;
  for (const auto& [l, r] : keys) {
    left_cols.push_back(l);
    right_cols.push_back(r);
  }
  const double left_rows = RowCount(left);
  const double right_rows = RowCount(right);
  // Each key value on the side with fewer distinct values meets
  // rows/ndv rows of the other side. Without stats or a key, a side is
  // guessed to have sqrt(rows) distinct values.
  const double left_ndv = DistinctRowCount(left, left_cols)
                              .value_or(std::sqrt(left_rows));
  const double right_ndv = DistinctRowCount(right, right_cols)
                               .value_or(std::sqrt(right_rows));
  double rows = left_rows * right_rows / std::max({1.0, left_ndv, right_ndv});
  // A unique key on one side makes the join a lookup: each row of the
  // other side matches at most once.
  if (AreColumnsUnique(left, left_cols)) rows = std::min(rows, right_rows);
  if (AreColumnsUnique(right, right_cols)) rows = std::min(rows, left_rows);
  return rows;
}

RelOptCost MetadataQuery::NonCumulativeCost(const RelNodePtr& node) {
  if (cache_enabled_) {
    auto it = cost_cache_.find(node.get());
    if (it != cost_cache_.end()) return it->second;
  }
  RelOptCost result = ComputeNonCumulativeCost(node);
  if (cache_enabled_) {
    cost_cache_[node.get()] = result;
    pinned_.push_back(node);
  }
  return result;
}

RelOptCost MetadataQuery::ComputeNonCumulativeCost(const RelNodePtr& node) {
  ++computation_count_;
  for (auto it = providers_.rbegin(); it != providers_.rend(); ++it) {
    if (auto v = (*it)->NonCumulativeCost(node, this)) return *v;
  }
  if (auto v = node->SelfCost(this)) return *v;

  // Logical operators have no implementation: infinite cost forces the
  // cost-based planner to convert everything to a physical convention.
  if (node->convention() == Convention::Logical()) {
    return RelOptCost::Infinite();
  }

  double factor = node->convention()->cost_factor();
  if (dynamic_cast<const TableScan*>(node.get()) != nullptr) {
    double rows = RowCount(node);
    return RelOptCost(rows, rows, rows) * factor;
  }
  if (dynamic_cast<const Filter*>(node.get()) != nullptr) {
    double input = RowCount(node->input(0));
    return RelOptCost(RowCount(node), input, 0) * factor;
  }
  if (const auto* project = dynamic_cast<const Project*>(node.get())) {
    double input = RowCount(node->input(0));
    double exprs = static_cast<double>(project->exprs().size());
    return RelOptCost(input, input * (0.1 + exprs * 0.05), 0) * factor;
  }
  if (dynamic_cast<const Join*>(node.get()) != nullptr) {
    // Default join cost: hash join style (build right, probe left).
    double left = RowCount(node->input(0));
    double right = RowCount(node->input(1));
    return RelOptCost(RowCount(node), left + right * 2, 0) * factor;
  }
  if (dynamic_cast<const Aggregate*>(node.get()) != nullptr) {
    double input = RowCount(node->input(0));
    return RelOptCost(RowCount(node), input * 1.5, 0) * factor;
  }
  if (dynamic_cast<const Sort*>(node.get()) != nullptr) {
    double input = RowCount(node->input(0));
    double cpu = input * std::max(1.0, std::log2(std::max(2.0, input)));
    return RelOptCost(input, cpu, 0) * factor;
  }
  if (dynamic_cast<const SetOp*>(node.get()) != nullptr) {
    double total = 0;
    for (const RelNodePtr& input : node->inputs()) total += RowCount(input);
    return RelOptCost(RowCount(node), total, 0) * factor;
  }
  if (dynamic_cast<const Values*>(node.get()) != nullptr) {
    return RelOptCost(RowCount(node), 0.1, 0);
  }
  if (dynamic_cast<const Window*>(node.get()) != nullptr) {
    double input = RowCount(node->input(0));
    double cpu = input * std::max(1.0, std::log2(std::max(2.0, input))) * 1.5;
    return RelOptCost(input, cpu, 0) * factor;
  }
  if (dynamic_cast<const Converter*>(node.get()) != nullptr) {
    // Crossing engines costs a transfer of the whole intermediate result —
    // this is the force that makes pushing work into backends attractive
    // (Figure 2).
    double rows = RowCount(node->input(0));
    return RelOptCost(rows, rows * 0.1, rows);
  }
  double rows = RowCount(node);
  return RelOptCost(rows, rows, 0) * factor;
}

RelOptCost MetadataQuery::CumulativeCost(const RelNodePtr& node) {
  if (cache_enabled_) {
    auto it = cumulative_cost_cache_.find(node.get());
    if (it != cumulative_cost_cache_.end()) return it->second;
  }
  RelOptCost result;
  if (auto v = node->SelfCumulativeCost(this)) {
    result = *v;
  } else {
    result = NonCumulativeCost(node);
    for (const RelNodePtr& input : node->inputs()) {
      result = result + CumulativeCost(input);
    }
  }
  if (cache_enabled_) {
    cumulative_cost_cache_[node.get()] = result;
    pinned_.push_back(node);
  }
  return result;
}

double MetadataQuery::Selectivity(const RelNodePtr& node,
                                  const RexNodePtr& predicate) {
  if (predicate == nullptr) return 1.0;
  std::string key;
  if (cache_enabled_) {
    key = std::to_string(reinterpret_cast<uintptr_t>(node.get())) + "/" +
          predicate->ToString();
    auto it = selectivity_cache_.find(key);
    if (it != selectivity_cache_.end()) return it->second;
  }
  double result = ComputeSelectivity(node, predicate);
  if (cache_enabled_) {
    selectivity_cache_[key] = result;
    pinned_.push_back(node);
  }
  return result;
}

double MetadataQuery::ComputeSelectivity(const RelNodePtr& node,
                                         const RexNodePtr& predicate) {
  ++computation_count_;
  for (auto it = providers_.rbegin(); it != providers_.rend(); ++it) {
    if (auto v = (*it)->Selectivity(node, predicate, this)) return *v;
  }
  if (RexUtil::IsLiteralTrue(predicate)) return 1.0;
  if (RexUtil::IsLiteralFalse(predicate)) return 0.0;
  const RexCall* call = AsCall(predicate);
  if (call == nullptr) return 0.5;
  switch (call->op()) {
    case OpKind::kEquals:
      return 0.15;
    case OpKind::kNotEquals:
      return 0.85;
    case OpKind::kLessThan:
    case OpKind::kLessThanOrEqual:
    case OpKind::kGreaterThan:
    case OpKind::kGreaterThanOrEqual:
      return 0.5;
    case OpKind::kIsNull:
      return 0.1;
    case OpKind::kIsNotNull:
      return 0.9;
    case OpKind::kLike:
      return 0.25;
    case OpKind::kIn:
      return std::min(1.0, 0.15 * static_cast<double>(
                                      call->operands().size() - 1));
    case OpKind::kBetween:
      return 0.35;
    case OpKind::kAnd: {
      double sel = 1.0;
      for (const RexNodePtr& operand : call->operands()) {
        sel *= Selectivity(node, operand);
      }
      return sel;
    }
    case OpKind::kOr: {
      double sel = 0.0;
      for (const RexNodePtr& operand : call->operands()) {
        sel = sel + Selectivity(node, operand) -
              sel * Selectivity(node, operand);
      }
      return sel;
    }
    case OpKind::kNot:
      return 1.0 - Selectivity(node, call->operand(0));
    default:
      return 0.25;
  }
}

bool MetadataQuery::AreColumnsUnique(const RelNodePtr& node,
                                     const std::vector<int>& columns) {
  std::string key;
  if (cache_enabled_) {
    key = ColumnsKey(node, columns);
    auto it = unique_cache_.find(key);
    if (it != unique_cache_.end()) return it->second;
  }
  bool result = ComputeAreColumnsUnique(node, columns);
  if (cache_enabled_) {
    unique_cache_[key] = result;
    pinned_.push_back(node);
  }
  return result;
}

bool MetadataQuery::ComputeAreColumnsUnique(const RelNodePtr& node,
                                            const std::vector<int>& columns) {
  ++computation_count_;
  for (auto it = providers_.rbegin(); it != providers_.rend(); ++it) {
    if (auto v = (*it)->AreColumnsUnique(node, columns, this)) return *v;
  }
  if (auto v = node->SelfColumnsUnique(this, columns)) return *v;
  if (columns.empty()) return false;
  if (const auto* scan = dynamic_cast<const TableScan*>(node.get())) {
    return scan->table()->GetStatistic().IsKey(columns);
  }
  if (dynamic_cast<const Filter*>(node.get()) != nullptr ||
      dynamic_cast<const Sort*>(node.get()) != nullptr ||
      dynamic_cast<const Delta*>(node.get()) != nullptr ||
      dynamic_cast<const Converter*>(node.get()) != nullptr) {
    return AreColumnsUnique(node->input(0), columns);
  }
  if (const auto* project = dynamic_cast<const Project*>(node.get())) {
    // Map output columns back to input columns; only pure references keep
    // uniqueness.
    std::vector<int> input_cols;
    for (int c : columns) {
      if (c < 0 || static_cast<size_t>(c) >= project->exprs().size()) {
        return false;
      }
      const RexInputRef* ref = AsInputRef(project->exprs()[static_cast<size_t>(c)]);
      if (ref == nullptr) return false;
      input_cols.push_back(ref->index());
    }
    return AreColumnsUnique(node->input(0), input_cols);
  }
  if (const auto* agg = dynamic_cast<const Aggregate*>(node.get())) {
    // The group keys (output fields 0..k-1) are unique by construction.
    size_t key_count = agg->group_keys().size();
    std::vector<bool> covered(key_count, false);
    for (int c : columns) {
      if (c >= 0 && static_cast<size_t>(c) < key_count) {
        covered[static_cast<size_t>(c)] = true;
      }
    }
    for (bool b : covered) {
      if (!b) return false;
    }
    return key_count > 0;
  }
  return false;
}

double MetadataQuery::AverageRowSize(const RelNodePtr& node) {
  if (cache_enabled_) {
    auto it = row_size_cache_.find(node.get());
    if (it != row_size_cache_.end()) return it->second;
  }
  double result = ComputeAverageRowSize(node);
  if (cache_enabled_) {
    row_size_cache_[node.get()] = result;
    pinned_.push_back(node);
  }
  return result;
}

double MetadataQuery::ComputeAverageRowSize(const RelNodePtr& node) {
  ++computation_count_;
  for (auto it = providers_.rbegin(); it != providers_.rend(); ++it) {
    if (auto v = (*it)->AverageRowSize(node, this)) return *v;
  }
  double size = 0;
  for (const RelDataTypeField& field : node->row_type()->fields()) {
    switch (field.type->type_name()) {
      case SqlTypeName::kBoolean:
        size += 1;
        break;
      case SqlTypeName::kTinyInt:
      case SqlTypeName::kSmallInt:
      case SqlTypeName::kInteger:
        size += 4;
        break;
      case SqlTypeName::kBigInt:
      case SqlTypeName::kDouble:
      case SqlTypeName::kFloat:
      case SqlTypeName::kDecimal:
      case SqlTypeName::kDate:
      case SqlTypeName::kTime:
      case SqlTypeName::kTimestamp:
      case SqlTypeName::kIntervalDay:
        size += 8;
        break;
      case SqlTypeName::kChar:
      case SqlTypeName::kVarchar:
        size += field.type->precision() > 0 ? field.type->precision() : 32;
        break;
      default:
        size += 16;
    }
  }
  return std::max(1.0, size);
}

std::optional<double> MetadataQuery::DistinctRowCount(
    const RelNodePtr& node, const std::vector<int>& columns) {
  std::string key;
  if (cache_enabled_) {
    key = ColumnsKey(node, columns);
    auto it = distinct_cache_.find(key);
    if (it != distinct_cache_.end()) return it->second;
  }
  std::optional<double> result = ComputeDistinctRowCount(node, columns);
  if (cache_enabled_) {
    distinct_cache_[key] = result;
    pinned_.push_back(node);
  }
  return result;
}

std::optional<double> MetadataQuery::ComputeDistinctRowCount(
    const RelNodePtr& node, const std::vector<int>& columns) {
  ++computation_count_;
  if (columns.empty()) return std::nullopt;
  const double rows = RowCount(node);
  if (AreColumnsUnique(node, columns)) return rows;
  if (auto v = node->SelfDistinctRowCount(this, columns)) return *v;
  // Operators that drop or reorder rows keep each column's values, so the
  // count is the input's, capped by the rows that remain.
  auto capped = [rows](std::optional<double> ndv) -> std::optional<double> {
    if (!ndv.has_value()) return std::nullopt;
    return std::max(1.0, std::min(*ndv, rows));
  };
  if (const auto* scan = dynamic_cast<const TableScan*>(node.get())) {
    TableStats stats = scan->table()->GetStatistic();
    if (!stats.analyzed()) return std::nullopt;
    // Independent columns: the product of their counts.
    double ndv = 1.0;
    for (int c : columns) {
      const ColumnStats* column = stats.column(c);
      if (column == nullptr || column->ndv <= 0) return std::nullopt;
      ndv *= column->ndv;
    }
    return capped(ndv);
  }
  if (dynamic_cast<const Filter*>(node.get()) != nullptr ||
      dynamic_cast<const Sort*>(node.get()) != nullptr) {
    return capped(DistinctRowCount(node->input(0), columns));
  }
  if (const auto* project = dynamic_cast<const Project*>(node.get())) {
    std::vector<int> input_cols;
    for (int c : columns) {
      if (c < 0 || static_cast<size_t>(c) >= project->exprs().size()) {
        return std::nullopt;
      }
      const RexInputRef* ref =
          AsInputRef(project->exprs()[static_cast<size_t>(c)]);
      if (ref == nullptr) return std::nullopt;
      input_cols.push_back(ref->index());
    }
    return capped(DistinctRowCount(node->input(0), input_cols));
  }
  if (dynamic_cast<const Join*>(node.get()) != nullptr) {
    // Columns from one input only; SEMI and ANTI joins emit only the left.
    const int left_count = node->input(0)->row_type()->field_count();
    std::vector<int> side_cols;
    bool all_left = true;
    bool all_right = true;
    for (int c : columns) {
      all_left = all_left && c < left_count;
      all_right = all_right && c >= left_count;
    }
    if (!all_left && !all_right) return std::nullopt;
    for (int c : columns) side_cols.push_back(all_left ? c : c - left_count);
    return capped(DistinctRowCount(node->input(all_left ? 0 : 1), side_cols));
  }
  return std::nullopt;
}

}  // namespace calcite
