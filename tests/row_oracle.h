// A test-local, row-at-a-time reference evaluator for physical plans. The
// engine evaluates expressions only over ColumnBatches (the per-node
// RexColumnar kernels, then per-row Eval for nodes they do not cover);
// this oracle evaluates Filter, Project and Aggregate nodes itself, one row
// at a time through RexInterpreter::Eval / EvalPredicate and AggAccumulator,
// so the differential suites compare the columnar path against plain row
// semantics. Joins are evaluated as nested loops over the oracle's own
// input rows with the join condition evaluated per combined row. A table
// scan, logical or physical, reads its table's rows, so the oracle also
// evaluates an unoptimized logical plan: the reference for rewrite rules.
// Any other node (sort, set op, values, window, converters) contributes
// its own serial output: those operators evaluate no expressions.

#ifndef CALCITE_TESTS_ROW_ORACLE_H_
#define CALCITE_TESTS_ROW_ORACLE_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "adapters/enumerable/aggregates.h"
#include "adapters/enumerable/enumerable_rels.h"
#include "rel/core.h"
#include "rex/rex_interpreter.h"

namespace calcite {
namespace testing {

inline Result<std::vector<Row>> OracleRows(const RelNodePtr& node) {
  if (const auto* filter = dynamic_cast<const Filter*>(node.get())) {
    CALCITE_ASSIGN_OR_RETURN(std::vector<Row> in,
                             OracleRows(filter->input(0)));
    std::vector<Row> out;
    for (Row& row : in) {
      CALCITE_ASSIGN_OR_RETURN(
          bool pass, RexInterpreter::EvalPredicate(filter->condition(), row));
      if (pass) out.push_back(std::move(row));
    }
    return out;
  }
  if (const auto* project = dynamic_cast<const Project*>(node.get())) {
    CALCITE_ASSIGN_OR_RETURN(std::vector<Row> in,
                             OracleRows(project->input(0)));
    std::vector<Row> out;
    out.reserve(in.size());
    for (const Row& row : in) {
      Row projected;
      for (const RexNodePtr& expr : project->exprs()) {
        CALCITE_ASSIGN_OR_RETURN(Value v, RexInterpreter::Eval(expr, row));
        projected.push_back(std::move(v));
      }
      out.push_back(std::move(projected));
    }
    return out;
  }
  if (const auto* agg = dynamic_cast<const Aggregate*>(node.get())) {
    CALCITE_ASSIGN_OR_RETURN(std::vector<Row> in, OracleRows(agg->input(0)));
    // First-seen group order, like every engine path.
    std::unordered_map<Row, size_t, RowHash> index;
    std::vector<Row> keys;
    std::vector<std::vector<AggAccumulator>> accs;
    for (const Row& row : in) {
      Row key;
      for (int k : agg->group_keys()) key.push_back(row[static_cast<size_t>(k)]);
      auto it = index.find(key);
      size_t group = it != index.end() ? it->second : keys.size();
      if (it == index.end()) {
        index.emplace(key, group);
        keys.push_back(key);
        accs.emplace_back();
        for (const AggregateCall& call : agg->agg_calls()) {
          accs.back().emplace_back(call);
        }
      }
      for (AggAccumulator& acc : accs[group]) {
        CALCITE_RETURN_IF_ERROR(acc.Add(row));
      }
    }
    if (agg->group_keys().empty() && keys.empty()) {
      keys.emplace_back();
      accs.emplace_back();
      for (const AggregateCall& call : agg->agg_calls()) {
        accs.back().emplace_back(call);
      }
    }
    std::vector<Row> out;
    for (size_t g = 0; g < keys.size(); ++g) {
      Row row = keys[g];
      for (const AggAccumulator& acc : accs[g]) row.push_back(acc.Finish());
      out.push_back(std::move(row));
    }
    return out;
  }
  if (const auto* join = dynamic_cast<const Join*>(node.get())) {
    CALCITE_ASSIGN_OR_RETURN(std::vector<Row> left, OracleRows(join->input(0)));
    CALCITE_ASSIGN_OR_RETURN(std::vector<Row> right,
                             OracleRows(join->input(1)));
    const JoinType type = join->join_type();
    const size_t left_width = join->input(0)->row_type()->fields().size();
    const size_t right_width = join->input(1)->row_type()->fields().size();
    std::vector<bool> right_matched(right.size(), false);
    std::vector<Row> out;
    for (Row& lrow : left) {
      bool matched = false;
      for (size_t r = 0; r < right.size(); ++r) {
        Row combined = ConcatRows(lrow, right[r]);
        CALCITE_ASSIGN_OR_RETURN(
            bool pass, RexInterpreter::EvalPredicate(join->condition(), combined));
        if (!pass) continue;
        matched = true;
        right_matched[r] = true;
        if (JoinEmitsCombinedRows(type)) out.push_back(std::move(combined));
        if (type == JoinType::kSemi) break;
      }
      JoinEmitPerLeftRow(
          type, matched, [&]() -> Row& { return lrow; }, right_width, &out);
    }
    if (type == JoinType::kRight || type == JoinType::kFull) {
      for (size_t r = 0; r < right.size(); ++r) {
        if (!right_matched[r]) out.push_back(PadNullLeft(left_width, right[r]));
      }
    }
    return out;
  }
  if (const auto* scan = dynamic_cast<const TableScan*>(node.get())) {
    return scan->table()->Scan();
  }
  return node->Execute();
}

}  // namespace testing
}  // namespace calcite

#endif  // CALCITE_TESTS_ROW_ORACLE_H_
