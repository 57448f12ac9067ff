#ifndef CALCITE_TOOLS_FRAMEWORKS_H_
#define CALCITE_TOOLS_FRAMEWORKS_H_

#include <memory>
#include <string>
#include <vector>

#include "plan/programs.h"
#include "plan/rule.h"
#include "rel/core.h"
#include "schema/schema.h"
#include "util/status.h"

namespace calcite {

class MaterializationCatalog;

/// A materialized query result: row type plus rows.
struct QueryResult {
  RelDataTypePtr row_type;
  std::vector<Row> rows;

  /// Renders an aligned text table (column headers + rows), like a CLI
  /// result grid.
  std::string ToTable() const;
};

/// The embedder's entry point — the analogue of Calcite's Frameworks /
/// JDBC connection (Figure 1): it wires the parser, validator, converter,
/// optimizer (multi-stage program over both planner engines) and the
/// enumerable executor over a root schema. Adapter schemas mounted under the
/// root contribute their push-down rules and calling conventions
/// automatically (§5).
class Connection {
 public:
  /// Every member has a default initializer, so `Config{schema}` names
  /// the schema and leaves the rest at their defaults.
  struct Config {
    SchemaPtr schema;
    /// Cost-based phase options (fixpoint mode, δ threshold...).
    VolcanoPlanner::Options volcano_options{};
    /// Extra planner rules for the cost-based phase.
    std::vector<RelOptRulePtr> extra_rules{};
    /// Materialized views available for query rewriting (§6); the
    /// substitution rule joins the logical phase when set.
    const MaterializationCatalog* materializations = nullptr;
    /// Skip the heuristic logical phase (for experiments).
    bool skip_logical_phase = false;
    /// Runtime options for the batched enumerable executor: rows per
    /// RowBatch (batch_size = 1 reproduces row-at-a-time execution) and the
    /// worker-thread count of the morsel-driven parallel executor
    /// (num_threads = 1, the default, keeps execution fully serial and
    /// deterministic; > 1 parallelizes eligible scan/aggregate/join
    /// fragments at the cost of row-order determinism within them).
    ExecOptions exec_options{};
  };

  explicit Connection(Config config);

  PlannerContext* context() { return &context_; }
  const SchemaPtr& schema() const { return config_.schema; }

  /// SQL -> logical plan (parse + validate + convert).
  Result<RelNodePtr> ParseQuery(const std::string& sql);

  /// Logical plan -> physical (enumerable-rooted) plan via the standard
  /// two-phase program.
  Result<RelNodePtr> OptimizePlan(const RelNodePtr& logical);

  /// Full pipeline: SQL -> optimized plan -> rows.
  Result<QueryResult> Query(const std::string& sql);

  /// Executes an already-optimized physical plan.
  Result<QueryResult> ExecutePlan(const RelNodePtr& physical);

  /// EXPLAIN: the logical or optimized plan as text.
  Result<std::string> Explain(const std::string& sql, bool optimized,
                              bool include_traits = false);

  /// All rules the optimizer will use (standard + adapter + extra).
  std::vector<RelOptRulePtr> PhysicalRules() const;

 private:
  void CollectAdapterRules(const SchemaPtr& schema,
                           std::vector<RelOptRulePtr>* rules,
                           std::vector<const Convention*>* conventions) const;

  Config config_;
  PlannerContext context_;
};

}  // namespace calcite

#endif  // CALCITE_TOOLS_FRAMEWORKS_H_
