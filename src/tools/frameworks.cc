#include "tools/frameworks.h"

#include <algorithm>
#include <set>

#include "adapters/enumerable/enumerable_rules.h"
#include "materialize/materialized_views.h"
#include "rel/rel_writer.h"
#include "rules/core_rules.h"
#include "sql/parser.h"
#include "sql/sql_to_rel.h"

namespace calcite {

namespace {

/// Converts the streaming Delta marker for batch execution: over a finite
/// (test) stream, the incoming-rows interpretation coincides with replaying
/// the stored events, so Delta acts as identity. Incremental semantics are
/// provided by stream::StreamExecutor (see src/stream).
class DeltaImplementationRule final : public ConverterRule {
 public:
  DeltaImplementationRule()
      : ConverterRule(Convention::Logical(), Convention::Enumerable()) {}

  std::string name() const override { return "DeltaImplementationRule"; }

  bool MatchesRoot(const RelNode& node) const override {
    return node.convention() == Convention::Logical() &&
           dynamic_cast<const Delta*>(&node) != nullptr;
  }

  void OnMatch(RelOptRuleCall* call) const override {
    RelNodePtr input = call->Convert(
        call->rel()->input(0), RelTraitSet(Convention::Enumerable()));
    if (input != nullptr) call->TransformTo(std::move(input));
  }
};

}  // namespace

std::string QueryResult::ToTable() const {
  std::vector<std::string> headers;
  std::vector<size_t> widths;
  for (const RelDataTypeField& field : row_type->fields()) {
    headers.push_back(field.name);
    widths.push_back(field.name.size());
  }
  std::vector<std::vector<std::string>> cells;
  for (const Row& row : rows) {
    std::vector<std::string> line;
    for (size_t i = 0; i < row.size(); ++i) {
      std::string text = row[i].ToString();
      if (i < widths.size()) widths[i] = std::max(widths[i], text.size());
      line.push_back(std::move(text));
    }
    cells.push_back(std::move(line));
  }
  auto pad = [](const std::string& s, size_t w) {
    std::string out = s;
    out.resize(w, ' ');
    return out;
  };
  std::string out;
  for (size_t i = 0; i < headers.size(); ++i) {
    out += (i ? " | " : "") + pad(headers[i], widths[i]);
  }
  out += "\n";
  for (size_t i = 0; i < headers.size(); ++i) {
    out += (i ? "-+-" : "") + std::string(widths[i], '-');
  }
  out += "\n";
  for (const auto& line : cells) {
    for (size_t i = 0; i < line.size(); ++i) {
      out += (i ? " | " : "") + pad(line[i], i < widths.size() ? widths[i]
                                                               : line[i].size());
    }
    out += "\n";
  }
  return out;
}

Connection::Connection(Config config) : config_(std::move(config)) {}

void Connection::CollectAdapterRules(
    const SchemaPtr& schema, std::vector<RelOptRulePtr>* rules,
    std::vector<const Convention*>* conventions) const {
  for (const RelOptRulePtr& rule : schema->AdapterRules()) {
    rules->push_back(rule);
  }
  if (schema->ScanConvention() != Convention::Enumerable() &&
      std::find(conventions->begin(), conventions->end(),
                schema->ScanConvention()) == conventions->end()) {
    conventions->push_back(schema->ScanConvention());
  }
  for (const std::string& name : schema->SubSchemaNames()) {
    CollectAdapterRules(schema->GetSubSchema(name), rules, conventions);
  }
}

std::vector<RelOptRulePtr> Connection::PhysicalRules() const {
  std::vector<RelOptRulePtr> rules = EnumerableConverterRules();
  rules.push_back(std::make_shared<DeltaImplementationRule>());
  std::vector<const Convention*> conventions;
  CollectAdapterRules(config_.schema, &rules, &conventions);
  for (const Convention* convention : conventions) {
    rules.push_back(MakeEnumerableInterpreterRule(convention));
  }
  for (const RelOptRulePtr& rule : config_.extra_rules) {
    rules.push_back(rule);
  }
  return rules;
}

Result<RelNodePtr> Connection::ParseQuery(const std::string& sql) {
  auto ast = SqlParser::Parse(sql);
  if (!ast.ok()) return ast.status();
  SqlToRelConverter converter(config_.schema, &context_);
  return converter.Convert(ast.value());
}

Result<RelNodePtr> Connection::OptimizePlan(const RelNodePtr& logical) {
  Program program;
  if (!config_.skip_logical_phase) {
    ProgramPhase logical_phase;
    logical_phase.name = "logical";
    logical_phase.engine = ProgramPhase::Engine::kHeuristic;
    logical_phase.rules = StandardLogicalRules();
    program.AddPhase(std::move(logical_phase));
    if (config_.materializations != nullptr) {
      // Substitution runs as its own phase over the normalized plan, so
      // view definitions (normalized the same way) match structurally.
      ProgramPhase substitution;
      substitution.name = "materialize";
      substitution.engine = ProgramPhase::Engine::kHeuristic;
      substitution.rules = {config_.materializations->SubstitutionRule()};
      program.AddPhase(std::move(substitution));
    }
  }
  ProgramPhase physical_phase;
  physical_phase.name = "physical";
  physical_phase.engine = ProgramPhase::Engine::kCostBased;
  physical_phase.rules = PhysicalRules();
  // Ordering is a physical trait (§4): a Sort and its input share one
  // equivalence set, so a query-level ORDER BY must be demanded through the
  // required root traits, exactly as Calcite's prepare step does.
  RelTraitSet required(Convention::Enumerable());
  if (const auto* sort = dynamic_cast<const Sort*>(logical.get())) {
    required = required.WithCollation(sort->collation());
  }
  physical_phase.required_traits = required;
  physical_phase.volcano_options = config_.volcano_options;
  program.AddPhase(std::move(physical_phase));
  return program.Run(logical, &context_);
}

Result<QueryResult> Connection::ExecutePlan(const RelNodePtr& physical) {
  // Pull the plan's batch pipeline to completion; the public QueryResult
  // surface stays materialized regardless of the configured batch size.
  // Options are normalized here so invalid settings (batch_size = 0,
  // num_threads = 0) clamp once at the engine boundary.
  auto puller = physical->ExecuteBatched(config_.exec_options.Normalized());
  if (!puller.ok()) return puller.status();
  auto rows = DrainBatches(puller.value());
  if (!rows.ok()) return rows.status();
  return QueryResult{physical->row_type(), std::move(rows).value()};
}

Result<QueryResult> Connection::Query(const std::string& sql) {
  auto logical = ParseQuery(sql);
  if (!logical.ok()) return logical.status();
  auto physical = OptimizePlan(logical.value());
  if (!physical.ok()) return physical.status();
  return ExecutePlan(physical.value());
}

Result<std::string> Connection::Explain(const std::string& sql,
                                        bool optimized,
                                        bool include_traits) {
  auto logical = ParseQuery(sql);
  if (!logical.ok()) return logical.status();
  if (!optimized) return ExplainPlan(logical.value(), include_traits);
  auto physical = OptimizePlan(logical.value());
  if (!physical.ok()) return physical.status();
  return ExplainPlan(physical.value(), include_traits);
}

}  // namespace calcite
