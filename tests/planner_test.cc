#include <gtest/gtest.h>

#include "adapters/enumerable/enumerable_rels.h"
#include "adapters/enumerable/enumerable_rules.h"
#include "plan/hep_planner.h"
#include "plan/programs.h"
#include "plan/volcano_planner.h"
#include "rel/rel_writer.h"
#include "rules/core_rules.h"
#include "test_schema.h"
#include "tools/frameworks.h"
#include "tools/rel_builder.h"

namespace calcite {
namespace {

using testing::MakeTestSchema;

class PlannerTest : public ::testing::Test {
 protected:
  SchemaPtr schema_ = MakeTestSchema();
  PlannerContext context_;

  /// The Figure 4 query: sales JOIN products ON productId WHERE
  /// discount IS NOT NULL, grouped by product name.
  RelNodePtr BuildFigure4Plan() {
    RelBuilder b(schema_);
    b.Scan("sales").Scan("products");
    RexNodePtr cond =
        b.Equals(b.Field(1, "productId"), b.Field(0, "productId"));
    b.Join(JoinType::kInner, cond);
    b.Filter(b.Call(OpKind::kIsNotNull, {b.Field("discount")}));
    b.Aggregate(b.GroupKey({"name"}), {b.Count(false, "c")});
    auto result = b.Build();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result.value() : nullptr;
  }
};

TEST_F(PlannerTest, HepPlannerPushesFilterIntoJoin) {
  RelNodePtr plan = BuildFigure4Plan();
  ASSERT_NE(plan, nullptr);

  HepPlanner planner(StandardLogicalRules(), &context_);
  auto optimized = planner.Optimize(plan);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  EXPECT_GT(planner.rule_fire_count(), 0);

  // After FilterIntoJoinRule the filter must sit below the join, directly
  // over the sales scan (Figure 4b).
  std::string explain = ExplainPlan(optimized.value());
  size_t join_pos = explain.find("LogicalJoin");
  size_t filter_pos = explain.find("LogicalFilter");
  ASSERT_NE(join_pos, std::string::npos) << explain;
  ASSERT_NE(filter_pos, std::string::npos) << explain;
  EXPECT_GT(filter_pos, join_pos) << explain;
}

TEST_F(PlannerTest, VolcanoProducesExecutableEnumerablePlan) {
  RelNodePtr plan = BuildFigure4Plan();
  ASSERT_NE(plan, nullptr);

  std::vector<RelOptRulePtr> rules = StandardLogicalRules();
  for (auto& rule : EnumerableConverterRules()) rules.push_back(rule);

  VolcanoPlanner planner(rules, &context_);
  auto optimized =
      planner.Optimize(plan, RelTraitSet(Convention::Enumerable()));
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  EXPECT_FALSE(planner.best_cost().IsInfinite());

  auto rows = optimized.value()->Execute();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // sales has 4 rows with non-null discount: products 1 (x1), 2 (x2), 3 (x1).
  ASSERT_EQ(rows.value().size(), 3u);
  int64_t total = 0;
  for (const Row& row : rows.value()) {
    ASSERT_EQ(row.size(), 2u);
    total += row[1].AsInt();
  }
  EXPECT_EQ(total, 4);
}

TEST_F(PlannerTest, VolcanoMatchesUnoptimizedResults) {
  // Plan-invariance: the optimized plan returns the same rows as naive
  // enumerable conversion without logical rewrites.
  RelNodePtr plan = BuildFigure4Plan();
  ASSERT_NE(plan, nullptr);

  VolcanoPlanner naive(EnumerableConverterRules(), &context_);
  auto naive_plan = naive.Optimize(plan, RelTraitSet(Convention::Enumerable()));
  ASSERT_TRUE(naive_plan.ok()) << naive_plan.status().ToString();
  auto naive_rows = naive_plan.value()->Execute();
  ASSERT_TRUE(naive_rows.ok());

  std::vector<RelOptRulePtr> rules = StandardLogicalRules();
  for (auto& rule : EnumerableConverterRules()) rules.push_back(rule);
  PlannerContext context2;
  VolcanoPlanner full(rules, &context2);
  auto full_plan = full.Optimize(plan, RelTraitSet(Convention::Enumerable()));
  ASSERT_TRUE(full_plan.ok()) << full_plan.status().ToString();
  auto full_rows = full_plan.value()->Execute();
  ASSERT_TRUE(full_rows.ok());

  auto sort_rows = [](std::vector<Row> rows) {
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return RowToString(a) < RowToString(b);
    });
    return rows;
  };
  EXPECT_EQ(sort_rows(naive_rows.value()).size(),
            sort_rows(full_rows.value()).size());
  auto a = sort_rows(naive_rows.value());
  auto b = sort_rows(full_rows.value());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(RowToString(a[i]), RowToString(b[i]));
  }
}

TEST_F(PlannerTest, StandardProgramRunsBothPhases) {
  RelNodePtr plan = BuildFigure4Plan();
  ASSERT_NE(plan, nullptr);
  Program program = Program::Standard(StandardLogicalRules(),
                                      EnumerableConverterRules(),
                                      RelTraitSet(Convention::Enumerable()));
  auto optimized = program.Run(plan, &context_);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  auto rows = optimized.value()->Execute();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value().size(), 3u);
}

TEST_F(PlannerTest, DeltaModeStopsEarlierThanExhaustive) {
  // Join-reorder exploration on a 4-way join: the δ-threshold fixpoint
  // should fire no more rules than the exhaustive one.
  RelBuilder b(schema_);
  b.Scan("sales").Scan("products");
  b.Join(JoinType::kInner,
         b.Equals(b.Field(1, "productId"), b.Field(0, "productId")));
  b.Scan("emps");
  b.Join(JoinType::kInner, b.Equals(b.Field(1, "saleid"), b.Field(0, "empid")));
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  std::vector<RelOptRulePtr> rules = JoinReorderRules();
  for (auto& rule : EnumerableConverterRules()) rules.push_back(rule);

  PlannerContext c1;
  VolcanoPlanner::Options exhaustive_opts;
  exhaustive_opts.exhaustive = true;
  VolcanoPlanner exhaustive(rules, &c1, exhaustive_opts);
  auto p1 = exhaustive.Optimize(plan.value(),
                                RelTraitSet(Convention::Enumerable()));
  ASSERT_TRUE(p1.ok()) << p1.status().ToString();

  PlannerContext c2;
  VolcanoPlanner::Options delta_opts;
  delta_opts.exhaustive = false;
  delta_opts.cost_improvement_delta = 0.5;
  delta_opts.delta_window = 5;
  VolcanoPlanner delta(rules, &c2, delta_opts);
  auto p2 = delta.Optimize(plan.value(),
                           RelTraitSet(Convention::Enumerable()));
  ASSERT_TRUE(p2.ok()) << p2.status().ToString();

  EXPECT_LE(delta.rule_fire_count(), exhaustive.rule_fire_count());
  // Both must execute and agree on the result size.
  auto r1 = p1.value()->Execute();
  auto r2 = p2.value()->Execute();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().size(), r2.value().size());
}

TEST_F(PlannerTest, EquivalenceSetsDeduplicate) {
  RelNodePtr plan = BuildFigure4Plan();
  std::vector<RelOptRulePtr> rules = StandardLogicalRules();
  for (auto& rule : JoinReorderRules()) rules.push_back(rule);
  for (auto& rule : EnumerableConverterRules()) rules.push_back(rule);
  VolcanoPlanner planner(rules, &context_);
  auto optimized =
      planner.Optimize(plan, RelTraitSet(Convention::Enumerable()));
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  // The memo must contain more expressions than sets (alternatives grouped
  // into equivalence classes).
  EXPECT_GT(planner.expr_count(), planner.set_count());
}

// ------------------------ join build side and ON push ----------------------

/// The test schema with every table's row count scaled by 1000: at three
/// to six rows a nested-loop join costs less than any hash join, so the
/// build-side choice only shows at realistic sizes. Only estimates change;
/// these plans are not executed.
SchemaPtr ScaledTestSchema() {
  SchemaPtr schema = MakeTestSchema();
  for (const std::string& name : schema->TableNames()) {
    auto* table = dynamic_cast<MemTable*>(schema->GetTable(name).get());
    if (table == nullptr) continue;
    TableStats stats = table->GetStatistic();
    stats.row_count = *stats.row_count * 1000;
    table->set_statistic(std::move(stats));
  }
  return schema;
}

/// Optimizes `sql` over the scaled test schema, as Connection::Query
/// would.
RelNodePtr OptimizeSql(const std::string& sql) {
  Connection conn{Connection::Config{ScaledTestSchema()}};
  auto logical = conn.ParseQuery(sql);
  EXPECT_TRUE(logical.ok()) << logical.status().ToString();
  if (!logical.ok()) return nullptr;
  auto physical = conn.OptimizePlan(logical.value());
  EXPECT_TRUE(physical.ok()) << physical.status().ToString();
  return physical.ok() ? physical.value() : nullptr;
}

void CollectHashJoins(const RelNodePtr& node,
                      std::vector<const EnumerableHashJoin*>* out) {
  if (const auto* join = dynamic_cast<const EnumerableHashJoin*>(node.get())) {
    out->push_back(join);
  }
  for (const RelNodePtr& input : node->inputs()) CollectHashJoins(input, out);
}

/// The table names scanned under `node`, left to right.
std::string Scans(const RelNodePtr& node) {
  if (const auto* scan = dynamic_cast<const TableScan*>(node.get())) {
    return scan->qualified_name().back();
  }
  std::string out;
  for (const RelNodePtr& input : node->inputs()) {
    std::string child = Scans(input);
    if (!out.empty() && !child.empty()) out += ",";
    out += child;
  }
  return out;
}

/// The hash joins of `plan`, top-down, each asserted to build (right
/// input) on the side with fewer estimated bytes.
std::vector<const EnumerableHashJoin*> BuildSidesAreSmaller(
    const RelNodePtr& plan) {
  std::vector<const EnumerableHashJoin*> joins;
  CollectHashJoins(plan, &joins);
  MetadataQuery mq;
  for (const EnumerableHashJoin* join : joins) {
    EXPECT_LE(EnumerableHashJoin::BuildBytes(&mq, join->input(1)),
              EnumerableHashJoin::BuildBytes(&mq, join->input(0)))
        << ExplainPlan(plan);
  }
  return joins;
}

TEST(JoinPlanShapeTest, LeftJoinPushesRightConjunctAndBuildsOnSmallerSide) {
  // The a_left_join shape: the right-only ON conjunct filters emps below
  // the join, and the smaller depts becomes the build side, so LEFT turns
  // into RIGHT over swapped inputs.
  RelNodePtr plan = OptimizeSql(
      "SELECT d.deptno, d.dept_name, COUNT(e.empid) AS n FROM depts d "
      "LEFT JOIN emps e ON d.deptno = e.deptno AND e.salary > 8000 "
      "GROUP BY d.deptno, d.dept_name");
  ASSERT_NE(plan, nullptr);
  std::vector<const EnumerableHashJoin*> joins = BuildSidesAreSmaller(plan);
  ASSERT_EQ(joins.size(), 1u) << ExplainPlan(plan);
  EXPECT_EQ(joins[0]->join_type(), JoinType::kRight) << ExplainPlan(plan);
  EXPECT_EQ(Scans(joins[0]->input(1)), "depts") << ExplainPlan(plan);
  const auto* filter = dynamic_cast<const Filter*>(joins[0]->input(0).get());
  ASSERT_NE(filter, nullptr) << ExplainPlan(plan);
  EXPECT_EQ(Scans(joins[0]->input(0)), "emps");
  // Only the key is left in the join condition.
  std::vector<std::pair<int, int>> keys;
  std::vector<RexNodePtr> remaining;
  EXPECT_TRUE(joins[0]->AnalyzeEquiKeys(&keys, &remaining));
  EXPECT_TRUE(remaining.empty()) << ExplainPlan(plan);
}

TEST(JoinPlanShapeTest, KeyRangeSideBecomesTheBuildSide) {
  // The d_join2 shape: a key-range filter leaves few depts rows, written
  // on the left; the hash table is built on them, not on emps.
  RelNodePtr plan = OptimizeSql(
      "SELECT d.dept_name, COUNT(*) AS c FROM depts d JOIN emps e "
      "ON d.deptno = e.deptno WHERE d.deptno >= 20 AND d.deptno < 30 "
      "GROUP BY d.dept_name");
  ASSERT_NE(plan, nullptr);
  std::vector<const EnumerableHashJoin*> joins = BuildSidesAreSmaller(plan);
  ASSERT_EQ(joins.size(), 1u) << ExplainPlan(plan);
  EXPECT_EQ(joins[0]->join_type(), JoinType::kInner);
  EXPECT_EQ(Scans(joins[0]->input(0)), "emps") << ExplainPlan(plan);
  EXPECT_EQ(Scans(joins[0]->input(1)), "depts") << ExplainPlan(plan);
}

TEST(JoinPlanShapeTest, ThreeWayJoinBuildsOnTheFilteredPair) {
  // The a_join3_topk shape: two filtered tables joined first, then a
  // larger table on the right. Both joins build on their smaller side, so
  // the pair is the top join's build side and sales its probe side.
  RelNodePtr plan = OptimizeSql(
      "SELECT e.name, SUM(s.units) AS u FROM depts d JOIN emps e "
      "ON d.deptno = e.deptno JOIN sales s ON s.saleid = e.empid "
      "WHERE d.dept_name = 'Sales' AND e.salary > 9000 AND e.empid < 150 "
      "GROUP BY e.name");
  ASSERT_NE(plan, nullptr);
  std::vector<const EnumerableHashJoin*> joins = BuildSidesAreSmaller(plan);
  ASSERT_EQ(joins.size(), 2u) << ExplainPlan(plan);
  EXPECT_EQ(Scans(joins[0]->input(0)), "sales") << ExplainPlan(plan);
  EXPECT_EQ(Scans(joins[0]->input(1)), "emps,depts") << ExplainPlan(plan);
}

TEST(JoinPlanShapeTest, JoinConditionPushRespectsOuterJoinSides) {
  // Hep alone: a LEFT join keeps its left-only conjunct (it decides
  // padding) and pushes the right-only one; FULL keeps both.
  struct Case {
    const char* sql;
    const char* kept;    // conjunct text left in the condition
    int filters;         // Filters under the join
  };
  const Case cases[] = {
      {"SELECT * FROM depts d LEFT JOIN emps e ON d.deptno = e.deptno "
       "AND d.dept_name = 'Sales' AND e.salary > 8000",
       "'Sales'", 1},
      {"SELECT * FROM depts d RIGHT JOIN emps e ON d.deptno = e.deptno "
       "AND d.dept_name = 'Sales' AND e.salary > 8000",
       "8000", 1},
      {"SELECT * FROM depts d JOIN emps e ON d.deptno = e.deptno "
       "AND d.dept_name = 'Sales' AND e.salary > 8000",
       nullptr, 2},
      {"SELECT * FROM depts d FULL JOIN emps e ON d.deptno = e.deptno "
       "AND d.dept_name = 'Sales' AND e.salary > 8000",
       "8000", 0},
  };
  for (const Case& c : cases) {
    Connection conn{Connection::Config{MakeTestSchema()}};
    auto logical = conn.ParseQuery(c.sql);
    ASSERT_TRUE(logical.ok()) << logical.status().ToString();
    PlannerContext context;
    HepPlanner hep(StandardLogicalRules(), &context);
    auto rewritten = hep.Optimize(logical.value());
    ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
    const std::string explain = ExplainPlan(rewritten.value());
    const size_t join_pos = explain.find("LogicalJoin");
    ASSERT_NE(join_pos, std::string::npos) << explain;
    const std::string join_line =
        explain.substr(join_pos, explain.find('\n', join_pos) - join_pos);
    if (c.kept != nullptr) {
      EXPECT_NE(join_line.find(c.kept), std::string::npos) << explain;
    } else {
      EXPECT_EQ(join_line.find("AND"), std::string::npos) << explain;
    }
    int filters = 0;
    for (size_t pos = explain.find("LogicalFilter", join_pos);
         pos != std::string::npos;
         pos = explain.find("LogicalFilter", pos + 1)) {
      ++filters;
    }
    EXPECT_EQ(filters, c.filters) << c.sql << "\n" << explain;
  }
}

}  // namespace
}  // namespace calcite
