#include "src/exec/plan_executor.h"

#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "src/exec/executor.h"
#include "src/storage/datagen.h"
#include "src/util/parallel.h"
#include "src/workload/generator.h"

namespace lce {
namespace exec {
namespace {

class PlanExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = storage::datagen::Generate(storage::datagen::TpchLikeSpec(0.04), 1);
    analytic_ = std::make_unique<Executor>(db_.get());
    planner_ = std::make_unique<opt::Planner>(db_.get(), opt::CostModel{});
    physical_ = std::make_unique<PlanExecutor>(db_.get());
  }

  opt::Plan PlanFor(const query::Query& q) {
    opt::CardFn cards = [&](const std::vector<int>& tables) {
      return analytic_->SubsetCardinality(q, tables);
    };
    return planner_->BestPlan(q, cards);
  }

  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<Executor> analytic_;
  std::unique_ptr<opt::Planner> planner_;
  std::unique_ptr<PlanExecutor> physical_;
};

TEST_F(PlanExecutorTest, SingleTableScanCountsFilteredRows) {
  query::Query q;
  q.tables = {0};
  q.predicates = {{{0, 1}, 0, 10}};
  auto stats = physical_->Execute(q, PlanFor(q));
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats.value().result, analytic_->Cardinality(q));
  EXPECT_EQ(stats.value().tuples_scanned, db_->table(0).num_rows());
  EXPECT_EQ(stats.value().tuples_built, 0u);
}

TEST_F(PlanExecutorTest, ExecutedJoinCountMatchesAnalyticOracle) {
  workload::WorkloadOptions opts;
  opts.max_joins = 3;
  workload::WorkloadGenerator gen(db_.get(), opts);
  Rng rng(2);
  int executed = 0;
  for (const auto& lq : gen.GenerateLabeled(40, &rng)) {
    auto stats = physical_->Execute(lq.q, PlanFor(lq.q));
    ASSERT_TRUE(stats.ok()) << query::ToSql(lq.q, db_->schema());
    EXPECT_DOUBLE_EQ(stats.value().result, lq.cardinality)
        << query::ToSql(lq.q, db_->schema());
    ++executed;
  }
  EXPECT_EQ(executed, 40);
}

TEST_F(PlanExecutorTest, ExecutedCountIsPlanShapeInvariant) {
  // The answer must not depend on which (valid) plan executes the query.
  query::Query q;
  q.tables = {0, 3, 4};  // customer ⋈ orders ⋈ lineitem
  q.join_edges = {0, 1};
  q.predicates = {{{0, 1}, 0, 10}};
  opt::CardFn cards = [&](const std::vector<int>& tables) {
    return analytic_->SubsetCardinality(q, tables);
  };
  opt::Plan dp = planner_->BestPlan(q, cards);
  opt::Plan greedy = planner_->GreedyPlan(q, cards);
  auto a = physical_->Execute(q, dp);
  auto b = physical_->Execute(q, greedy);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a.value().result, b.value().result);
}

TEST_F(PlanExecutorTest, WorkStatisticsAreCoherent) {
  query::Query q;
  q.tables = {0, 3};
  q.join_edges = {0};
  auto stats = physical_->Execute(q, PlanFor(q));
  ASSERT_TRUE(stats.ok());
  const ExecStats& s = stats.value();
  EXPECT_EQ(s.tuples_scanned,
            db_->table(0).num_rows() + db_->table(3).num_rows());
  // Build side is the smaller filtered input.
  EXPECT_LE(s.tuples_built, std::max(db_->table(0).num_rows(),
                                     db_->table(3).num_rows()));
  EXPECT_GE(s.tuples_output, static_cast<uint64_t>(s.result));
  EXPECT_GE(s.peak_intermediate, static_cast<uint64_t>(s.result));
  EXPECT_EQ(s.TotalWork(),
            s.tuples_scanned + s.tuples_built + s.tuples_probed +
                s.tuples_output);
}

TEST_F(PlanExecutorTest, BudgetGuardAbortsExplodingPlans) {
  query::Query q;
  q.tables = {0, 3, 4};
  q.join_edges = {0, 1};
  PlanExecutor::Options opts;
  opts.max_intermediate_tuples = 10;  // absurdly small on purpose
  PlanExecutor tiny(db_.get(), opts);
  auto stats = tiny.Execute(q, PlanFor(q));
  EXPECT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("budget"), std::string::npos);
}

// Every intermediate of a plan is the query restricted to the node's tables,
// so the oracle's subset counts predict the executor's statistics exactly.
struct PredictedStats {
  ExecStats stats;
  uint64_t root = 0;        // root node's output size
  uint64_t inner_peak = 0;  // largest non-root join output
};

PredictedStats Predict(const Executor& oracle, const storage::Database& db,
                       const query::Query& q, const opt::Plan& plan) {
  PredictedStats p;
  auto visit = [&](auto&& self, int id) -> uint64_t {
    const opt::PlanNode& n = plan.nodes[id];
    std::vector<int> tables;
    for (size_t pos = 0; pos < q.tables.size(); ++pos) {
      if (n.mask & (1u << pos)) tables.push_back(q.tables[pos]);
    }
    const auto size =
        static_cast<uint64_t>(oracle.SubsetCardinality(q, tables));
    if (n.IsLeaf()) {
      p.stats.tuples_scanned += db.table(n.table).num_rows();
    } else {
      uint64_t l = self(self, n.left);
      uint64_t r = self(self, n.right);
      p.stats.tuples_built += std::min(l, r);
      p.stats.tuples_probed += std::max(l, r);
      p.stats.tuples_output += size;
      if (id != plan.root) p.inner_peak = std::max(p.inner_peak, size);
    }
    p.stats.peak_intermediate = std::max(p.stats.peak_intermediate, size);
    return size;
  };
  p.root = visit(visit, plan.root);
  p.stats.result = static_cast<double>(p.root);
  return p;
}

// (database, thread count)
class OraclePredictsExecStatsTest
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {
 protected:
  void TearDown() override { parallel::SetThreadCountForTesting(0); }
};

TEST_P(OraclePredictsExecStatsTest, DpAndGreedyPlans) {
  const auto [name, threads] = GetParam();
  parallel::SetThreadCountForTesting(threads);
  const bool tpch = std::string(name) == "tpch";
  auto db = storage::datagen::Generate(
      tpch ? storage::datagen::TpchLikeSpec(0.02)
           : storage::datagen::StatsLikeSpec(0.04),
      7);
  Executor oracle(db.get());
  opt::Planner planner(db.get(), opt::CostModel{});
  workload::WorkloadOptions wopts;
  wopts.max_joins = 4;
  workload::WorkloadGenerator gen(db.get(), wopts);
  Rng rng(11);

  int joins = 0;
  for (const query::LabeledQuery& lq : gen.GenerateLabeled(30, &rng)) {
    const query::Query& q = lq.q;
    opt::CardFn cards = [&](const std::vector<int>& tables) {
      return oracle.SubsetCardinality(q, tables);
    };
    for (const opt::Plan& plan :
         {planner.BestPlan(q, cards), planner.GreedyPlan(q, cards)}) {
      const ExecStats want = Predict(oracle, *db, q, plan).stats;
      auto got = PlanExecutor(db.get()).Execute(q, plan);
      const std::string sql = query::ToSql(q, db->schema());
      ASSERT_TRUE(got.ok()) << sql;
      const ExecStats& s = got.value();
      EXPECT_EQ(s.tuples_scanned, want.tuples_scanned) << sql;
      EXPECT_EQ(s.tuples_built, want.tuples_built) << sql;
      EXPECT_EQ(s.tuples_probed, want.tuples_probed) << sql;
      EXPECT_EQ(s.tuples_output, want.tuples_output) << sql;
      EXPECT_EQ(s.peak_intermediate, want.peak_intermediate) << sql;
      EXPECT_EQ(s.result, want.result) << sql;
      EXPECT_EQ(s.result, oracle.Cardinality(q)) << sql;
      joins += q.tables.size() > 1;
    }
  }
  EXPECT_GT(joins, 20);
}

INSTANTIATE_TEST_SUITE_P(
    Databases, OraclePredictsExecStatsTest,
    ::testing::Combine(::testing::Values("tpch", "stats"),
                       ::testing::Values(1, 4)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param)) + "threads";
    });

// The budget admits a join output of exactly its size and no larger, whether
// the plan's largest intermediate is its root or an inner join.
TEST(PlanExecutorBudgetTest, AdmitsExactlyThePeakIntermediate) {
  auto db =
      storage::datagen::Generate(storage::datagen::StatsLikeSpec(0.04), 7);
  Executor oracle(db.get());
  opt::Planner planner(db.get(), opt::CostModel{});

  // posts ⋈ comments ⋈ votes fans out per post: the root is the peak.
  query::Query fan_out;
  fan_out.tables = {1, 2, 4};
  fan_out.join_edges = {1, 3};
  // The same fan-out joined last to a few users. Estimates that make every
  // sub-plan with users look huge put that join at the root, so the
  // posts ⋈ comments ⋈ votes join below it is the peak.
  query::Query few_users;
  few_users.tables = {0, 1, 2, 4};
  few_users.join_edges = {0, 1, 3};
  few_users.predicates = {{{0, 0}, 0, 60}};

  for (const query::Query& q : {fan_out, few_users}) {
    const std::string sql = query::ToSql(q, db->schema());
    ASSERT_TRUE(query::Validate(q, *db).ok()) << sql;
    opt::CardFn misled = [&](const std::vector<int>& tables) {
      bool users = std::find(tables.begin(), tables.end(), 0) != tables.end();
      return users && tables.size() < q.tables.size()
                 ? 1e12
                 : oracle.SubsetCardinality(q, tables);
    };
    const opt::Plan plan = planner.BestPlan(q, misled);
    const PredictedStats want = Predict(oracle, *db, q, plan);
    const uint64_t peak = want.stats.peak_intermediate;
    if (q.tables.size() == 3) {
      ASSERT_EQ(want.root, peak) << sql;
    } else {
      ASSERT_EQ(want.inner_peak, peak) << sql;
      ASSERT_LT(want.root, peak) << sql;
    }

    PlanExecutor::Options at_peak;
    at_peak.max_intermediate_tuples = peak;
    auto ok = PlanExecutor(db.get(), at_peak).Execute(q, plan);
    ASSERT_TRUE(ok.ok()) << sql;
    EXPECT_EQ(ok.value().result, oracle.Cardinality(q)) << sql;
    EXPECT_EQ(ok.value().peak_intermediate, peak) << sql;

    PlanExecutor::Options below_peak;
    below_peak.max_intermediate_tuples = peak - 1;
    auto over = PlanExecutor(db.get(), below_peak).Execute(q, plan);
    ASSERT_FALSE(over.ok()) << sql;
    EXPECT_NE(over.status().message().find("budget"), std::string::npos);
  }
}

}  // namespace
}  // namespace exec
}  // namespace lce
