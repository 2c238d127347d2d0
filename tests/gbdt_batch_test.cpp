// Bit-identity of the raw-edge GBDT inference paths (single-row lane walk,
// row-blocked batch walk) against per-row Predict() and against the binned
// definition, on a randomized ensemble, across LCE_SIMD settings and thread
// counts, including rows that sit exactly on split edges or hold ±0, ±inf
// and NaN — plus the LW-XGB EstimateBatch wiring.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/ce/query_driven/lwxgb_model.h"
#include "src/gbdt/gbdt.h"
#include "src/storage/datagen.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "src/util/simd.h"
#include "src/workload/generator.h"

namespace lce {
namespace gbdt {
namespace {

struct KernelEnvGuard {
  ~KernelEnvGuard() {
    simd::SetSimdEnabledForTesting(-1);
    parallel::SetThreadCountForTesting(0);
  }
};

uint32_t BitsOf(float v) {
  uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

// A nonlinear multi-feature problem so trees split on every feature and
// reach varied depths (including some single-leaf trees late in boosting).
void MakeProblem(int n, std::vector<std::vector<float>>* rows,
                 std::vector<float>* targets) {
  Rng rng(17);
  for (int i = 0; i < n; ++i) {
    float a = static_cast<float>(rng.Uniform());
    float b = static_cast<float>(rng.Uniform(-2, 2));
    float c = static_cast<float>(rng.Gaussian());
    rows->push_back({a, b, c});
    targets->push_back(std::sin(5 * a) + 0.5f * b * std::abs(c));
  }
}

TEST(GbdtBatchTest, PredictBatchIsBitIdenticalToPredict) {
  std::vector<std::vector<float>> rows;
  std::vector<float> targets;
  MakeProblem(900, &rows, &targets);
  GradientBoosting::Options opts;
  opts.num_trees = 48;
  GradientBoosting model(opts);
  model.Fit(rows, targets);

  // Per-row reference under the naive path.
  KernelEnvGuard guard;
  simd::SetSimdEnabledForTesting(0);
  std::vector<float> reference;
  for (const auto& row : rows) reference.push_back(model.Predict(row));

  for (int threads : {1, 4}) {
    parallel::SetThreadCountForTesting(threads);
    for (int simd_on : {0, 1}) {
      simd::SetSimdEnabledForTesting(simd_on);
      std::vector<float> batch = model.PredictBatch(rows);
      ASSERT_EQ(batch.size(), reference.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(BitsOf(batch[i]), BitsOf(reference[i]))
            << "row " << i << " simd=" << simd_on << " threads=" << threads;
      }
    }
  }
}

// The binned definition of Predict(): bin the row, walk each AoS tree, sum
// in ensemble order. Also the per-tree path statistics, from tree.nodes().
float BinnedReference(const GradientBoosting& model, float lr,
                      const std::vector<float>& row,
                      GradientBoosting::PredictStats* stats) {
  const std::vector<uint8_t> binned = model.binner().Transform(row);
  float out = model.base_score();
  *stats = GradientBoosting::PredictStats{};
  for (const RegressionTree& tree : model.trees()) {
    out += lr * tree.Predict(binned);
    const std::vector<TreeNode>& nodes = tree.nodes();
    int cur = 0;
    int depth = 0;
    while (!nodes[cur].is_leaf) {
      cur = binned[nodes[cur].feature] <= nodes[cur].bin_threshold
                ? nodes[cur].left
                : nodes[cur].right;
      ++depth;
    }
    ++stats->trees;
    stats->nodes_visited += static_cast<uint64_t>(depth);
    stats->max_path_depth = std::max(stats->max_path_depth, depth);
  }
  stats->mean_path_depth =
      static_cast<double>(stats->nodes_visited) / stats->trees;
  return out;
}

TEST(GbdtBatchTest, RawEdgeWalkMatchesBinnedTreesAtEveryEdgeValue) {
  std::vector<std::vector<float>> rows;
  std::vector<float> targets;
  MakeProblem(900, &rows, &targets);
  GradientBoosting::Options opts;
  opts.num_trees = 40;
  GradientBoosting model(opts);
  model.Fit(rows, targets);
  const float lr = opts.learning_rate;
  const float inf = std::numeric_limits<float>::infinity();

  // For each feature in turn: every split edge a tree uses, the floats
  // right next to it, signed zeros, infinities and NaN. The other features
  // keep a training row's values.
  std::vector<std::vector<float>> probes;
  const size_t num_features = rows[0].size();
  for (size_t f = 0; f < num_features; ++f) {
    std::vector<float> values = {0.0f, -0.0f, inf, -inf,
                                 std::numeric_limits<float>::quiet_NaN()};
    for (const RegressionTree& tree : model.trees()) {
      for (const TreeNode& n : tree.nodes()) {
        if (n.is_leaf || n.feature != static_cast<int>(f)) continue;
        const float edge = model.binner().BinUpperEdge(n.feature,
                                                       n.bin_threshold);
        values.push_back(edge);
        values.push_back(std::nextafter(edge, inf));
        values.push_back(std::nextafter(edge, -inf));
      }
    }
    ASSERT_GT(values.size(), 5u) << "no split on feature " << f;
    for (size_t base = 0; base < 3; ++base) {
      for (float v : values) {
        std::vector<float> row = rows[base];
        row[f] = v;
        probes.push_back(row);
      }
    }
  }
  probes.push_back(std::vector<float>(num_features,
                                      std::numeric_limits<float>::quiet_NaN()));
  probes.push_back(std::vector<float>(num_features, -inf));
  probes.push_back(std::vector<float>(num_features, inf));

  KernelEnvGuard guard;
  std::vector<float> batch[2];
  for (int simd_on : {0, 1}) {
    simd::SetSimdEnabledForTesting(simd_on);
    batch[simd_on] = model.PredictBatch(probes);
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    GradientBoosting::PredictStats want_stats;
    const float want = BinnedReference(model, lr, probes[i], &want_stats);
    GradientBoosting::PredictStats stats;
    const float with_stats = model.PredictWithStats(probes[i], &stats);
    ASSERT_EQ(BitsOf(model.Predict(probes[i])), BitsOf(want)) << "probe " << i;
    ASSERT_EQ(BitsOf(with_stats), BitsOf(want)) << "probe " << i;
    ASSERT_EQ(BitsOf(batch[0][i]), BitsOf(want)) << "probe " << i;
    ASSERT_EQ(BitsOf(batch[1][i]), BitsOf(want)) << "probe " << i;
    EXPECT_EQ(stats.trees, want_stats.trees);
    EXPECT_EQ(stats.nodes_visited, want_stats.nodes_visited) << "probe " << i;
    EXPECT_EQ(stats.max_path_depth, want_stats.max_path_depth);
    EXPECT_EQ(stats.mean_path_depth, want_stats.mean_path_depth);
  }
}

TEST(GbdtBatchTest, TrainingIsBitIdenticalAcrossSimdSettings) {
  // AddTrees replays predictions through the batched traversal when SIMD is
  // on; the fitted ensembles must still match the naive path bit for bit.
  std::vector<std::vector<float>> rows;
  std::vector<float> targets;
  MakeProblem(600, &rows, &targets);
  GradientBoosting::Options opts;
  opts.num_trees = 24;

  KernelEnvGuard guard;
  auto fit_and_predict = [&] {
    GradientBoosting model(opts);
    model.Fit(rows, targets);
    model.Boost(rows, targets, 8);  // incremental path replays the ensemble
    std::vector<float> preds;
    for (const auto& row : rows) preds.push_back(model.Predict(row));
    return preds;
  };
  simd::SetSimdEnabledForTesting(0);
  std::vector<float> naive = fit_and_predict();
  simd::SetSimdEnabledForTesting(1);
  std::vector<float> batched = fit_and_predict();
  for (size_t i = 0; i < naive.size(); ++i) {
    ASSERT_EQ(BitsOf(naive[i]), BitsOf(batched[i])) << "row " << i;
  }
}

TEST(GbdtBatchTest, SingleLeafEnsembleAndSingleRowWork) {
  // Constant targets: every tree is one self-looping leaf (levels == 0).
  std::vector<std::vector<float>> rows(40, {1.0f, 2.0f});
  std::vector<float> targets(40, 3.25f);
  GradientBoosting model;
  model.Fit(rows, targets);
  std::vector<float> batch =
      model.PredictBatch({{1.0f, 2.0f}});  // single row < block size
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(BitsOf(batch[0]), BitsOf(model.Predict({1.0f, 2.0f})));
}

TEST(GbdtBatchTest, LwXgbEstimateBatchMatchesPerQuery) {
  auto db = storage::datagen::Generate(storage::datagen::ImdbLikeSpec(0.02), 1);
  workload::WorkloadOptions wopts;
  wopts.max_joins = 2;
  workload::WorkloadGenerator gen(db.get(), wopts);
  Rng rng(7);
  auto labeled = gen.GenerateLabeled(60, &rng);

  ce::LwXgbEstimator est;
  ASSERT_TRUE(est.Build(*db, labeled).ok());

  std::vector<query::Query> queries;
  for (const auto& lq : labeled) queries.push_back(lq.q);
  std::vector<double> batch = est.EstimateBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch[i], est.EstimateCardinality(queries[i])) << "query " << i;
  }
}

}  // namespace
}  // namespace gbdt
}  // namespace lce
