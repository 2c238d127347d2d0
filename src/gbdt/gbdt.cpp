#include "src/gbdt/gbdt.h"

#include <algorithm>
#include <array>
#include <limits>

#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/simd.h"
#include "src/util/telemetry/telemetry.h"
#include "src/util/telemetry/trace.h"
#include "src/util/telemetry/train_log.h"

#define LCE_GBDT_RESTRICT __restrict__

namespace lce {
namespace gbdt {

namespace {

// Rows per parallel chunk for the binning, packing and prediction sweeps.
constexpr int64_t kRowGrain = 256;

// Binned copies of `rows`, computed in parallel (disjoint writes; Transform
// only reads the fitted binner).
std::vector<std::vector<uint8_t>> BinRows(
    const FeatureBinner& binner, const std::vector<std::vector<float>>& rows) {
  telemetry::ScopedPhase phase("gbdt/bin_rows");
  std::vector<std::vector<uint8_t>> binned(rows.size());
  parallel::ParallelFor(0, static_cast<int64_t>(rows.size()), kRowGrain,
                        [&](int64_t b, int64_t e) {
                          for (int64_t i = b; i < e; ++i) {
                            binned[i] = binner.Transform(rows[i]);
                          }
                        });
  return binned;
}

// Raw rows packed into one contiguous row-major matrix (n x f floats) so
// the row-blocked traversal's feature loads hit sequential cache lines.
std::vector<float> PackRows(const std::vector<std::vector<float>>& rows,
                            int num_features) {
  std::vector<float> x(rows.size() * static_cast<size_t>(num_features));
  parallel::ParallelFor(0, static_cast<int64_t>(rows.size()), kRowGrain,
                        [&](int64_t b, int64_t e) {
                          for (int64_t i = b; i < e; ++i) {
                            LCE_CHECK(rows[i].size() ==
                                      static_cast<size_t>(num_features));
                            std::copy(rows[i].begin(), rows[i].end(),
                                      x.begin() + i * num_features);
                          }
                        });
  return x;
}

// Trees whose cursors one PredictRow walk steps together. Sixteen
// independent node loads per level keep the load pipeline full; the
// cursors fit in one cache line.
constexpr int kLanes = 16;

// FlatForest::PredictRow, with the path-depth bookkeeping compiled in only
// for the explain path.
template <bool kDepths>
float WalkRow(const FlatForest& forest, const float* LCE_GBDT_RESTRICT x,
              float base, float lr, FlatForest::PathDepths* depths) {
  const FlatForest::Node* LCE_GBDT_RESTRICT node = forest.nodes.data();
  const float* LCE_GBDT_RESTRICT val = forest.value.data();
  const int num_trees = static_cast<int>(forest.num_trees());
  float out = base;
  for (int t0 = 0; t0 < num_trees; t0 += kLanes) {
    const int n = std::min(kLanes, num_trees - t0);
    std::array<int32_t, kLanes> cursor;
    std::array<int32_t, kLanes> depth{};
    int32_t group_levels = 0;
    for (int l = 0; l < n; ++l) {
      cursor[l] = forest.root[t0 + l];
      group_levels = std::max(group_levels, forest.levels[t0 + l]);
    }
    for (int32_t level = 0; level < group_levels; ++level) {
      // One level of every lane's tree. Lanes are independent, so their
      // node loads overlap; a lane parked on a leaf self-loops.
      int32_t moved = 0;
      for (int l = 0; l < n; ++l) {
        const FlatForest::Node& nd = node[cursor[l]];
        const int32_t next = nd.child[nd.edge < x[nd.feature] ? 1 : 0];
        moved |= next ^ cursor[l];
        if constexpr (kDepths) depth[l] += next != cursor[l] ? 1 : 0;
        cursor[l] = next;
      }
      if (moved == 0) break;  // every lane parked before the deepest level
    }
    // Ensemble order: the same float addition sequence as the binned
    // RegressionTree::Predict loop.
    for (int l = 0; l < n; ++l) out += lr * val[cursor[l]];
    if constexpr (kDepths) {
      for (int l = 0; l < n; ++l) {
        depths->sum += static_cast<uint64_t>(depth[l]);
        depths->max = std::max(depths->max, static_cast<int>(depth[l]));
      }
    }
  }
  return out;
}

}  // namespace

void FlatForest::Clear() {
  nodes.clear();
  value.clear();
  root.clear();
  levels.clear();
}

void FlatForest::AppendTree(const RegressionTree& tree,
                            const FeatureBinner& binner) {
  const std::vector<TreeNode>& tree_nodes = tree.nodes();
  LCE_CHECK(!tree_nodes.empty());
  const int32_t base = static_cast<int32_t>(nodes.size());
  root.push_back(base);  // tree-local node 0 is the root
  for (size_t i = 0; i < tree_nodes.size(); ++i) {
    const TreeNode& n = tree_nodes[i];
    const int32_t self = base + static_cast<int32_t>(i);
    if (n.is_leaf) {
      // Leaf self-loop: no x is above +inf, so the cursor takes the left
      // child (= itself) on every further level.
      nodes.push_back(
          {std::numeric_limits<float>::infinity(), 0, {self, self}});
      value.push_back(n.value);
    } else {
      nodes.push_back({binner.BinUpperEdge(n.feature, n.bin_threshold),
                       n.feature,
                       {base + n.left, base + n.right}});
      value.push_back(0.0f);
    }
  }
  // Max root-to-leaf path length: after this many steps every cursor sits on
  // a leaf (then self-loops). Nodes are created parent-before-child, so one
  // forward pass suffices.
  std::vector<int32_t> depth(tree_nodes.size(), 0);
  int32_t max_depth = 0;
  for (size_t i = 0; i < tree_nodes.size(); ++i) {
    const TreeNode& n = tree_nodes[i];
    if (n.is_leaf) continue;
    depth[n.left] = depth[i] + 1;
    depth[n.right] = depth[i] + 1;
    max_depth = std::max(max_depth, depth[i] + 1);
  }
  levels.push_back(max_depth);
}

float FlatForest::PredictRow(const float* x, float base, float lr,
                             PathDepths* depths) const {
  return depths != nullptr ? WalkRow<true>(*this, x, base, lr, depths)
                           : WalkRow<false>(*this, x, base, lr, nullptr);
}

void FlatForest::Accumulate(const float* x, int num_features, int64_t r0,
                            int64_t r1, size_t t0, size_t t1, float lr,
                            float* out) const {
  // 64 rows of 51 float features are about 13 KiB: the block's rows and
  // cursors stay L1-resident across the whole ensemble.
  constexpr int kBlock = 64;
  std::array<int32_t, kBlock> cursor;
  const Node* LCE_GBDT_RESTRICT node = nodes.data();
  const float* LCE_GBDT_RESTRICT val = value.data();
  for (int64_t b = r0; b < r1; b += kBlock) {
    const int n = static_cast<int>(std::min<int64_t>(kBlock, r1 - b));
    const float* LCE_GBDT_RESTRICT block_x = x + b * num_features;
    // Trees inner: the block's rows stay cached across the whole ensemble,
    // and out[row] still accumulates trees in ensemble order — the same
    // float addition sequence as per-row Predict().
    for (size_t t = t0; t < t1; ++t) {
      const int32_t tree_root = root[t];
      for (int r = 0; r < n; ++r) cursor[r] = tree_root;
      for (int32_t level = 0; level < levels[t]; ++level) {
        // Level-synchronous step: all rows cross one level together. Rows
        // are independent, so the node loads pipeline instead of
        // serializing on one row's pointer chase; leaves self-loop.
        int32_t moved = 0;
        for (int r = 0; r < n; ++r) {
          const Node& nd = node[cursor[r]];
          const float v =
              block_x[static_cast<int64_t>(r) * num_features + nd.feature];
          const int32_t next = nd.child[nd.edge < v ? 1 : 0];
          moved |= next ^ cursor[r];
          cursor[r] = next;
        }
        // Unbalanced trees park most cursors on shallow leaves well before
        // levels[t]; once the whole block is parked the remaining levels
        // are self-loop no-ops, so stop.
        if (moved == 0) break;
      }
      const int64_t off = b - r0;
      for (int r = 0; r < n; ++r) out[off + r] += lr * val[cursor[r]];
    }
  }
}

void GradientBoosting::Fit(const std::vector<std::vector<float>>& rows,
                           const std::vector<float>& targets) {
  LCE_CHECK(!rows.empty() && rows.size() == targets.size());
  trees_.clear();
  flat_.Clear();
  binner_.Fit(rows, options_.max_bins);
  double sum = 0;
  for (float t : targets) sum += t;
  base_score_ = static_cast<float>(sum / static_cast<double>(targets.size()));
  fitted_ = true;

  AddTrees(rows, targets, options_.num_trees);
}

void GradientBoosting::Boost(const std::vector<std::vector<float>>& rows,
                             const std::vector<float>& targets,
                             int num_trees) {
  LCE_CHECK_MSG(fitted_, "Fit() before Boost()");
  LCE_CHECK(!rows.empty() && rows.size() == targets.size());
  AddTrees(rows, targets, num_trees);
}

void GradientBoosting::AddTrees(const std::vector<std::vector<float>>& rows,
                                const std::vector<float>& targets,
                                int num_trees) {
  // Trees are fit on binned rows; the prediction replay walks the raw rows
  // through the FlatForest (bit-identical to the binned walk, see
  // FlatForest). Each row's prediction is independent and sums the trees in
  // ensemble order, so the row-parallel replay matches the sequential one
  // exactly, and training is bit-identical across LCE_SIMD settings.
  const std::vector<std::vector<uint8_t>> binned = BinRows(binner_, rows);
  const int64_t n = static_cast<int64_t>(rows.size());
  const int num_features = binner_.num_features();
  const bool batch = simd::SimdEnabled() && num_features > 0;
  const std::vector<float> x =
      batch ? PackRows(rows, num_features) : std::vector<float>();
  std::vector<float> pred(rows.size(), base_score_);
  parallel::ParallelFor(0, n, kRowGrain, [&](int64_t b, int64_t e) {
    if (batch) {
      flat_.Accumulate(x.data(), num_features, b, e, 0, flat_.num_trees(),
                       options_.learning_rate, pred.data() + b);
      return;
    }
    for (int64_t i = b; i < e; ++i) {
      for (const RegressionTree& tree : trees_) {
        pred[i] += options_.learning_rate * tree.Predict(binned[i]);
      }
    }
  });
  std::vector<float> residual(binned.size());
  const bool train_log = telemetry::TrainLogEnabled();
  const int64_t round_base = static_cast<int64_t>(trees_.size());
  for (int t = 0; t < num_trees; ++t) {
    int64_t round_start = train_log ? telemetry::MonotonicNanos() : 0;
    for (size_t i = 0; i < binned.size(); ++i) {
      residual[i] = targets[i] - pred[i];
    }
    RegressionTree tree;
    {
      telemetry::ScopedPhase phase("gbdt/tree_fit");
      tree.Fit(binned, residual, options_.tree, options_.max_bins);
    }
    flat_.AppendTree(tree, binner_);
    {
      telemetry::ScopedPhase phase("gbdt/update_pred");
      parallel::ParallelFor(0, n, kRowGrain, [&](int64_t b, int64_t e) {
        if (batch) {
          // Only the just-appended tree.
          flat_.Accumulate(x.data(), num_features, b, e,
                           flat_.num_trees() - 1, flat_.num_trees(),
                           options_.learning_rate, pred.data() + b);
          return;
        }
        for (int64_t i = b; i < e; ++i) {
          pred[i] += options_.learning_rate * tree.Predict(binned[i]);
        }
      });
    }
    size_t tree_nodes = tree.num_nodes();
    trees_.push_back(std::move(tree));
    if (train_log) {
      // Post-round training MSE; read-only over pred/targets, so enabling
      // the log cannot perturb the fit.
      double mse = 0;
      for (size_t i = 0; i < binned.size(); ++i) {
        double d = static_cast<double>(targets[i]) - pred[i];
        mse += d * d;
      }
      telemetry::TrainingEvent ev;
      ev.family = "gbdt";
      ev.event = "round";
      ev.index = round_base + t;
      ev.loss = binned.empty() ? 0.0 : mse / static_cast<double>(n);
      ev.learning_rate = options_.learning_rate;
      ev.examples = n;
      ev.wall_seconds =
          static_cast<double>(telemetry::MonotonicNanos() - round_start) / 1e9;
      ev.extra.emplace_back("tree_nodes", static_cast<double>(tree_nodes));
      telemetry::RecordTrainingEvent(std::move(ev));
    }
  }
}

float GradientBoosting::Predict(const std::vector<float>& row) const {
  LCE_CHECK_MSG(fitted_, "Fit() before Predict()");
  LCE_CHECK(row.size() == static_cast<size_t>(binner_.num_features()));
  return flat_.PredictRow(row.data(), base_score_, options_.learning_rate);
}

std::vector<float> GradientBoosting::PredictBatch(
    const std::vector<std::vector<float>>& rows) const {
  LCE_CHECK_MSG(fitted_, "Fit() before PredictBatch()");
  std::vector<float> out(rows.size());
  if (rows.empty()) return out;
  const std::vector<float> x = PackRows(rows, binner_.num_features());
  PredictPackedInto(x.data(), static_cast<int64_t>(rows.size()), out.data());
  return out;
}

void GradientBoosting::PredictPackedInto(const float* x, int64_t n,
                                         float* out) const {
  LCE_CHECK_MSG(fitted_, "Fit() before PredictBatch()");
  // Kernel span for the profiler: the batched forest traversal is the GBDT
  // inference hot path. Work ≈ node visits (rows × trees × depth),
  // thresholded so single-row per-query calls don't pay span overhead on a
  // microsecond traversal.
  telemetry::KernelSpan span(
      "FlatForest::PredictBatch",
      n * static_cast<int64_t>(num_trees()) * options_.tree.max_depth);
  const int num_features = binner_.num_features();
  if (!simd::SimdEnabled()) {
    // The reference path: Predict()'s walk, row by row.
    parallel::ParallelFor(0, n, kRowGrain, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) {
        out[i] = flat_.PredictRow(x + i * num_features, base_score_,
                                  options_.learning_rate);
      }
    });
    return;
  }
  // Traverse the forest level-synchronously over row blocks. Per row the
  // accumulation order is base + lr*tree0 + lr*tree1 + ... — identical to
  // Predict().
  std::fill(out, out + n, base_score_);
  parallel::ParallelFor(0, n, kRowGrain, [&](int64_t b, int64_t e) {
    flat_.Accumulate(x, num_features, b, e, 0, flat_.num_trees(),
                     options_.learning_rate, out + b);
  });
}

float GradientBoosting::PredictWithStats(const std::vector<float>& row,
                                         PredictStats* stats) const {
  LCE_CHECK_MSG(fitted_, "Fit() before Predict()");
  LCE_CHECK(row.size() == static_cast<size_t>(binner_.num_features()));
  FlatForest::PathDepths depths;
  const float out = flat_.PredictRow(row.data(), base_score_,
                                     options_.learning_rate, &depths);
  *stats = PredictStats{};
  stats->trees = static_cast<int>(flat_.num_trees());
  stats->nodes_visited = depths.sum;
  stats->max_path_depth = depths.max;
  stats->mean_path_depth =
      stats->trees > 0
          ? static_cast<double>(stats->nodes_visited) / stats->trees
          : 0.0;
  return out;
}

uint64_t GradientBoosting::NumNodes() const {
  uint64_t nodes = 0;
  for (const RegressionTree& tree : trees_) nodes += tree.num_nodes();
  return nodes;
}

uint64_t GradientBoosting::SizeBytes() const {
  uint64_t bytes = 0;
  for (const RegressionTree& tree : trees_) {
    bytes += tree.num_nodes() * sizeof(TreeNode);
  }
  // Inference mirror: one Node (split edge, feature, children) and one leaf
  // value per node, plus root/levels (int32) per tree.
  bytes += flat_.num_nodes() * (sizeof(FlatForest::Node) + sizeof(float)) +
           flat_.num_trees() * 2 * sizeof(int32_t);
  // Binner edges.
  bytes += static_cast<uint64_t>(binner_.num_features()) *
           binner_.max_bins() * sizeof(float);
  return bytes;
}

}  // namespace gbdt
}  // namespace lce
