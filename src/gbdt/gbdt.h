// Gradient boosting with squared loss over binned regression trees.

#ifndef LCE_GBDT_GBDT_H_
#define LCE_GBDT_GBDT_H_

#include <cstdint>
#include <vector>

#include "src/gbdt/tree.h"

namespace lce {
namespace gbdt {

/// Flat mirror of an ensemble's trees for inference on raw feature rows.
///
/// Each node stores its split as the raw float upper edge of its bin
/// threshold, `binner.BinUpperEdge(feature, threshold)`, so inference never
/// bins a row. The binned rule "go left iff bin <= threshold" becomes "go
/// left iff !(edge < x)": FeatureBinner::Transform takes `bin` from
/// std::lower_bound over the feature's sorted edges, i.e. the number of
/// edges below x, so bin <= threshold holds exactly when edges[threshold] is
/// not below x. That includes NaN (below nothing, so bin 0 and always left)
/// and +-inf. The child index is therefore `edge < x` (0 = left, 1 = right).
///
/// Node fields the step reads sit in one 16-byte Node, so stepping a cursor
/// down a level touches one node cache line. Leaves are self-loops with edge
/// +inf (nothing is above +inf, so every x goes "left" to the leaf itself),
/// so the level-synchronous walks need no is-leaf branch: a cursor that
/// reaches a leaf stays put for the remaining levels.
///
/// Both walks add the trees' leaf values in ensemble order into one float
/// accumulator per row, the exact addition order of the binned
/// RegressionTree::Predict loop, so every path is bit-identical to it.
struct FlatForest {
  struct Node {
    float edge;        // go right iff edge < x[feature]; +inf at leaves
    int32_t feature;   // 0 at leaves
    int32_t child[2];  // left, right; both = the node itself at leaves
  };

  std::vector<Node> nodes;
  std::vector<float> value;  // leaf prediction; 0 for internal nodes

  std::vector<int32_t> root;    // per tree: root node id
  std::vector<int32_t> levels;  // per tree: max root-to-leaf path length

  size_t num_trees() const { return root.size(); }
  size_t num_nodes() const { return nodes.size(); }
  void Clear();

  /// Appends one fitted tree's nodes (ensemble order = call order), with
  /// split edges taken from the binner the tree was fit on.
  void AppendTree(const RegressionTree& tree, const FeatureBinner& binner);

  /// Root-to-leaf path lengths of one PredictRow walk.
  struct PathDepths {
    uint64_t sum = 0;
    int max = 0;
  };

  /// base + lr * leaf value of every tree, in ensemble order, for one raw
  /// row `x`. Steps the cursors of up to 16 trees together, level by level,
  /// so their node loads overlap instead of each tree's pointer chase
  /// waiting on the previous one. With `depths` non-null, also sums the
  /// path lengths (the explain path's statistics).
  float PredictRow(const float* x, float base, float lr,
                   PathDepths* depths = nullptr) const;

  /// out[i - r0] += lr * tree_value for every tree in [t0, t1) and row i in
  /// [r0, r1); `x` is the row-major num_features-wide raw feature matrix.
  /// Rows advance through each tree level-synchronously in blocks.
  void Accumulate(const float* x, int num_features, int64_t r0, int64_t r1,
                  size_t t0, size_t t1, float lr, float* out) const;
};

class GradientBoosting {
 public:
  struct Options {
    int num_trees = 96;
    float learning_rate = 0.15f;
    int max_bins = 32;
    RegressionTree::Options tree;
  };

  GradientBoosting() : GradientBoosting(Options{}) {}
  explicit GradientBoosting(Options options) : options_(options) {}

  /// Fits from scratch: bins features, then adds trees on residuals.
  void Fit(const std::vector<std::vector<float>>& rows,
           const std::vector<float>& targets);

  /// Adds `num_trees` boosting rounds fit on new data's residuals, keeping
  /// the existing ensemble and binner — the incremental-update path.
  void Boost(const std::vector<std::vector<float>>& rows,
             const std::vector<float>& targets, int num_trees);

  float Predict(const std::vector<float>& row) const;

  /// Predictions for many rows at once: packs the rows back to back and
  /// calls PredictPackedInto. With LCE_SIMD on (default) that runs the
  /// row-blocked FlatForest::Accumulate in parallel; otherwise Predict()'s
  /// walk per row. Both paths are bit-identical to calling Predict() on each
  /// row (same per-row accumulation order) at any thread count.
  std::vector<float> PredictBatch(
      const std::vector<std::vector<float>>& rows) const;

  /// PredictBatch over `n` rows packed back to back (num_features floats
  /// each) into `out`: the same paths and bits, with no copy of the rows.
  void PredictPackedInto(const float* x, int64_t n, float* out) const;

  /// Traversal statistics of one Predict() call; fuels explain records.
  struct PredictStats {
    int trees = 0;
    uint64_t nodes_visited = 0;    // internal nodes crossed (sum of depths)
    double mean_path_depth = 0;
    int max_path_depth = 0;
  };

  /// Predict() with per-tree path statistics. The accumulation mirrors
  /// Predict() term by term, so the returned value is bit-identical.
  float PredictWithStats(const std::vector<float>& row,
                         PredictStats* stats) const;

  size_t num_trees() const { return trees_.size(); }
  /// The fitted binner, base score and trees: the binned definition of
  /// Predict() (base + lr * tree.Predict(binner.Transform(row)), summed in
  /// ensemble order), which tests hold the raw-edge walk to.
  const FeatureBinner& binner() const { return binner_; }
  float base_score() const { return base_score_; }
  const std::vector<RegressionTree>& trees() const { return trees_; }
  uint64_t SizeBytes() const;
  /// Total tree nodes across the ensemble — the model-card parameter count
  /// (each node carries a split threshold or a leaf value).
  uint64_t NumNodes() const;
  bool fitted() const { return fitted_; }

 private:
  void AddTrees(const std::vector<std::vector<float>>& rows,
                const std::vector<float>& targets, int num_trees);

  Options options_;
  FeatureBinner binner_;
  float base_score_ = 0;
  std::vector<RegressionTree> trees_;
  FlatForest flat_;  // raw-edge mirror of trees_, maintained by AddTrees
  bool fitted_ = false;
};

}  // namespace gbdt
}  // namespace lce

#endif  // LCE_GBDT_GBDT_H_
