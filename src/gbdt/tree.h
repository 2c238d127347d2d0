// Binned regression tree: the base learner of the gradient-boosting
// estimator (LW-XGB). Split finding uses per-feature histograms over
// quantile-binned inputs, the same strategy as XGBoost's `hist` mode.

#ifndef LCE_GBDT_TREE_H_
#define LCE_GBDT_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lce {
namespace gbdt {

/// Quantile binner fit once on the training matrix; maps each float feature
/// to a small bin id. Shared by all trees of an ensemble.
class FeatureBinner {
 public:
  void Fit(const std::vector<std::vector<float>>& rows, int max_bins);

  /// Bin ids for one row.
  std::vector<uint8_t> Transform(const std::vector<float>& row) const;

  int num_features() const { return static_cast<int>(edges_.size()); }
  int max_bins() const { return max_bins_; }
  /// Upper edge of `bin` for `feature`: Transform puts x in a bin <= `bin`
  /// exactly when !(edge < x). The last bin's edge is +inf.
  float BinUpperEdge(int feature, int bin) const { return edges_[feature][bin]; }

 private:
  int max_bins_ = 0;
  std::vector<std::vector<float>> edges_;  // per feature: bin upper edges
};

struct TreeNode {
  bool is_leaf = true;
  int feature = -1;
  uint8_t bin_threshold = 0;  // go left if bin <= threshold
  float value = 0;            // leaf prediction
  int left = -1;
  int right = -1;
};

class RegressionTree {
 public:
  struct Options {
    int max_depth = 6;
    int min_samples_leaf = 8;
    float min_gain = 1e-7f;
  };

  /// Fits targets on pre-binned rows (binned[i] from FeatureBinner).
  void Fit(const std::vector<std::vector<uint8_t>>& binned,
           const std::vector<float>& targets, const Options& options,
           int max_bins);

  float Predict(const std::vector<uint8_t>& binned_row) const;

  size_t num_nodes() const { return nodes_.size(); }

  /// Node storage (root is node 0); read by FlatForest::AppendTree.
  const std::vector<TreeNode>& nodes() const { return nodes_; }

 private:
  int BuildNode(const std::vector<std::vector<uint8_t>>& binned,
                const std::vector<float>& targets,
                const std::vector<uint32_t>& rows, int depth,
                const Options& options, int max_bins);

  std::vector<TreeNode> nodes_;
};

}  // namespace gbdt
}  // namespace lce

#endif  // LCE_GBDT_TREE_H_
