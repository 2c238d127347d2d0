// Set-based estimators: MSCN (Kipf et al.) and FCN+Pool.
//
// Both consume the {tables, joins, predicates} token sets: each set runs
// through its own sub-MLP, tokens are mean-pooled per set, the pooled
// vectors are concatenated, and a head MLP emits the sigmoid output. MSCN's
// table tokens carry materialized-sample bitmaps; FCN+Pool's do not — that
// is the architectural difference the study isolates.

#ifndef LCE_CE_QUERY_DRIVEN_SET_MODELS_H_
#define LCE_CE_QUERY_DRIVEN_SET_MODELS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ce/query_driven/neural_base.h"
#include "src/nn/mlp.h"

namespace lce {
namespace ce {

class SetBasedEstimator : public NeuralQueryDrivenEstimator {
 public:
  SetBasedEstimator(NeuralOptions options, bool use_sample_bitmap)
      : NeuralQueryDrivenEstimator(options),
        use_sample_bitmap_(use_sample_bitmap) {}

 protected:
  void InitModel(Rng* rng) override;
  void TrainStep(std::span<const query::Query* const> batch,
                 const LossGrad& loss_grad) override;
  void ReleaseTrainingScratch() override;
  void ForwardBatch(std::span<const query::Query> queries, float* out,
                    FeatureStats* stats) const override;
  std::vector<nn::Param*> Params() override;
  size_t NumParams() const override;

 private:
  /// Every query's tokens stacked per set type; `*_counts[i]` rows belong to
  /// query i.
  struct TokenBlocks {
    nn::Matrix tables, joins, preds;
    std::vector<int> table_counts, join_counts, pred_counts;
  };

  /// Encodes the `n` queries `query_at(i)` into `out`, reusing its
  /// allocations.
  template <typename QueryAt>
  void EncodeTokens(int n, const QueryAt& query_at, TokenBlocks* out) const;

  bool use_sample_bitmap_;
  std::unique_ptr<nn::Mlp> table_mlp_;
  std::unique_ptr<nn::Mlp> join_mlp_;
  std::unique_ptr<nn::Mlp> pred_mlp_;
  std::unique_ptr<nn::Mlp> head_;
  // TrainStep's encoded minibatch, pooled rows, and gradient buffers.
  struct TrainScratch {
    TokenBlocks tokens;
    nn::Matrix pooled, dy, dtokens;
    std::vector<int> ones;
  };
  TrainScratch train_;
};

class MscnEstimator : public SetBasedEstimator {
 public:
  explicit MscnEstimator(NeuralOptions options = {})
      : SetBasedEstimator(options, /*use_sample_bitmap=*/true) {}
  std::string Name() const override { return "MSCN"; }
};

class FcnPoolEstimator : public SetBasedEstimator {
 public:
  explicit FcnPoolEstimator(NeuralOptions options = {})
      : SetBasedEstimator(options, /*use_sample_bitmap=*/false) {}
  std::string Name() const override { return "FCN+Pool"; }
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_QUERY_DRIVEN_SET_MODELS_H_
