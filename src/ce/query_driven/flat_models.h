// Flat-encoding estimators: Linear and FCN (the "lightweight NN" family).

#ifndef LCE_CE_QUERY_DRIVEN_FLAT_MODELS_H_
#define LCE_CE_QUERY_DRIVEN_FLAT_MODELS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ce/query_driven/neural_base.h"
#include "src/nn/mlp.h"

namespace lce {
namespace ce {

/// An MLP over the flat encoding; Linear and FCN differ only in whether it
/// has hidden layers.
class FlatEstimator : public NeuralQueryDrivenEstimator {
 protected:
  FlatEstimator(NeuralOptions options, bool hidden_layers)
      : NeuralQueryDrivenEstimator(options), hidden_layers_(hidden_layers) {}

  void InitModel(Rng* rng) override;
  void TrainStep(std::span<const query::Query* const> batch,
                 const LossGrad& loss_grad) override;
  void ReleaseTrainingScratch() override;
  void ForwardBatch(std::span<const query::Query> queries, float* out,
                    FeatureStats* stats) const override;
  std::vector<nn::Param*> Params() override { return net_->Params(); }
  size_t NumParams() const override { return net_ ? net_->NumParams() : 0; }

 private:
  bool hidden_layers_;
  std::unique_ptr<nn::Mlp> net_;
  // TrainStep's encoded rows, output gradients and one-row segments.
  nn::Matrix train_x_, train_dy_;
  std::vector<int> train_segments_;
};

/// Single sigmoid unit over the flat encoding: the study's minimal-capacity
/// reference point (robust, weak fit).
class LinearEstimator : public FlatEstimator {
 public:
  explicit LinearEstimator(NeuralOptions options = {})
      : FlatEstimator(options, /*hidden_layers=*/false) {}
  std::string Name() const override { return "Linear"; }
};

/// Fully-connected network over the flat encoding (Dutt et al.'s LW-NN /
/// the study's FCN). The flat_variant option feeds the encoding ablation.
class FcnEstimator : public FlatEstimator {
 public:
  explicit FcnEstimator(NeuralOptions options = {})
      : FlatEstimator(options, /*hidden_layers=*/true) {}
  std::string Name() const override { return "FCN"; }
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_QUERY_DRIVEN_FLAT_MODELS_H_
