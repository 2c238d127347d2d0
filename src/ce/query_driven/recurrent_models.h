// Sequence estimators: RNN and LSTM over token sequences (Ortiz et al.).

#ifndef LCE_CE_QUERY_DRIVEN_RECURRENT_MODELS_H_
#define LCE_CE_QUERY_DRIVEN_RECURRENT_MODELS_H_

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/ce/query_driven/neural_base.h"
#include "src/nn/dense.h"
#include "src/nn/recurrent.h"
#include "src/util/telemetry/stage_timer.h"

namespace lce {
namespace ce {

/// Common head: sequence -> recurrent encoder -> Dense(h, 1) -> sigmoid.
template <typename Cell>
class RecurrentEstimatorBase : public NeuralQueryDrivenEstimator {
 public:
  explicit RecurrentEstimatorBase(NeuralOptions options)
      : NeuralQueryDrivenEstimator(options) {}

 protected:
  void InitModel(Rng* rng) override {
    cell_ = std::make_unique<Cell>(encoder().seq_token_dim(),
                                   options_.hidden_dim, rng);
    head_ = std::make_unique<nn::Dense>(options_.hidden_dim, 1, rng);
  }

  void TrainStep(std::span<const query::Query* const> batch,
                 const LossGrad& loss_grad) override {
    // Per-sample BPTT: each query's forward, loss gradient and backward in
    // turn.
    for (size_t i = 0; i < batch.size(); ++i) {
      nn::Matrix seq = nn::Matrix::Stack(encoder().SequenceEncode(*batch[i]));
      nn::Matrix h = cell_->ForwardSequence(seq);
      const float pre = head_->Forward(h).Scalar();
      const float out = 1.0f / (1.0f + std::exp(-pre));
      nn::Matrix g(1, 1);
      // Through the sigmoid.
      g.At(0, 0) = loss_grad(static_cast<int>(i), out) * out * (1.0f - out);
      cell_->BackwardSequence(head_->Backward(g));
    }
  }

  void ForwardBatch(std::span<const query::Query> queries, float* out,
                    FeatureStats* stats) const override {
    telemetry::StageTimer::Mark("encode");
    std::vector<nn::Matrix> seqs;
    seqs.reserve(queries.size());
    for (const query::Query& q : queries) {
      seqs.push_back(nn::Matrix::Stack(encoder().SequenceEncode(q)));
    }
    if (stats != nullptr) *stats = FlatStats(queries[0]);
    telemetry::StageTimer::Mark("forward");
    // One length-packed time-major pass over all sequences, then one
    // multi-row head pass; the sigmoid tail matches TrainStep's per row.
    nn::Matrix hs = cell_->ForwardSequenceBatch(seqs);
    nn::Matrix pre;
    head_->InferInto(hs, nn::Activation::kIdentity, &pre);
    for (size_t i = 0; i < queries.size(); ++i) {
      out[i] = 1.0f / (1.0f + std::exp(-pre.At(static_cast<int>(i), 0)));
    }
  }

  std::vector<nn::Param*> Params() override {
    std::vector<nn::Param*> params = cell_->Params();
    for (nn::Param* p : head_->Params()) params.push_back(p);
    return params;
  }

  size_t NumParams() const override {
    if (cell_ == nullptr) return 0;
    return cell_->NumParams() +
           static_cast<size_t>(head_->in_dim()) * head_->out_dim() +
           head_->out_dim();
  }

 private:
  std::unique_ptr<Cell> cell_;
  std::unique_ptr<nn::Dense> head_;
};

class RnnEstimator : public RecurrentEstimatorBase<nn::RnnCell> {
 public:
  explicit RnnEstimator(NeuralOptions options = {})
      : RecurrentEstimatorBase(options) {}
  std::string Name() const override { return "RNN"; }
};

class LstmEstimator : public RecurrentEstimatorBase<nn::LstmCell> {
 public:
  explicit LstmEstimator(NeuralOptions options = {})
      : RecurrentEstimatorBase(options) {}
  std::string Name() const override { return "LSTM"; }
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_QUERY_DRIVEN_RECURRENT_MODELS_H_
