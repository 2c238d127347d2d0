#include "src/ce/query_driven/flat_models.h"

#include "src/util/telemetry/stage_timer.h"

namespace lce {
namespace ce {

void FlatEstimator::InitModel(Rng* rng) {
  std::vector<int> dims;
  dims.push_back(encoder().flat_dim_for(options_.flat_variant));
  if (hidden_layers_) {
    for (int l = 0; l < options_.num_hidden_layers; ++l) {
      dims.push_back(options_.hidden_dim);
    }
  }
  dims.push_back(1);
  net_ = std::make_unique<nn::Mlp>(dims, nn::Activation::kRelu,
                                   nn::Activation::kSigmoid, rng);
}

void FlatEstimator::TrainStep(std::span<const query::Query* const> batch,
                              const LossGrad& loss_grad) {
  // The whole minibatch as one N x d matrix through one caching forward and
  // one backward; each sample is a one-row segment of the weight gradients.
  const int n = static_cast<int>(batch.size());
  train_x_.Reset(n, encoder().flat_dim_for(options_.flat_variant));
  for (int i = 0; i < n; ++i) {
    encoder().FlatEncodeInto(*batch[i], options_.flat_variant,
                             train_x_.RowPtr(i));
  }
  const nn::Matrix& y = net_->Forward(train_x_);
  train_dy_.Reset(n, 1);
  for (int i = 0; i < n; ++i) train_dy_.At(i, 0) = loss_grad(i, y.At(i, 0));
  train_segments_.assign(n, 1);
  net_->Backward(train_x_, train_dy_, train_segments_, /*input_grad=*/false);
}

void FlatEstimator::ReleaseTrainingScratch() {
  train_x_ = nn::Matrix();
  train_dy_ = nn::Matrix();
  std::vector<int>().swap(train_segments_);
  net_->ReleaseTrainingScratch();
}

void FlatEstimator::ForwardBatch(std::span<const query::Query> queries,
                                 float* out, FeatureStats* stats) const {
  // Encode every query straight into one N x d matrix and run a single
  // multi-row forward: each layer is one kernel call instead of N GEMVs,
  // and row values are bit-identical to per-query forwards (matrix.h).
  thread_local nn::Matrix x, y;
  telemetry::StageTimer::Mark("encode");
  const int n = static_cast<int>(queries.size());
  x.Reset(n, encoder().flat_dim_for(options_.flat_variant));
  for (int i = 0; i < n; ++i) {
    encoder().FlatEncodeInto(queries[i], options_.flat_variant, x.RowPtr(i));
  }
  if (stats != nullptr) *stats = StatsOf(x.RowPtr(0), x.cols());
  telemetry::StageTimer::Mark("forward");
  net_->InferInto(x, &y);
  for (int i = 0; i < n; ++i) out[i] = y.At(i, 0);
}

}  // namespace ce
}  // namespace lce
