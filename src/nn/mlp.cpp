#include "src/nn/mlp.h"

namespace lce {
namespace nn {

Mlp::Mlp(const std::vector<int>& dims, Activation hidden_act,
         Activation output_act, Rng* rng) {
  LCE_CHECK_MSG(dims.size() >= 2, "Mlp needs at least {in, out} dims");
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Dense>(dims[i], dims[i + 1], rng));
    acts_.push_back(i + 2 < dims.size() ? hidden_act : output_act);
  }
}

Matrix Mlp::Forward(const Matrix& x) {
  outputs_.clear();
  Matrix cur = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    cur = layers_[i]->Forward(cur, acts_[i]);
    outputs_.push_back(cur);
  }
  return cur;
}

void Mlp::InferInto(const Matrix& x, Matrix* out) const {
  // Hidden layers ping-pong between two buffers; only the last layer writes
  // `out`. Private to this function, so no caller's matrix can alias them.
  thread_local Matrix hidden[2];
  const Matrix* cur = &x;
  const size_t last = layers_.size() - 1;
  for (size_t i = 0; i < last; ++i) {
    Matrix* next = &hidden[i % 2];
    layers_[i]->InferInto(*cur, acts_[i], next);
    cur = next;
  }
  layers_[last]->InferInto(*cur, acts_[last], out);
}

Matrix Mlp::Backward(const Matrix& dout) {
  LCE_CHECK_MSG(outputs_.size() == layers_.size(),
                "Backward without a matching Forward");
  Matrix grad = dout;
  for (size_t i = layers_.size(); i-- > 0;) {
    grad = ActivationBackward(acts_[i], outputs_[i], std::move(grad));
    grad = layers_[i]->Backward(grad);
  }
  return grad;
}

std::vector<Param*> Mlp::Params() {
  std::vector<Param*> params;
  for (auto& layer : layers_) {
    for (Param* p : layer->Params()) params.push_back(p);
  }
  return params;
}

size_t Mlp::NumParams() const {
  size_t n = 0;
  for (const auto& layer : layers_) {
    n += static_cast<size_t>(layer->in_dim()) * layer->out_dim() +
         layer->out_dim();
  }
  return n;
}

}  // namespace nn
}  // namespace lce
