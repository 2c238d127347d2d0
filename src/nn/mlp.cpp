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
  outputs_.resize(layers_.size());
}

const Matrix& Mlp::Forward(const Matrix& x) {
  const Matrix* cur = &x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->InferInto(*cur, acts_[i], &outputs_[i]);
    cur = &outputs_[i];
  }
  forwarded_ = true;
  return outputs_.back();
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

const Matrix& Mlp::Backward(const Matrix& x, const Matrix& dout,
                           std::span<const int> segments, bool input_grad) {
  LCE_CHECK_MSG(forwarded_, "Backward without a matching Forward");
  LCE_CHECK(x.rows() == outputs_.front().rows() && x.cols() == in_dim());
  LCE_CHECK(dout.rows() == outputs_.back().rows());
  Matrix* grad = &grads_[0];
  Matrix* next = &grads_[1];
  *grad = dout;
  for (size_t i = layers_.size(); i-- > 0;) {
    *grad = ActivationBackward(acts_[i], outputs_[i], std::move(*grad));
    const bool want_dx = i > 0 || input_grad;
    layers_[i]->BackwardInto(i > 0 ? outputs_[i - 1] : x, *grad,
                             segments, want_dx ? next : nullptr);
    if (!want_dx) return no_grad_;
    std::swap(grad, next);
  }
  return *grad;
}

void Mlp::ReleaseTrainingScratch() {
  for (Matrix& out : outputs_) out = Matrix();
  grads_[0] = Matrix();
  grads_[1] = Matrix();
  forwarded_ = false;
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
