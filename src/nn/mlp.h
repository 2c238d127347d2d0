// Multi-layer perceptron: the workhorse of every query-driven model.

#ifndef LCE_NN_MLP_H_
#define LCE_NN_MLP_H_

#include <memory>
#include <span>
#include <vector>

#include "src/nn/activation.h"
#include "src/nn/dense.h"

namespace lce {
namespace nn {

/// A stack of Dense layers with per-layer activations. Hidden layers use
/// `hidden_act`; the output layer uses `output_act`. Forward caches the
/// per-layer outputs; Backward walks them in reverse, given the same input
/// again (the caller already holds it, so the network keeps no copy). One
/// outstanding Forward at a time. The caches and gradient buffers keep their
/// capacity, so a warm training step allocates nothing, until
/// ReleaseTrainingScratch frees them. InferInto is the const inference pass
/// and may run on many threads at once.
class Mlp {
 public:
  /// `dims` = {in, h1, ..., out}; requires at least {in, out}.
  Mlp(const std::vector<int>& dims, Activation hidden_act,
      Activation output_act, Rng* rng);

  /// The training forward over stacked rows; the result stays valid until
  /// the next Forward.
  const Matrix& Forward(const Matrix& x);

  /// The network's output for `x` into caller-owned `out`, bit-identical to
  /// Forward. Hidden activations live in per-thread scratch that keeps its
  /// capacity across calls, so a warm call allocates nothing. `out` must not
  /// alias `x`.
  void InferInto(const Matrix& x, Matrix* out) const;

  /// Backward of the most recent Forward, whose input `x` is passed again
  /// (unchanged), from dL/d(output); accumulates parameter gradients. Rows
  /// are stacked samples: `segments[s]`
  /// consecutive rows belong to sample s (empty = one sample), and each
  /// weight gradient takes one fresh partial per sample, in sample order
  /// (MatMulTransAAccumulate). Returns dL/dx, valid until the next Backward;
  /// with `input_grad` false the first layer's input gradient is skipped
  /// and the result is empty.
  const Matrix& Backward(const Matrix& x, const Matrix& dout,
                         std::span<const int> segments = {},
                         bool input_grad = true);

  /// Frees the training caches and gradient buffers (a trained model keeps
  /// only its parameters); the next Forward grows them again.
  void ReleaseTrainingScratch();

  std::vector<Param*> Params();

  size_t NumParams() const;
  int in_dim() const { return layers_.front()->in_dim(); }
  int out_dim() const { return layers_.back()->out_dim(); }

 private:
  std::vector<std::unique_ptr<Dense>> layers_;
  std::vector<Activation> acts_;
  std::vector<Matrix> outputs_;  // post-activation output per layer
  bool forwarded_ = false;
  Matrix grads_[2];  // Backward's ping-pong gradient buffers
  Matrix no_grad_;   // Backward's result when the input gradient is skipped
};

}  // namespace nn
}  // namespace lce

#endif  // LCE_NN_MLP_H_
