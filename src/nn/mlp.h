// Multi-layer perceptron: the workhorse of every query-driven model.

#ifndef LCE_NN_MLP_H_
#define LCE_NN_MLP_H_

#include <memory>
#include <vector>

#include "src/nn/activation.h"
#include "src/nn/dense.h"

namespace lce {
namespace nn {

/// A stack of Dense layers with per-layer activations. Hidden layers use
/// `hidden_act`; the output layer uses `output_act`. Forward caches per-layer
/// outputs; Backward walks them in reverse. One outstanding Forward at a time.
/// InferInto is the const inference pass and may run on many threads at once.
class Mlp {
 public:
  /// `dims` = {in, h1, ..., out}; requires at least {in, out}.
  Mlp(const std::vector<int>& dims, Activation hidden_act,
      Activation output_act, Rng* rng);

  Matrix Forward(const Matrix& x);

  /// The network's output for `x` into caller-owned `out`, bit-identical to
  /// Forward. Hidden activations live in per-thread scratch that keeps its
  /// capacity across calls, so a warm call allocates nothing. `out` must not
  /// alias `x`.
  void InferInto(const Matrix& x, Matrix* out) const;

  /// dL/dx of the most recent Forward; accumulates parameter gradients.
  Matrix Backward(const Matrix& dout);

  std::vector<Param*> Params();

  size_t NumParams() const;
  int in_dim() const { return layers_.front()->in_dim(); }
  int out_dim() const { return layers_.back()->out_dim(); }

 private:
  std::vector<std::unique_ptr<Dense>> layers_;
  std::vector<Activation> acts_;
  std::vector<Matrix> outputs_;  // post-activation output per layer
};

}  // namespace nn
}  // namespace lce

#endif  // LCE_NN_MLP_H_
