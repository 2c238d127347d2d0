// Fully-connected layer with cached-input backward pass.

#ifndef LCE_NN_DENSE_H_
#define LCE_NN_DENSE_H_

#include <cmath>
#include <vector>

#include "src/nn/param.h"

namespace lce {
namespace nn {

/// y = x * W + b, operating on a batch matrix (rows = examples).
///
/// Forward caches its input; Backward must be called with the gradient of the
/// most recent Forward. Parameter gradients accumulate until ZeroGrad().
/// InferInto is the inference pass: the same kernel, no cache, const.
class Dense {
 public:
  Dense(int in_dim, int out_dim, Rng* rng)
      : weight_(Matrix::Randn(in_dim, out_dim,
                              std::sqrt(2.0f / static_cast<float>(in_dim)),
                              rng)),
        bias_(Matrix::Zeros(1, out_dim)) {}

  Matrix Forward(const Matrix& x) { return Forward(x, Activation::kIdentity); }

  /// y = act(x * W + b) via the fused kernel epilogue (matrix.cpp): bias and
  /// activation apply while each output row is cache-hot instead of in two
  /// further passes. Bit-identical to Forward + ApplyActivation.
  Matrix Forward(const Matrix& x, Activation act) {
    input_ = x;
    return MatMulBiasAct(x, weight_.value, bias_.value, act);
  }

  /// act(x * W + b) into caller-owned `y`, bit-identical to Forward; reads
  /// only the parameters, so concurrent calls are safe.
  void InferInto(const Matrix& x, Activation act, Matrix* y) const {
    MatMulBiasActInto(x, weight_.value, bias_.value, act, y);
  }

  /// Returns dL/dx; accumulates dL/dW and dL/db.
  Matrix Backward(const Matrix& dy) {
    weight_.grad.Add(MatMulTransA(input_, dy));
    for (int r = 0; r < dy.rows(); ++r) {
      const float* row = dy.RowPtr(r);
      for (int c = 0; c < dy.cols(); ++c) bias_.grad.At(0, c) += row[c];
    }
    return MatMulTransB(dy, weight_.value);
  }

  std::vector<Param*> Params() { return {&weight_, &bias_}; }

  int in_dim() const { return weight_.value.rows(); }
  int out_dim() const { return weight_.value.cols(); }

 private:
  Param weight_;
  Param bias_;
  Matrix input_;
};

}  // namespace nn
}  // namespace lce

#endif  // LCE_NN_DENSE_H_
