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
/// InferInto is the forward kernel itself: no cache, const. BackwardInto is
/// the backward with the input passed in, for owners (Mlp) that keep the
/// training caches themselves.
class Dense {
 public:
  Dense(int in_dim, int out_dim, Rng* rng)
      : weight_(Matrix::Randn(in_dim, out_dim,
                              std::sqrt(2.0f / static_cast<float>(in_dim)),
                              rng)),
        bias_(Matrix::Zeros(1, out_dim)) {}

  /// x * W + b via the fused kernel (matrix.cpp); caches `x` for Backward.
  Matrix Forward(const Matrix& x) {
    input_ = x;
    return MatMulBiasAct(x, weight_.value, bias_.value, Activation::kIdentity);
  }

  /// act(x * W + b) into caller-owned `y`: bias and activation apply in the
  /// kernel epilogue while each output row is cache-hot. Reads only the
  /// parameters, so concurrent calls are safe.
  void InferInto(const Matrix& x, Activation act, Matrix* y) const {
    MatMulBiasActInto(x, weight_.value, bias_.value, act, y);
  }

  /// Returns dL/dx of the most recent Forward; accumulates dL/dW and dL/db.
  Matrix Backward(const Matrix& dy) {
    Matrix dx;
    BackwardInto(input_, dy, {}, &dx);
    return dx;
  }

  /// Backward for input `x` and output gradient `dy` (stacked rows;
  /// `segments` as in MatMulTransAAccumulate, empty = one segment):
  /// accumulates dL/dW one segment at a time and dL/db row by row in order,
  /// and writes dL/dx into `dx` unless it is null.
  void BackwardInto(const Matrix& x, const Matrix& dy,
                    std::span<const int> segments, Matrix* dx) {
    MatMulTransAAccumulate(x, dy, segments, &weight_.grad);
    float* bias_grad = bias_.grad.RowPtr(0);
    for (int r = 0; r < dy.rows(); ++r) {
      const float* row = dy.RowPtr(r);
      for (int c = 0; c < dy.cols(); ++c) bias_grad[c] += row[c];
    }
    if (dx != nullptr) MatMulTransBInto(dy, weight_.value, dx);
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
