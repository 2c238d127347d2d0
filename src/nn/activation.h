// Element-wise activations with output-cached backward helpers.
//
// Applied in parallel row chunks: every element is an independent function of
// its input, so chunking never changes the result. Loops run per row over the
// logical cols() region (storage is padded — see matrix.h), vectorized with
// `#pragma omp simd`. The forward formulas here are the reference for the
// fused matmul epilogue in matrix.cpp and must stay in sync with it.
//
// The Activation enum itself lives in matrix.h so the fused epilogue can
// name it without a circular include.

#ifndef LCE_NN_ACTIVATION_H_
#define LCE_NN_ACTIVATION_H_

#include <cmath>
#include <cstdint>

#include "src/nn/matrix.h"
#include "src/util/parallel.h"

namespace lce {
namespace nn {

namespace internal {

// Elements per parallel chunk; batches below this run inline.
constexpr int64_t kActivationGrain = 1 << 14;

inline int64_t ActivationRowGrain(int cols) {
  return std::max<int64_t>(1, kActivationGrain / std::max(1, cols));
}

}  // namespace internal

/// Applies the activation in place and returns the result (the "output"),
/// which the matching backward uses.
inline Matrix ApplyActivation(Activation act, Matrix x) {
  if (act == Activation::kIdentity) return x;
  const int cols = x.cols();
  parallel::ParallelFor(
      0, x.rows(), internal::ActivationRowGrain(cols),
      [&x, act, cols](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          float* __restrict__ row = x.RowPtr(static_cast<int>(r));
          switch (act) {
            case Activation::kIdentity:
              break;
            case Activation::kRelu:
#pragma omp simd
              for (int c = 0; c < cols; ++c) {
                row[c] = row[c] > 0 ? row[c] : 0.0f;
              }
              break;
            case Activation::kSigmoid:
              for (int c = 0; c < cols; ++c) {
                row[c] = 1.0f / (1.0f + std::exp(-row[c]));
              }
              break;
            case Activation::kTanh:
              for (int c = 0; c < cols; ++c) row[c] = std::tanh(row[c]);
              break;
          }
        }
      });
  return x;
}

/// Given dL/d(output) and the cached output, returns dL/d(pre-activation).
inline Matrix ActivationBackward(Activation act, const Matrix& output,
                                 Matrix dout) {
  if (act == Activation::kIdentity) return dout;
  const int cols = dout.cols();
  parallel::ParallelFor(
      0, dout.rows(), internal::ActivationRowGrain(cols),
      [&output, &dout, act, cols](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const float* __restrict__ out = output.RowPtr(static_cast<int>(r));
          float* __restrict__ grad = dout.RowPtr(static_cast<int>(r));
          switch (act) {
            case Activation::kIdentity:
              break;
            case Activation::kRelu:
              // A select, not a branch: relu outputs are zero about half
              // the time, in no pattern a branch predictor can learn.
#pragma omp simd
              for (int c = 0; c < cols; ++c) {
                grad[c] = out[c] <= 0 ? 0.0f : grad[c];
              }
              break;
            case Activation::kSigmoid:
#pragma omp simd
              for (int c = 0; c < cols; ++c) {
                grad[c] *= out[c] * (1.0f - out[c]);
              }
              break;
            case Activation::kTanh:
#pragma omp simd
              for (int c = 0; c < cols; ++c) {
                grad[c] *= 1.0f - out[c] * out[c];
              }
              break;
          }
        }
      });
  return dout;
}

}  // namespace nn
}  // namespace lce

#endif  // LCE_NN_ACTIVATION_H_
