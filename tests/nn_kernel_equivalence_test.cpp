// Randomized equivalence of the vectorized kernel layer against the naive
// reference path (LCE_SIMD=0), asserting the DESIGN.md §10 exactness
// contract: the default build is BIT-identical to the reference on every
// input, at every thread count, for every shape — including degenerate ones
// (1xN, Nx1, odd tails past the 4-row panels and 16-float padding).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/activation.h"
#include "src/nn/adam.h"
#include "src/nn/matrix.h"
#include "src/nn/mlp.h"
#include "src/util/parallel.h"
#include "src/util/simd.h"

namespace lce {
namespace nn {
namespace {

// Restores both kernel knobs and the pool size on scope exit, so a failing
// assertion cannot leak state into later tests.
struct KernelEnvGuard {
  ~KernelEnvGuard() {
    simd::SetSimdEnabledForTesting(-1);
    simd::SetFastMathEnabledForTesting(-1);
    parallel::SetThreadCountForTesting(0);
  }
};

// Bit pattern of every logical element; NaNs compare equal to themselves.
std::vector<uint32_t> Bits(const Matrix& m) {
  std::vector<float> flat = m.ToFlat();
  std::vector<uint32_t> bits(flat.size());
  static_assert(sizeof(float) == sizeof(uint32_t));
  std::memcpy(bits.data(), flat.data(), flat.size() * sizeof(float));
  return bits;
}

// Dense Gaussian values with a sprinkle of exact zeros (the removed
// `av == 0.0f` skip must not resurface as a behavioral difference).
Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m = Matrix::Randn(rows, cols, 1.0f, rng);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (rng->UniformInt(0, 9) == 0) m.At(r, c) = 0.0f;
    }
  }
  return m;
}

struct Shape {
  int m, k, n;
};

// Panel multiples, odd tails, vectors, and padding-boundary sizes; the last
// is large enough (3.9 M multiply-adds) to fan out to the pool at 4 threads.
const Shape kShapes[] = {
    {1, 1, 1},   {1, 7, 1},    {7, 1, 7},    {1, 384, 48}, {48, 384, 1},
    {4, 16, 16}, {5, 17, 19},  {8, 33, 15},  {16, 16, 16}, {13, 64, 31},
    {64, 48, 9}, {33, 47, 63}, {96, 96, 96}, {161, 256, 95},
};

const int kThreadCounts[] = {1, 4};

template <typename Op>
void ExpectBitIdenticalAcrossPaths(const char* what, const Op& op) {
  KernelEnvGuard guard;
  for (int threads : kThreadCounts) {
    parallel::SetThreadCountForTesting(threads);
    simd::SetSimdEnabledForTesting(0);
    Matrix reference = op();
    simd::SetSimdEnabledForTesting(1);
    Matrix fast = op();
    ASSERT_EQ(reference.rows(), fast.rows()) << what;
    ASSERT_EQ(reference.cols(), fast.cols()) << what;
    EXPECT_EQ(Bits(reference), Bits(fast))
        << what << " diverges at " << threads << " threads";
  }
}

TEST(KernelEquivalenceTest, MatMulMatchesNaiveBitwise) {
  for (const Shape& s : kShapes) {
    Rng rng(s.m * 10007 + s.k * 101 + s.n);
    Matrix a = RandomMatrix(s.m, s.k, &rng);
    Matrix b = RandomMatrix(s.k, s.n, &rng);
    ExpectBitIdenticalAcrossPaths("MatMul", [&] { return MatMul(a, b); });
  }
}

TEST(KernelEquivalenceTest, MatMulTransAMatchesNaiveBitwise) {
  for (const Shape& s : kShapes) {
    Rng rng(s.m * 7919 + s.k * 211 + s.n);
    Matrix a = RandomMatrix(s.k, s.m, &rng);  // A^T is m x k
    Matrix b = RandomMatrix(s.k, s.n, &rng);
    ExpectBitIdenticalAcrossPaths("MatMulTransA",
                                  [&] { return MatMulTransA(a, b); });
  }
}

TEST(KernelEquivalenceTest, MatMulTransBMatchesNaiveBitwise) {
  for (const Shape& s : kShapes) {
    Rng rng(s.m * 6007 + s.k * 307 + s.n);
    Matrix a = RandomMatrix(s.m, s.k, &rng);
    Matrix b = RandomMatrix(s.n, s.k, &rng);  // B^T is k x n
    ExpectBitIdenticalAcrossPaths("MatMulTransB",
                                  [&] { return MatMulTransB(a, b); });
  }
}

// Rows [first, first + count) of `m` as their own matrix.
Matrix RowsOf(const Matrix& m, int first, int count) {
  Matrix out(count, m.cols());
  for (int r = 0; r < count; ++r) {
    std::copy(m.RowPtr(first + r), m.RowPtr(first + r) + m.cols(),
              out.RowPtr(r));
  }
  return out;
}

// The segmented weight-gradient kernel equals one MatMulTransA + Add per
// segment, bit for bit, on both paths and at 1 and 4 threads: for ragged
// segments (1-row runs, longer runs, an empty segment), for all 1-row
// segments (a flat minibatch), and for one segment of every row (the
// unsegmented Backward).
TEST(KernelEquivalenceTest, SegmentedTransAMatchesPerSegmentTransABitwise) {
  for (const Shape& s : kShapes) {
    Rng rng(s.m * 4409 + s.k * 113 + s.n);
    Matrix a = RandomMatrix(s.k, s.m, &rng);  // A^T is m x k
    Matrix b = RandomMatrix(s.k, s.n, &rng);
    const Matrix start = RandomMatrix(s.m, s.n, &rng);
    std::vector<int> ragged;
    for (int left = s.k; left > 0;) {
      const int len = std::min<int>(
          left, rng.UniformInt(0, 2) == 0 ? 1 : rng.UniformInt(2, 6));
      ragged.push_back(len);
      left -= len;
    }
    ragged.insert(ragged.begin() + static_cast<int>(ragged.size()) / 2, 0);
    const std::vector<int> ones(s.k, 1);
    const std::vector<int> whole{s.k};
    const std::vector<int>* kinds[] = {&ragged, &ones, &whole};
    for (const std::vector<int>* segments : kinds) {
      ExpectBitIdenticalAcrossPaths("MatMulTransAAccumulate", [&] {
        Matrix want = start;
        int first = 0;
        for (const int rows : *segments) {
          want.Add(MatMulTransA(RowsOf(a, first, rows), RowsOf(b, first, rows)));
          first += rows;
        }
        Matrix got = start;
        MatMulTransAAccumulate(a, b, *segments, &got);
        EXPECT_EQ(Bits(got), Bits(want))
            << s.m << "x" << s.k << "x" << s.n << ", " << segments->size()
            << " segments, simd=" << simd::SimdEnabled();
        return got;
      });
    }
  }
}

// The vectorized segmented kernel computes whole 16-float tiles, padding
// lanes included, where 0 * inf is NaN; it must store only logical columns.
TEST(KernelEquivalenceTest, SegmentedTransAKeepsPaddingZero) {
  KernelEnvGuard guard;
  const float kInf = std::numeric_limits<float>::infinity();
  for (int simd_on : {0, 1}) {
    simd::SetSimdEnabledForTesting(simd_on);
    Matrix a = Matrix::FromFlat(2, 5, {kInf, 1, 2, 3, 4, 5, 6, 7, 8, -kInf});
    Matrix b = Matrix::FromFlat(2, 3, {1, 2, 3, 4, 5, 6});
    Matrix grad(5, 3);
    const std::vector<int> segments{1, 1};
    MatMulTransAAccumulate(a, b, segments, &grad);
    EXPECT_EQ(grad.At(0, 0), kInf) << "simd=" << simd_on;
    for (int r = 0; r < grad.rows(); ++r) {
      for (int c = grad.cols(); c < grad.ld(); ++c) {
        ASSERT_EQ(grad.RowPtr(r)[c], 0.0f)
            << "padding (" << r << ", " << c << ") simd=" << simd_on;
      }
    }
  }
}

TEST(KernelEquivalenceTest, FusedBiasActivationMatchesUnfusedBitwise) {
  const Activation kActs[] = {Activation::kIdentity, Activation::kRelu,
                              Activation::kSigmoid, Activation::kTanh};
  for (const Shape& s : kShapes) {
    for (Activation act : kActs) {
      Rng rng(s.m * 31 + s.k * 17 + s.n * 13 + static_cast<int>(act));
      Matrix a = RandomMatrix(s.m, s.k, &rng);
      Matrix b = RandomMatrix(s.k, s.n, &rng);
      Matrix bias = RandomMatrix(1, s.n, &rng);
      // Fused vs the three separate passes, under the same kernel path.
      KernelEnvGuard guard;
      for (int simd_on : {0, 1}) {
        simd::SetSimdEnabledForTesting(simd_on);
        Matrix fused = MatMulBiasAct(a, b, bias, act);
        Matrix unfused = MatMul(a, b);
        AddBiasRow(&unfused, bias);
        unfused = ApplyActivation(act, std::move(unfused));
        EXPECT_EQ(Bits(fused), Bits(unfused))
            << "fused epilogue diverges, simd=" << simd_on;
      }
      // And the fused op itself across paths.
      ExpectBitIdenticalAcrossPaths(
          "MatMulBiasAct", [&] { return MatMulBiasAct(a, b, bias, act); });
    }
  }
}

// The allocation-free form must not care what its output buffer held: a
// scratch matrix that last carried a larger result, with every float
// (padding included) then overwritten by NaN, must come out bit-identical to
// a fresh MatMulBiasAct, with its padding back to zero. On both paths.
TEST(KernelEquivalenceTest, IntoReusedDirtyBufferMatchesFreshBitwise) {
  KernelEnvGuard guard;
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  for (int simd_on : {0, 1}) {
    simd::SetSimdEnabledForTesting(simd_on);
    for (const Shape& s : kShapes) {
      for (Activation act : {Activation::kIdentity, Activation::kRelu,
                             Activation::kSigmoid}) {
        Rng rng(s.m * 53 + s.k * 29 + s.n * 11 + static_cast<int>(act));
        Matrix a = RandomMatrix(s.m, s.k, &rng);
        Matrix b = RandomMatrix(s.k, s.n, &rng);
        Matrix bias = RandomMatrix(1, s.n, &rng);
        Matrix fresh = MatMulBiasAct(a, b, bias, act);

        Matrix reused;
        MatMulBiasActInto(RandomMatrix(s.m + 5, 40, &rng),
                          RandomMatrix(40, s.n + 17, &rng), Matrix(), act,
                          &reused);
        ASSERT_GT(reused.padded_size(), fresh.padded_size());
        std::fill(reused.raw(), reused.raw() + reused.padded_size(), kNan);
        MatMulBiasActInto(a, b, bias, act, &reused);

        ASSERT_EQ(reused.rows(), fresh.rows());
        ASSERT_EQ(reused.cols(), fresh.cols());
        ASSERT_EQ(reused.ld(), fresh.ld());
        EXPECT_EQ(Bits(reused), Bits(fresh))
            << s.m << "x" << s.k << "x" << s.n << " simd=" << simd_on;
        for (int r = 0; r < reused.rows(); ++r) {
          for (int c = reused.cols(); c < reused.ld(); ++c) {
            ASSERT_EQ(reused.RowPtr(r)[c], 0.0f)
                << "padding (" << r << ", " << c << ") simd=" << simd_on;
          }
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, AddBiasRowActivateMatchesSeparatePasses) {
  Rng rng(99);
  Matrix x = RandomMatrix(9, 37, &rng);
  Matrix bias = RandomMatrix(1, 37, &rng);
  for (Activation act : {Activation::kRelu, Activation::kTanh}) {
    Matrix fused = x;
    AddBiasRowActivate(&fused, bias, act);
    Matrix unfused = x;
    AddBiasRow(&unfused, bias);
    unfused = ApplyActivation(act, std::move(unfused));
    EXPECT_EQ(Bits(fused), Bits(unfused));
  }
}

TEST(KernelEquivalenceTest, ElementwiseOpsPreservePaddingAndValues) {
  Rng rng(7);
  // Odd width: 2 padding floats per row behind the 14 logical columns.
  Matrix a = RandomMatrix(5, 14, &rng);
  Matrix b = RandomMatrix(5, 14, &rng);
  std::vector<float> expected(a.size());
  {
    std::vector<float> fa = a.ToFlat(), fb = b.ToFlat();
    for (size_t i = 0; i < fa.size(); ++i) expected[i] = (fa[i] + fb[i]) * 0.5f;
  }
  a.Add(b);
  a.Scale(0.5f);
  EXPECT_EQ(a.ToFlat(), expected);
  // Padding must still be zero everywhere (checksum stability contract).
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = a.cols(); c < a.ld(); ++c) {
      EXPECT_EQ(a.RowPtr(r)[c], 0.0f) << "padding dirtied at " << r;
    }
  }
}

TEST(KernelEquivalenceTest, RowsAre64ByteAligned) {
  Matrix m(3, 5);
  for (int r = 0; r < m.rows(); ++r) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.RowPtr(r)) % 64, 0u);
  }
  EXPECT_EQ(m.ld(), 16);
  EXPECT_EQ(m.padded_size(), 48u);
  EXPECT_EQ(m.size(), 15u);
}

TEST(KernelEquivalenceTest, NanPropagatesThroughZeroWeights) {
  // The old kernels skipped av == 0.0f and silently dropped NaN rows of B;
  // both paths must now agree AND propagate (0 * NaN == NaN).
  Matrix a = Matrix::FromFlat(1, 2, {0.0f, 1.0f});
  Matrix b = Matrix::FromFlat(
      2, 2, {std::numeric_limits<float>::quiet_NaN(), 2.0f, 3.0f, 4.0f});
  KernelEnvGuard guard;
  for (int simd_on : {0, 1}) {
    simd::SetSimdEnabledForTesting(simd_on);
    Matrix c = MatMul(a, b);
    EXPECT_TRUE(std::isnan(c.At(0, 0))) << "simd=" << simd_on;
    EXPECT_FLOAT_EQ(c.At(0, 1), 4.0f);  // 0*2 + 1*4
  }
}

// End-to-end: a full training run (forward, backward, Adam) lands on
// bit-identical weights with the vectorized and reference kernels, at 1 and
// 4 threads — the estimator-zoo guarantee in miniature.
TEST(KernelEquivalenceTest, MlpTrainingIsBitIdenticalAcrossPaths) {
  KernelEnvGuard guard;
  auto train = [] {
    Rng rng(42);
    Mlp mlp({7, 16, 5, 1}, Activation::kRelu, Activation::kSigmoid, &rng);
    Adam adam(1e-2f);
    Matrix x = Matrix::Randn(12, 7, 1.0f, &rng);
    for (int step = 0; step < 10; ++step) {
      Matrix y = mlp.Forward(x);
      Matrix dy(y.rows(), y.cols(), 1.0f);
      mlp.Backward(x, dy);
      adam.Step(mlp.Params());
    }
    std::vector<uint32_t> bits;
    for (Param* p : mlp.Params()) {
      std::vector<uint32_t> b = Bits(p->value);
      bits.insert(bits.end(), b.begin(), b.end());
    }
    return bits;
  };
  simd::SetSimdEnabledForTesting(0);
  parallel::SetThreadCountForTesting(1);
  std::vector<uint32_t> reference = train();
  for (int threads : kThreadCounts) {
    parallel::SetThreadCountForTesting(threads);
    simd::SetSimdEnabledForTesting(1);
    EXPECT_EQ(reference, train()) << "threads=" << threads;
    simd::SetSimdEnabledForTesting(0);
    EXPECT_EQ(reference, train()) << "naive threads=" << threads;
  }
}

// LCE_FASTMATH reorders dot-product accumulation: not bit-identical (that is
// the documented trade), but it must stay numerically close.
TEST(KernelEquivalenceTest, FastMathTransBIsCloseButUnordered) {
  KernelEnvGuard guard;
  Rng rng(5);
  Matrix a = RandomMatrix(3, 257, &rng);
  Matrix b = RandomMatrix(5, 257, &rng);
  simd::SetSimdEnabledForTesting(1);
  simd::SetFastMathEnabledForTesting(0);
  Matrix exact = MatMulTransB(a, b);
  simd::SetFastMathEnabledForTesting(1);
  Matrix fast = MatMulTransB(a, b);
  for (int r = 0; r < exact.rows(); ++r) {
    for (int c = 0; c < exact.cols(); ++c) {
      EXPECT_NEAR(fast.At(r, c), exact.At(r, c),
                  1e-4 * (1.0 + std::abs(exact.At(r, c))));
    }
  }
}

}  // namespace
}  // namespace nn
}  // namespace lce
