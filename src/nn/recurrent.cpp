#include "src/nn/recurrent.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/nn/activation.h"

namespace lce {
namespace nn {

namespace {

// Batched sequence bookkeeping shared by both cells: indices sorted by
// descending length (stable, so equal-length sequences keep input order —
// ordering only affects row placement, never row values).
std::vector<int> SortByLengthDesc(const std::vector<Matrix>& seqs) {
  std::vector<int> order(seqs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&seqs](int a, int b) {
    return seqs[a].rows() > seqs[b].rows();
  });
  return order;
}

// Copies the leading `rows` rows of `m` into a fresh rows x cols matrix.
Matrix ShrinkRows(const Matrix& m, int rows) {
  Matrix out(rows, m.cols());
  for (int r = 0; r < rows; ++r) {
    const float* src = m.RowPtr(r);
    std::copy(src, src + m.cols(), out.RowPtr(r));
  }
  return out;
}

}  // namespace

RnnCell::RnnCell(int in_dim, int hidden_dim, Rng* rng)
    : wx_(Matrix::Randn(in_dim, hidden_dim,
                        std::sqrt(1.0f / static_cast<float>(in_dim)), rng)),
      wh_(Matrix::Randn(hidden_dim, hidden_dim,
                        std::sqrt(1.0f / static_cast<float>(hidden_dim)), rng)),
      b_(Matrix::Zeros(1, hidden_dim)) {}

Matrix RnnCell::ForwardSequence(const Matrix& seq) {
  LCE_CHECK(seq.rows() >= 1);
  seq_ = seq;
  hs_.clear();
  Matrix h = Matrix::Zeros(1, hidden_dim());
  for (int t = 0; t < seq.rows(); ++t) {
    Matrix x = Matrix::Row(seq.RowVector(t));
    Matrix pre = MatMul(x, wx_.value);
    pre.Add(MatMul(h, wh_.value));
    AddBiasRowActivate(&pre, b_.value, Activation::kTanh);
    h = std::move(pre);
    hs_.push_back(h);
  }
  return h;
}

Matrix RnnCell::ForwardSequenceBatch(const std::vector<Matrix>& seqs) const {
  const int n = static_cast<int>(seqs.size());
  LCE_CHECK(n > 0);
  const int in = wx_.value.rows();
  const int h = wh_.value.rows();
  for (const Matrix& s : seqs) {
    LCE_CHECK(s.rows() >= 1);
    LCE_CHECK(s.cols() == in);
  }
  std::vector<int> order = SortByLengthDesc(seqs);
  Matrix out(n, h);
  Matrix hcur = Matrix::Zeros(n, h);  // rows follow `order`
  int active = n;
  const int max_len = seqs[order[0]].rows();
  for (int t = 0; t < max_len; ++t) {
    // Sequences shorter than t+1 steps finished last step; sorted descending
    // they occupy the tail rows, whose hidden states are already final.
    int still = active;
    while (still > 0 && seqs[order[still - 1]].rows() <= t) --still;
    if (still < active) {
      for (int r = still; r < active; ++r) {
        const float* src = hcur.RowPtr(r);
        std::copy(src, src + h, out.RowPtr(order[r]));
      }
      hcur = ShrinkRows(hcur, still);
      active = still;
    }
    Matrix xt(active, in);
    for (int r = 0; r < active; ++r) {
      const float* src = seqs[order[r]].RowPtr(t);
      std::copy(src, src + in, xt.RowPtr(r));
    }
    // Same step arithmetic as ForwardSequence, over `active` rows at once.
    Matrix pre = MatMul(xt, wx_.value);
    pre.Add(MatMul(hcur, wh_.value));
    AddBiasRowActivate(&pre, b_.value, Activation::kTanh);
    hcur = std::move(pre);
  }
  for (int r = 0; r < active; ++r) {
    const float* src = hcur.RowPtr(r);
    std::copy(src, src + h, out.RowPtr(order[r]));
  }
  return out;
}

void RnnCell::BackwardSequence(const Matrix& dh_final) {
  LCE_CHECK_MSG(!hs_.empty(), "BackwardSequence without ForwardSequence");
  Matrix dh = dh_final;
  for (int t = static_cast<int>(hs_.size()) - 1; t >= 0; --t) {
    // Through tanh.
    Matrix dpre = ActivationBackward(Activation::kTanh, hs_[t], std::move(dh));
    Matrix x = Matrix::Row(seq_.RowVector(t));
    MatMulTransAAccumulate(x, dpre, {}, &wx_.grad);
    Matrix h_prev =
        t > 0 ? hs_[t - 1] : Matrix::Zeros(1, hidden_dim());
    MatMulTransAAccumulate(h_prev, dpre, {}, &wh_.grad);
    b_.grad.Add(dpre);
    dh = MatMulTransB(dpre, wh_.value);
  }
}

LstmCell::LstmCell(int in_dim, int hidden_dim, Rng* rng)
    : in_dim_(in_dim),
      hidden_dim_(hidden_dim),
      w_(Matrix::Randn(in_dim + hidden_dim, 4 * hidden_dim,
                       std::sqrt(1.0f / static_cast<float>(in_dim + hidden_dim)),
                       rng)),
      b_(Matrix::Zeros(1, 4 * hidden_dim)) {
  // Forget-gate bias starts positive: standard trick for gradient flow.
  for (int j = hidden_dim_; j < 2 * hidden_dim_; ++j) b_.value.At(0, j) = 1.0f;
}

Matrix LstmCell::ForwardSequence(const Matrix& seq) {
  LCE_CHECK(seq.rows() >= 1);
  LCE_CHECK(seq.cols() == in_dim_);
  cache_.clear();
  c_prev_.clear();
  Matrix h = Matrix::Zeros(1, hidden_dim_);
  Matrix c = Matrix::Zeros(1, hidden_dim_);
  for (int t = 0; t < seq.rows(); ++t) {
    StepCache step;
    c_prev_.push_back(c);
    // z = [x_t, h_{t-1}]
    step.z = Matrix(1, in_dim_ + hidden_dim_);
    for (int j = 0; j < in_dim_; ++j) step.z.At(0, j) = seq.At(t, j);
    for (int j = 0; j < hidden_dim_; ++j) {
      step.z.At(0, in_dim_ + j) = h.At(0, j);
    }
    Matrix pre =
        MatMulBiasAct(step.z, w_.value, b_.value, Activation::kIdentity);
    step.gates = Matrix(1, 4 * hidden_dim_);
    for (int j = 0; j < 4 * hidden_dim_; ++j) {
      float v = pre.At(0, j);
      // i, f, o gates: sigmoid; g (cell candidate): tanh.
      bool is_g = j >= 2 * hidden_dim_ && j < 3 * hidden_dim_;
      step.gates.At(0, j) =
          is_g ? std::tanh(v) : 1.0f / (1.0f + std::exp(-v));
    }
    step.c = Matrix(1, hidden_dim_);
    step.tanh_c = Matrix(1, hidden_dim_);
    Matrix h_next(1, hidden_dim_);
    for (int j = 0; j < hidden_dim_; ++j) {
      float i = step.gates.At(0, j);
      float f = step.gates.At(0, hidden_dim_ + j);
      float g = step.gates.At(0, 2 * hidden_dim_ + j);
      float o = step.gates.At(0, 3 * hidden_dim_ + j);
      float cv = f * c.At(0, j) + i * g;
      step.c.At(0, j) = cv;
      float tc = std::tanh(cv);
      step.tanh_c.At(0, j) = tc;
      h_next.At(0, j) = o * tc;
    }
    c = step.c;
    h = h_next;
    cache_.push_back(std::move(step));
  }
  return h;
}

Matrix LstmCell::ForwardSequenceBatch(const std::vector<Matrix>& seqs) const {
  const int n = static_cast<int>(seqs.size());
  LCE_CHECK(n > 0);
  for (const Matrix& s : seqs) {
    LCE_CHECK(s.rows() >= 1);
    LCE_CHECK(s.cols() == in_dim_);
  }
  std::vector<int> order = SortByLengthDesc(seqs);
  Matrix out(n, hidden_dim_);
  Matrix hcur = Matrix::Zeros(n, hidden_dim_);
  Matrix ccur = Matrix::Zeros(n, hidden_dim_);
  int active = n;
  const int max_len = seqs[order[0]].rows();
  for (int t = 0; t < max_len; ++t) {
    int still = active;
    while (still > 0 && seqs[order[still - 1]].rows() <= t) --still;
    if (still < active) {
      for (int r = still; r < active; ++r) {
        const float* src = hcur.RowPtr(r);
        std::copy(src, src + hidden_dim_, out.RowPtr(order[r]));
      }
      hcur = ShrinkRows(hcur, still);
      ccur = ShrinkRows(ccur, still);
      active = still;
    }
    // z = [x_t, h_{t-1}] per active row, one fused gate projection.
    Matrix z(active, in_dim_ + hidden_dim_);
    for (int r = 0; r < active; ++r) {
      float* zrow = z.RowPtr(r);
      const float* src = seqs[order[r]].RowPtr(t);
      std::copy(src, src + in_dim_, zrow);
      const float* hrow = hcur.RowPtr(r);
      std::copy(hrow, hrow + hidden_dim_, zrow + in_dim_);
    }
    Matrix pre = MatMulBiasAct(z, w_.value, b_.value, Activation::kIdentity);
    Matrix h_next(active, hidden_dim_);
    Matrix c_next(active, hidden_dim_);
    for (int r = 0; r < active; ++r) {
      const float* g = pre.RowPtr(r);
      const float* cp = ccur.RowPtr(r);
      float* hn = h_next.RowPtr(r);
      float* cn = c_next.RowPtr(r);
      // Gate arithmetic matches ForwardSequence term for term.
      for (int j = 0; j < hidden_dim_; ++j) {
        float i = 1.0f / (1.0f + std::exp(-g[j]));
        float f = 1.0f / (1.0f + std::exp(-g[hidden_dim_ + j]));
        float gg = std::tanh(g[2 * hidden_dim_ + j]);
        float o = 1.0f / (1.0f + std::exp(-g[3 * hidden_dim_ + j]));
        float cv = f * cp[j] + i * gg;
        cn[j] = cv;
        hn[j] = o * std::tanh(cv);
      }
    }
    hcur = std::move(h_next);
    ccur = std::move(c_next);
  }
  for (int r = 0; r < active; ++r) {
    const float* src = hcur.RowPtr(r);
    std::copy(src, src + hidden_dim_, out.RowPtr(order[r]));
  }
  return out;
}

void LstmCell::BackwardSequence(const Matrix& dh_final) {
  LCE_CHECK_MSG(!cache_.empty(), "BackwardSequence without ForwardSequence");
  Matrix dh = dh_final;
  Matrix dc = Matrix::Zeros(1, hidden_dim_);
  for (int t = static_cast<int>(cache_.size()) - 1; t >= 0; --t) {
    const StepCache& step = cache_[t];
    Matrix dgates(1, 4 * hidden_dim_);
    Matrix dc_prev(1, hidden_dim_);
    for (int j = 0; j < hidden_dim_; ++j) {
      float i = step.gates.At(0, j);
      float f = step.gates.At(0, hidden_dim_ + j);
      float g = step.gates.At(0, 2 * hidden_dim_ + j);
      float o = step.gates.At(0, 3 * hidden_dim_ + j);
      float tc = step.tanh_c.At(0, j);
      float dhj = dh.At(0, j);
      // h = o * tanh(c)
      float do_ = dhj * tc;
      float dcj = dc.At(0, j) + dhj * o * (1.0f - tc * tc);
      // c = f * c_prev + i * g
      float di = dcj * g;
      float df = dcj * c_prev_[t].At(0, j);
      float dg = dcj * i;
      dc_prev.At(0, j) = dcj * f;
      // Through the gate nonlinearities.
      dgates.At(0, j) = di * i * (1.0f - i);
      dgates.At(0, hidden_dim_ + j) = df * f * (1.0f - f);
      dgates.At(0, 2 * hidden_dim_ + j) = dg * (1.0f - g * g);
      dgates.At(0, 3 * hidden_dim_ + j) = do_ * o * (1.0f - o);
    }
    MatMulTransAAccumulate(step.z, dgates, {}, &w_.grad);
    b_.grad.Add(dgates);
    Matrix dz = MatMulTransB(dgates, w_.value);
    // Split dz into dx (discarded) and dh_prev.
    Matrix dh_prev(1, hidden_dim_);
    for (int j = 0; j < hidden_dim_; ++j) {
      dh_prev.At(0, j) = dz.At(0, in_dim_ + j);
    }
    dh = dh_prev;
    dc = dc_prev;
  }
}

}  // namespace nn
}  // namespace lce
