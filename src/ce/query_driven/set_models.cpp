#include "src/ce/query_driven/set_models.h"

#include <algorithm>

#include "src/util/logging.h"
#include "src/util/telemetry/stage_timer.h"

namespace lce {
namespace ce {

namespace {

// Mean-pools each `counts[i]`-row segment of `m` into row i of `out`
// starting at `col_offset`: ascending-row accumulation into the zeroed
// output row, then one multiply by 1/rows. Training and inference both pool
// through here, so a query's pooled row has the same bits in either.
void SegmentMeanInto(const nn::Matrix& m, const std::vector<int>& counts,
                     int col_offset, nn::Matrix* out) {
  int off = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    float* acc = out->RowPtr(static_cast<int>(i)) + col_offset;
    for (int r = 0; r < counts[i]; ++r) {
      const float* row = m.RowPtr(off + r);
      for (int c = 0; c < m.cols(); ++c) acc[c] += row[c];
    }
    const float inv = 1.0f / static_cast<float>(counts[i]);
    for (int c = 0; c < m.cols(); ++c) acc[c] *= inv;
    off += counts[i];
  }
}

}  // namespace

void SetBasedEstimator::InitModel(Rng* rng) {
  int h = options_.hidden_dim;
  int table_dim = use_sample_bitmap_
                      ? encoder().mscn_table_dim()
                      : static_cast<int>(encoder().schema().tables.size());
  table_mlp_ = std::make_unique<nn::Mlp>(std::vector<int>{table_dim, h, h},
                                         nn::Activation::kRelu,
                                         nn::Activation::kRelu, rng);
  join_mlp_ = std::make_unique<nn::Mlp>(
      std::vector<int>{encoder().mscn_join_dim(), h, h},
      nn::Activation::kRelu, nn::Activation::kRelu, rng);
  pred_mlp_ = std::make_unique<nn::Mlp>(
      std::vector<int>{encoder().mscn_pred_dim(), h, h},
      nn::Activation::kRelu, nn::Activation::kRelu, rng);
  head_ = std::make_unique<nn::Mlp>(std::vector<int>{3 * h, h, 1},
                                    nn::Activation::kRelu,
                                    nn::Activation::kSigmoid, rng);
}

template <typename QueryAt>
void SetBasedEstimator::EncodeTokens(int n, const QueryAt& query_at,
                                     TokenBlocks* out) const {
  out->table_counts.resize(n);
  out->join_counts.resize(n);
  out->pred_counts.resize(n);
  int tables = 0, joins = 0, preds = 0;
  for (int i = 0; i < n; ++i) {
    const query::MscnCounts c = encoder().MscnTokenCounts(query_at(i));
    tables += out->table_counts[i] = c.tables;
    joins += out->join_counts[i] = c.joins;
    preds += out->pred_counts[i] = c.predicates;
  }
  // FCN+Pool's table tokens are the one-hots alone: the leading columns of
  // MSCN's, without the sample bitmaps.
  out->tables.Reset(tables,
                    use_sample_bitmap_
                        ? encoder().mscn_table_dim()
                        : static_cast<int>(encoder().schema().tables.size()));
  out->joins.Reset(joins, encoder().mscn_join_dim());
  out->preds.Reset(preds, encoder().mscn_pred_dim());
  int t = 0, j = 0, p = 0;
  for (int i = 0; i < n; ++i) {
    encoder().MscnEncodeInto(
        query_at(i), {out->tables.RowPtr(t), out->tables.ld(),
                     out->joins.RowPtr(j), out->joins.ld(),
                     out->preds.RowPtr(p), out->preds.ld(),
                     use_sample_bitmap_});
    t += out->table_counts[i];
    j += out->join_counts[i];
    p += out->pred_counts[i];
  }
}

void SetBasedEstimator::TrainStep(std::span<const query::Query* const> batch,
                                  const LossGrad& loss_grad) {
  // ForwardBatch's stacked pass with caches, then one stacked backward. Each
  // query's tokens are one segment of its set MLP's weight gradients, and
  // each query is a one-row segment of the head's.
  TrainScratch& s = train_;
  const int n = static_cast<int>(batch.size());
  EncodeTokens(
      n, [&batch](int i) -> const query::Query& { return *batch[i]; },
      &s.tokens);
  const int h = options_.hidden_dim;
  s.pooled.Reset(n, 3 * h);
  SegmentMeanInto(table_mlp_->Forward(s.tokens.tables), s.tokens.table_counts,
                  0, &s.pooled);
  SegmentMeanInto(join_mlp_->Forward(s.tokens.joins), s.tokens.join_counts, h,
                  &s.pooled);
  SegmentMeanInto(pred_mlp_->Forward(s.tokens.preds), s.tokens.pred_counts,
                  2 * h, &s.pooled);
  const nn::Matrix& y = head_->Forward(s.pooled);
  s.dy.Reset(n, 1);
  for (int i = 0; i < n; ++i) s.dy.At(i, 0) = loss_grad(i, y.At(i, 0));
  s.ones.assign(n, 1);
  const nn::Matrix& dpooled = head_->Backward(s.pooled, s.dy, s.ones);
  LCE_CHECK(dpooled.cols() == 3 * h);
  auto backward_set = [&](nn::Mlp* mlp, int offset, const nn::Matrix& tokens,
                          const std::vector<int>& counts) {
    // Mean pooling: every token row of query i receives dpooled_i / count.
    s.dtokens.Reset(tokens.rows(), h);
    int r = 0;
    for (int i = 0; i < n; ++i) {
      const float* src = dpooled.RowPtr(i) + offset;
      const float count = static_cast<float>(counts[i]);
      for (int t = 0; t < counts[i]; ++t, ++r) {
        float* dst = s.dtokens.RowPtr(r);
        for (int c = 0; c < h; ++c) dst[c] = src[c] / count;
      }
    }
    mlp->Backward(tokens, s.dtokens, counts, /*input_grad=*/false);
  };
  backward_set(table_mlp_.get(), 0, s.tokens.tables, s.tokens.table_counts);
  backward_set(join_mlp_.get(), h, s.tokens.joins, s.tokens.join_counts);
  backward_set(pred_mlp_.get(), 2 * h, s.tokens.preds, s.tokens.pred_counts);
}

void SetBasedEstimator::ReleaseTrainingScratch() {
  train_ = TrainScratch();
  for (nn::Mlp* m : {table_mlp_.get(), join_mlp_.get(), pred_mlp_.get(),
                     head_.get()}) {
    m->ReleaseTrainingScratch();
  }
}

void SetBasedEstimator::ForwardBatch(std::span<const query::Query> queries,
                                     float* out, FeatureStats* stats) const {
  struct Scratch {
    TokenBlocks tokens;
    nn::Matrix tm, jm, pm, pooled, y;
  };
  thread_local Scratch s;
  telemetry::StageTimer::Mark("encode");
  EncodeTokens(
      static_cast<int>(queries.size()),
      [&queries](int i) -> const query::Query& { return queries[i]; },
      &s.tokens);
  if (stats != nullptr) *stats = FlatStats(queries[0]);
  telemetry::StageTimer::Mark("forward");
  // One multi-row pass per sub-MLP over every query's tokens at once, then
  // per-query segment pooling, then one multi-row head pass.
  table_mlp_->InferInto(s.tokens.tables, &s.tm);
  join_mlp_->InferInto(s.tokens.joins, &s.jm);
  pred_mlp_->InferInto(s.tokens.preds, &s.pm);
  const int h = options_.hidden_dim;
  s.pooled.Reset(static_cast<int>(queries.size()), 3 * h);
  SegmentMeanInto(s.tm, s.tokens.table_counts, 0, &s.pooled);
  SegmentMeanInto(s.jm, s.tokens.join_counts, h, &s.pooled);
  SegmentMeanInto(s.pm, s.tokens.pred_counts, 2 * h, &s.pooled);
  head_->InferInto(s.pooled, &s.y);
  for (size_t i = 0; i < queries.size(); ++i) {
    out[i] = s.y.At(static_cast<int>(i), 0);
  }
}

std::vector<nn::Param*> SetBasedEstimator::Params() {
  std::vector<nn::Param*> params;
  for (nn::Mlp* m : {table_mlp_.get(), join_mlp_.get(), pred_mlp_.get(),
                     head_.get()}) {
    for (nn::Param* p : m->Params()) params.push_back(p);
  }
  return params;
}

size_t SetBasedEstimator::NumParams() const {
  size_t n = 0;
  for (const nn::Mlp* m : {table_mlp_.get(), join_mlp_.get(), pred_mlp_.get(),
                           head_.get()}) {
    if (m != nullptr) n += m->NumParams();
  }
  return n;
}

}  // namespace ce
}  // namespace lce
