#include "src/ce/query_driven/set_models.h"

#include <algorithm>

#include "src/util/logging.h"
#include "src/util/telemetry/stage_timer.h"

namespace lce {
namespace ce {

namespace {

// Mean-pools each `counts[i]`-row segment of `m` into row i of `out`
// starting at `col_offset`, replicating nn::ColMean exactly: ascending-row
// accumulation into the zeroed output row, then one multiply by 1/rows — so
// each pooled row is bit-identical to ColMean over that query's tokens.
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

void SetBasedEstimator::EncodeTokens(std::span<const query::Query> queries,
                                     TokenBlocks* out) const {
  const int n = static_cast<int>(queries.size());
  out->table_counts.resize(n);
  out->join_counts.resize(n);
  out->pred_counts.resize(n);
  int tables = 0, joins = 0, preds = 0;
  for (int i = 0; i < n; ++i) {
    const query::MscnCounts c = encoder().MscnTokenCounts(queries[i]);
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
        queries[i], {out->tables.RowPtr(t), out->tables.ld(),
                     out->joins.RowPtr(j), out->joins.ld(),
                     out->preds.RowPtr(p), out->preds.ld(),
                     use_sample_bitmap_});
    t += out->table_counts[i];
    j += out->join_counts[i];
    p += out->pred_counts[i];
  }
}

float SetBasedEstimator::ForwardOne(const query::Query& q) {
  TokenBlocks tokens;
  EncodeTokens({&q, 1}, &tokens);
  table_rows_ = tokens.tables.rows();
  join_rows_ = tokens.joins.rows();
  pred_rows_ = tokens.preds.rows();
  nn::Matrix pt = nn::ColMean(table_mlp_->Forward(tokens.tables));
  nn::Matrix pj = nn::ColMean(join_mlp_->Forward(tokens.joins));
  nn::Matrix pp = nn::ColMean(pred_mlp_->Forward(tokens.preds));
  nn::Matrix concat = nn::ConcatCols({&pt, &pj, &pp});
  return head_->Forward(concat).Scalar();
}

void SetBasedEstimator::ForwardBatch(std::span<const query::Query> queries,
                                     float* out, FeatureStats* stats) const {
  struct Scratch {
    TokenBlocks tokens;
    nn::Matrix tm, jm, pm, pooled, y;
  };
  thread_local Scratch s;
  telemetry::StageTimer::Mark("encode");
  EncodeTokens(queries, &s.tokens);
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

void SetBasedEstimator::BackwardOne(float dpred) {
  nn::Matrix g(1, 1);
  g.At(0, 0) = dpred;
  nn::Matrix dconcat = head_->Backward(g);
  int h = options_.hidden_dim;
  LCE_CHECK(dconcat.cols() == 3 * h);
  auto backward_set = [&](nn::Mlp* mlp, int offset, int rows) {
    // Mean pooling: every token row receives dpooled / rows.
    nn::Matrix dtokens(rows, h);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < h; ++c) {
        dtokens.At(r, c) = dconcat.At(0, offset + c) / static_cast<float>(rows);
      }
    }
    mlp->Backward(dtokens);
  };
  backward_set(table_mlp_.get(), 0, table_rows_);
  backward_set(join_mlp_.get(), h, join_rows_);
  backward_set(pred_mlp_.get(), 2 * h, pred_rows_);
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
