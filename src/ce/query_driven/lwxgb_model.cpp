#include "src/ce/query_driven/lwxgb_model.h"

#include <algorithm>

#include "src/util/logging.h"
#include "src/util/telemetry/stage_timer.h"
#include "src/util/telemetry/telemetry.h"

namespace lce {
namespace ce {

Status LwXgbEstimator::Build(
    const storage::Database& db,
    const std::vector<query::LabeledQuery>& training) {
  if (training.empty()) {
    return Status::InvalidArgument("LW-XGB needs training queries");
  }
  encoder_ = std::make_unique<query::QueryEncoder>(
      &db, query::QueryEncoder::Options{}, options_.seed);
  std::vector<std::vector<float>> rows;
  std::vector<float> targets;
  rows.reserve(training.size());
  targets.reserve(training.size());
  {
    telemetry::ScopedPhase phase("lwxgb/encode");
    for (const auto& lq : training) {
      rows.push_back(encoder_->FlatEncode(lq.q, options_.flat_variant));
      targets.push_back(encoder_->NormalizeLog(lq.cardinality));
    }
  }
  telemetry::ScopedPhase phase("lwxgb/fit");
  model_ = std::make_unique<gbdt::GradientBoosting>(options_.gbdt);
  model_->Fit(rows, targets);
  train_examples_ = static_cast<int64_t>(training.size());
  return Status::OK();
}

namespace {

// This thread's encoding buffer, resized to `floats` and kept: every request
// is answered from rows that FlatEncodeInto fills in place (it writes every
// float), so a warm request allocates no encoding.
std::vector<float>& EncodeScratch(size_t floats) {
  thread_local std::vector<float> scratch;
  scratch.resize(floats);
  return scratch;
}

}  // namespace

const std::vector<float>& LwXgbEstimator::EncodeRow(
    const query::Query& q) const {
  std::vector<float>& row =
      EncodeScratch(encoder_->flat_dim_for(options_.flat_variant));
  encoder_->FlatEncodeInto(q, options_.flat_variant, row.data());
  return row;
}

double LwXgbEstimator::EstimateCardinality(const query::Query& q) {
  LCE_CHECK_MSG(model_ != nullptr, "Build() before EstimateCardinality()");
  telemetry::StageTimer stages([this] { return Name(); });
  stages.Stage("encode");
  const std::vector<float>& row = EncodeRow(q);
  stages.Stage("traverse");
  float y = model_->Predict(row);
  stages.Stage("postprocess");
  return encoder_->DenormalizeLog(std::clamp(y, 0.0f, 1.0f));
}

std::vector<double> LwXgbEstimator::EstimateBatch(
    const std::vector<query::Query>& queries) {
  LCE_CHECK_MSG(model_ != nullptr, "Build() before EstimateBatch()");
  // Batched stages: histograms record per-query microseconds weighted by
  // the batch size, so batch and per-query paths share one scale.
  telemetry::StageTimer stages([this] { return Name(); },
                               static_cast<uint64_t>(queries.size()));
  stages.Stage("encode");
  const size_t n = queries.size();
  const size_t dim = encoder_->flat_dim_for(options_.flat_variant);
  std::vector<float>& rows = EncodeScratch(n * dim);
  for (size_t i = 0; i < n; ++i) {
    encoder_->FlatEncodeInto(queries[i], options_.flat_variant,
                             rows.data() + i * dim);
  }
  stages.Stage("traverse");
  thread_local std::vector<float> preds;
  preds.resize(n);
  model_->PredictPackedInto(rows.data(), static_cast<int64_t>(n),
                            preds.data());
  stages.Stage("postprocess");
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = encoder_->DenormalizeLog(std::clamp(preds[i], 0.0f, 1.0f));
  }
  return out;
}

double LwXgbEstimator::EstimateWithDiagnostics(const query::Query& q,
                                               ExplainRecord* rec) {
  LCE_CHECK_MSG(model_ != nullptr, "Build() before EstimateCardinality()");
  rec->estimator = Name();
  FillQueryShape(q, rec);
  for (const query::Predicate& p : q.predicates) {
    // Tree ensembles estimate jointly; no per-predicate attribution.
    rec->predicates.push_back({p.col.table, p.col.column, p.lo, p.hi, -1.0,
                               "gbdt"});
  }
  telemetry::StageTimer stages([this] { return Name(); });
  stages.Stage("encode");
  const std::vector<float>& row = EncodeRow(q);
  stages.Stage("traverse");
  gbdt::GradientBoosting::PredictStats stats;
  float y = model_->PredictWithStats(row, &stats);
  stages.Stage("postprocess");
  float clamped = std::clamp(y, 0.0f, 1.0f);
  double est = encoder_->DenormalizeLog(clamped);
  rec->AddCounter("pred_normalized", static_cast<double>(y));
  rec->AddCounter("trees", static_cast<double>(stats.trees));
  rec->AddCounter("nodes_visited", static_cast<double>(stats.nodes_visited));
  rec->AddCounter("mean_path_depth", stats.mean_path_depth);
  rec->AddCounter("max_path_depth", static_cast<double>(stats.max_path_depth));
  if (y != clamped) {
    rec->AddFallback("gbdt.output_clamped",
                     "ensemble output " + std::to_string(y) +
                         " clamped to [0,1] before denormalization");
  }
  rec->estimate = est;
  return est;
}

Status LwXgbEstimator::UpdateWithQueries(
    const std::vector<query::LabeledQuery>& queries) {
  if (model_ == nullptr) return Status::FailedPrecondition("Build() first");
  if (queries.empty()) return Status::OK();
  std::vector<std::vector<float>> rows;
  std::vector<float> targets;
  for (const auto& lq : queries) {
    rows.push_back(encoder_->FlatEncode(lq.q, options_.flat_variant));
    targets.push_back(encoder_->NormalizeLog(lq.cardinality));
  }
  model_->Boost(rows, targets, options_.update_trees);
  return Status::OK();
}

uint64_t LwXgbEstimator::SizeBytes() const {
  return model_ ? model_->SizeBytes() : 0;
}

void LwXgbEstimator::DescribeModel(telemetry::ModelCard* card) const {
  card->model = Name();
  card->family = "gbdt";
  card->footprint_bytes = static_cast<int64_t>(FootprintBytes());
  card->train_examples = train_examples_;
  if (model_ != nullptr) {
    card->parameter_count = static_cast<int64_t>(model_->NumNodes());
    card->epochs = static_cast<int64_t>(model_->num_trees());
    card->extra.emplace_back("trees",
                             static_cast<double>(model_->num_trees()));
  }
}

}  // namespace ce
}  // namespace lce
