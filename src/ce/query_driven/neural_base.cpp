#include "src/ce/query_driven/neural_base.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "src/nn/serialize.h"
#include "src/util/logging.h"
#include "src/util/telemetry/stage_timer.h"
#include "src/util/telemetry/telemetry.h"
#include "src/util/telemetry/trace.h"
#include "src/util/telemetry/train_log.h"

namespace lce {
namespace ce {

namespace {

// Per-epoch loss telemetry: the loss lands in a histogram (bench manifests
// report its trajectory via quantiles), the freshest value in a gauge, and —
// when tracing — on the epoch's span so the loss curve is readable straight
// off the timeline.
void RecordEpochTelemetry(int epoch, double loss, telemetry::TraceSpan* span) {
  static telemetry::Counter& epochs =
      telemetry::MetricsRegistry::Global().counter("nn.epochs");
  static telemetry::Histogram& loss_hist =
      telemetry::MetricsRegistry::Global().histogram("nn.epoch_loss");
  static telemetry::Gauge& last_loss =
      telemetry::MetricsRegistry::Global().gauge("nn.last_epoch_loss");
  epochs.Increment();
  loss_hist.Observe(loss);
  last_loss.Set(loss);
  span->AddArg("epoch", static_cast<double>(epoch));
  span->AddArg("loss", loss);
}

}  // namespace

Status NeuralQueryDrivenEstimator::Prepare(const storage::Database& db) {
  rng_ = Rng(options_.seed);
  query::QueryEncoder::Options enc_opts;
  enc_opts.mscn_sample_size = options_.mscn_sample_size;
  encoder_ = std::make_unique<query::QueryEncoder>(&db, enc_opts,
                                                   options_.seed ^ 0x5eedULL);
  InitModel(&rng_);
  params_ = Params();
  adam_ = std::make_unique<nn::Adam>(options_.learning_rate);
  return Status::OK();
}

Status NeuralQueryDrivenEstimator::SaveModel(std::ostream* os) {
  if (encoder_ == nullptr) {
    return Status::FailedPrecondition("no model to save: Build() first");
  }
  nn::SaveParams(Params(), os);
  if (!*os) return Status::Internal("model write failed");
  return Status::OK();
}

Status NeuralQueryDrivenEstimator::LoadModel(std::istream* is) {
  if (encoder_ == nullptr) {
    return Status::FailedPrecondition("Prepare() or Build() before LoadModel");
  }
  Status s = nn::LoadParams(Params(), is);
  if (!s.ok()) return s;
  built_ = true;
  return Status::OK();
}

Status NeuralQueryDrivenEstimator::Build(
    const storage::Database& db,
    const std::vector<query::LabeledQuery>& training) {
  if (training.empty()) {
    return Status::InvalidArgument(Name() + " needs training queries");
  }
  Status prepared = Prepare(db);
  if (!prepared.ok()) return prepared;
  epoch_losses_.clear();
  Train(training, options_.epochs, /*update=*/false);
  train_examples_ = static_cast<int64_t>(training.size());
  built_ = true;
  return Status::OK();
}

void NeuralQueryDrivenEstimator::Train(
    const std::vector<query::LabeledQuery>& queries, int epochs,
    bool update) {
  std::vector<int> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  const char* phase_name = update ? "nn/update_epoch" : "nn/epoch";
  const bool train_log = telemetry::TrainLogEnabled();
  for (int epoch = 0; epoch < epochs; ++epoch) {
    telemetry::ScopedPhase phase(phase_name);
    telemetry::TraceSpan span(phase_name);
    int64_t epoch_start = train_log ? telemetry::MonotonicNanos() : 0;
    last_epoch_loss_ = RunEpoch(queries, &order, &rng_);
    epoch_losses_.push_back(last_epoch_loss_);
    RecordEpochTelemetry(epoch, last_epoch_loss_, &span);
    if (train_log) {
      telemetry::TrainingEvent ev;
      ev.model = Name();
      ev.family = "nn";
      ev.event = "epoch";
      ev.index = epoch;
      ev.loss = last_epoch_loss_;
      ev.grad_norm = last_grad_norm_;
      ev.learning_rate = options_.learning_rate;
      ev.examples = static_cast<int64_t>(queries.size());
      ev.wall_seconds =
          static_cast<double>(telemetry::MonotonicNanos() - epoch_start) / 1e9;
      if (update) ev.extra.emplace_back("update", 1.0);
      telemetry::RecordTrainingEvent(std::move(ev));
    }
  }
  std::vector<const query::Query*>().swap(batch_);
  std::vector<float>().swap(targets_);
  ReleaseTrainingScratch();
}

double NeuralQueryDrivenEstimator::RunEpoch(
    const std::vector<query::LabeledQuery>& queries, std::vector<int>* order,
    Rng* rng) {
  rng->Shuffle(order);
  double epoch_loss = 0;
  size_t n = order->size();
  size_t batches = 0;
  for (size_t start = 0; start < n; start += options_.batch_size) {
    size_t end = std::min(n, start + options_.batch_size);
    int b = static_cast<int>(end - start);
    batch_.clear();
    targets_.clear();
    for (size_t i = start; i < end; ++i) {
      const query::LabeledQuery& lq = queries[(*order)[i]];
      batch_.push_back(&lq.q);
      targets_.push_back(encoder_->NormalizeLog(lq.cardinality));
    }
    // The family predicts the whole minibatch, then asks for the loss
    // gradients in sample order, so the loss sums in that order.
    double batch_loss = 0;
    TrainStep(batch_, [this, &batch_loss](int i, float pred) {
      const float b = static_cast<float>(batch_.size());
      float diff = pred - targets_[i];
      switch (options_.loss) {
        case nn::LossKind::kMse:
          batch_loss += static_cast<double>(diff) * diff;
          return 2.0f * diff / b;
        case nn::LossKind::kLogQ:
        default:
          batch_loss += std::abs(static_cast<double>(diff));
          return (diff > 0 ? 1.0f : (diff < 0 ? -1.0f : 0.0f)) / b;
      }
    });
    // Gradient norm is read *before* Adam consumes (and zeroes) the grads;
    // only when the training log wants it — outputs stay bit-identical with
    // the gate off since nothing else observes the value.
    if (telemetry::TrainLogEnabled()) {
      double sq_sum = 0;
      for (nn::Param* p : params_) {
        for (int r = 0; r < p->grad.rows(); ++r) {
          const float* row = p->grad.RowPtr(r);
          for (int c = 0; c < p->grad.cols(); ++c) {
            sq_sum += static_cast<double>(row[c]) * row[c];
          }
        }
      }
      last_grad_norm_ = std::sqrt(sq_sum);
    }
    adam_->Step(params_);
    epoch_loss += batch_loss / b;
    ++batches;
  }
  return batches > 0 ? epoch_loss / static_cast<double>(batches) : 0.0;
}

double NeuralQueryDrivenEstimator::EstimateCardinality(const query::Query& q) {
  LCE_CHECK_MSG(built_, Name() << ": Build() before EstimateCardinality()");
  // Stage decomposition: ForwardBatch marks encode/forward; the denormalize
  // tail is postprocess.
  telemetry::StageTimer stages([this] { return Name(); });
  float y;
  ForwardBatch({&q, 1}, &y, nullptr);
  telemetry::StageTimer::Mark("postprocess");
  return encoder_->DenormalizeLog(std::clamp(y, 0.0f, 1.0f));
}

std::vector<double> NeuralQueryDrivenEstimator::EstimateBatch(
    const std::vector<query::Query>& queries) {
  LCE_CHECK_MSG(built_, Name() << ": Build() before EstimateBatch()");
  std::vector<double> out(queries.size());
  if (queries.empty()) return out;
  // Batched stages: histograms record per-query microseconds weighted by the
  // batch size, so batch and per-query paths share one scale.
  telemetry::StageTimer stages([this] { return Name(); },
                               static_cast<uint64_t>(queries.size()));
  std::vector<float> preds(queries.size());
  ForwardBatch(queries, preds.data(), nullptr);
  telemetry::StageTimer::Mark("postprocess");
  for (size_t i = 0; i < preds.size(); ++i) {
    out[i] = encoder_->DenormalizeLog(std::clamp(preds[i], 0.0f, 1.0f));
  }
  return out;
}

double NeuralQueryDrivenEstimator::EstimateWithDiagnostics(
    const query::Query& q, ExplainRecord* rec) {
  LCE_CHECK_MSG(built_, Name() << ": Build() before EstimateCardinality()");
  rec->estimator = Name();
  FillQueryShape(q, rec);
  for (const query::Predicate& p : q.predicates) {
    // Learned models estimate jointly; no per-predicate attribution.
    rec->predicates.push_back({p.col.table, p.col.column, p.lo, p.hi, -1.0,
                               "learned"});
  }
  double est;
  float y, clamped;
  FeatureStats stats;
  {
    telemetry::StageTimer stages([this] { return Name(); });
    ForwardBatch({&q, 1}, &y, &stats);
    telemetry::StageTimer::Mark("postprocess");
    clamped = std::clamp(y, 0.0f, 1.0f);
    est = encoder_->DenormalizeLog(clamped);
  }

  rec->AddCounter("pred_normalized", static_cast<double>(y));
  rec->AddCounter("feat_dim", stats.dim);
  rec->AddCounter("feat_nonzeros", stats.nonzeros);
  rec->AddCounter("feat_l2", stats.l2);
  if (y != clamped) {
    rec->AddFallback("nn.output_clamped",
                     "sigmoid output " + std::to_string(y) +
                         " clamped to [0,1] before denormalization");
  }
  rec->estimate = est;
  return est;
}

NeuralQueryDrivenEstimator::FeatureStats NeuralQueryDrivenEstimator::StatsOf(
    const float* feat, int n) {
  double l2 = 0;
  int nonzeros = 0;
  for (int i = 0; i < n; ++i) {
    l2 += static_cast<double>(feat[i]) * feat[i];
    if (feat[i] != 0.0f) ++nonzeros;
  }
  return {static_cast<double>(n), static_cast<double>(nonzeros),
          std::sqrt(l2)};
}

NeuralQueryDrivenEstimator::FeatureStats NeuralQueryDrivenEstimator::FlatStats(
    const query::Query& q) const {
  // FlatEncodeInto writes every float, so the reused row needs no reset.
  thread_local std::vector<float> feat;
  feat.resize(encoder_->flat_dim_for(options_.flat_variant));
  encoder_->FlatEncodeInto(q, options_.flat_variant, feat.data());
  return StatsOf(feat.data(), static_cast<int>(feat.size()));
}

Status NeuralQueryDrivenEstimator::UpdateWithQueries(
    const std::vector<query::LabeledQuery>& queries) {
  if (!built_) return Status::FailedPrecondition("Build() before update");
  if (queries.empty()) return Status::OK();
  Train(queries, options_.update_epochs, /*update=*/true);
  return Status::OK();
}

uint64_t NeuralQueryDrivenEstimator::SizeBytes() const {
  return NumParams() * sizeof(float);
}

void NeuralQueryDrivenEstimator::DescribeModel(
    telemetry::ModelCard* card) const {
  card->model = Name();
  card->family = "nn";
  card->parameter_count = static_cast<int64_t>(NumParams());
  card->footprint_bytes = static_cast<int64_t>(FootprintBytes());
  card->train_examples = train_examples_;
  card->epochs = static_cast<int64_t>(epoch_losses_.size());
  if (!epoch_losses_.empty()) card->final_train_loss = last_epoch_loss_;
}

}  // namespace ce
}  // namespace lce
