// The uniform cardinality-estimator interface of the study.
//
// Every estimator — traditional, query-driven, data-driven — implements this
// API so the evaluation harness, the optimizer, and the update experiments can
// treat the whole zoo interchangeably.

#ifndef LCE_CE_ESTIMATOR_H_
#define LCE_CE_ESTIMATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ce/explain.h"
#include "src/query/query.h"
#include "src/storage/database.h"
#include "src/util/status.h"
#include "src/util/telemetry/model_card.h"

namespace lce {
namespace ce {

class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Human-readable name used in every result table ("FCN", "MSCN", ...).
  virtual std::string Name() const = 0;

  /// Builds the estimator. Query-driven estimators consume `training`
  /// (queries labeled with true cardinalities); data-driven and traditional
  /// estimators read the database and may ignore the workload.
  virtual Status Build(const storage::Database& db,
                       const std::vector<query::LabeledQuery>& training) = 0;

  /// Estimated COUNT(*) of `q`. Always >= 1 (the study's q-error convention
  /// clamps both sides at one tuple).
  virtual double EstimateCardinality(const query::Query& q) = 0;

  /// Estimates for many queries at once. Semantically a loop over
  /// EstimateCardinality() — the default is exactly that — but estimators
  /// with a vectorized inference path (e.g. LW-XGB's batched GBDT traversal)
  /// override it to amortize per-call overhead. Overrides must return
  /// bit-identical values to the per-query calls in the same order.
  virtual std::vector<double> EstimateBatch(
      const std::vector<query::Query>& queries) {
    std::vector<double> out;
    out.reserve(queries.size());
    for (const query::Query& q : queries) out.push_back(EstimateCardinality(q));
    return out;
  }

  /// True when EstimateBatch() is a genuinely vectorized override rather
  /// than the default loop. Batch-aware callers (accuracy evaluation) use
  /// this to pick the batched path over per-query parallelism.
  virtual bool HasBatchEstimate() const { return false; }

  /// EstimateCardinality() plus diagnostics: fills `rec` with the estimator
  /// name, query shape, and — where the estimator overrides this — the
  /// per-predicate selectivity breakdown, fallback events, and
  /// model-internal counters behind the number. The returned estimate is
  /// bit-identical to EstimateCardinality() on the same state: overrides
  /// share the arithmetic and only *read* already-computed values, so
  /// internal Rng streams advance exactly as in the plain call. Callers own
  /// latency/truth/q-error fields. `rec` must be non-null.
  virtual double EstimateWithDiagnostics(const query::Query& q,
                                         ExplainRecord* rec) {
    rec->estimator = Name();
    FillQueryShape(q, rec);
    double est = EstimateCardinality(q);
    rec->estimate = est;
    return est;
  }

  /// Incorporates newly observed labeled queries (incremental training).
  /// Default: unsupported (traditional/data-driven estimators).
  virtual Status UpdateWithQueries(
      const std::vector<query::LabeledQuery>& queries) {
    (void)queries;
    return Status::Unimplemented(Name() + " does not update from queries");
  }

  /// Refreshes the estimator after the underlying data changed (appends).
  /// Default: unsupported; the harness then measures the stale model.
  virtual Status UpdateWithData(const storage::Database& db) {
    (void)db;
    return Status::Unimplemented(Name() + " does not update from data");
  }

  /// True when EstimateCardinality() is safe to call concurrently from
  /// multiple threads after Build(): no per-call mutable state, no internal
  /// Rng. The evaluation harness then scores test queries in parallel;
  /// per-query estimates are unchanged, so accuracy reports stay identical
  /// at every thread count. Defaults to false (samplers draw from a shared
  /// Rng).
  virtual bool ThreadSafeEstimate() const { return false; }

  /// True when inference streams every parameter once per call (dense NN
  /// layers), so one EstimateBatch() over coalesced requests streams them
  /// once for all of them. The estimation service batches such a model
  /// once it is too wide to answer inline (serve::EstimationService).
  virtual bool WeightStreamBound() const { return false; }

  /// Approximate size of the built estimator in bytes (statistics, samples,
  /// or model parameters) — the footprint column of experiment R2.
  virtual uint64_t SizeBytes() const = 0;

  /// Memory footprint of the built model in bytes. Defaults to SizeBytes();
  /// estimators whose SizeBytes() excludes auxiliary structures (encoders,
  /// buffers) override this to account for everything the model keeps alive.
  virtual uint64_t FootprintBytes() const { return SizeBytes(); }

  /// Fills a model card describing the trained estimator: family,
  /// parameter count, footprint, training-set size, epochs, final loss.
  /// The base fills name/footprint; trainable families override to add what
  /// they track. `card` must be non-null; the bench harness supplies
  /// dataset, build time, and accuracy extras afterwards.
  virtual void DescribeModel(telemetry::ModelCard* card) const {
    card->model = Name();
    card->footprint_bytes = static_cast<int64_t>(FootprintBytes());
  }
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_ESTIMATOR_H_
