// Estimation-as-a-service: a long-running, in-process front end over the
// estimator zoo.
//
// The service accepts SQL strings (parsed and validated by query::ParseSql,
// which is hardened against hostile input), routes them to a named model
// from the ModelRegistry, and answers with the estimate plus the serving
// context (model version, batch size, queue wait). Each batched model gets
// its own MicroBatcher, so concurrent clients of the same model are
// coalesced into one vectorized EstimateBatch() flush while different
// models never wait on each other.
//
// Which models batch. Estimators that declare ThreadSafeEstimate() (LW-XGB,
// the histograms, sampling, KDE) answer on the caller's thread: their
// inference is a pure read of the fitted model, so there is nothing to
// serialize and nothing for batching to amortize. The rest (the NN
// families) go through their model's MicroBatcher: a forward pass streams
// every layer's weights, so a coalesced batch pays that stream once, and it
// reuses activation caches, so a per-model exec mutex serializes it. The
// route is chosen per request from the resolved registry entry, so a hot
// swap between a thread-safe and a batched build stays correct. A batched
// flush resolves the model version once, so a Register() swap lands
// between batches, never inside one.

#ifndef LCE_SERVE_SERVICE_H_
#define LCE_SERVE_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/ce/estimator.h"
#include "src/ce/explain.h"
#include "src/query/parser.h"
#include "src/serve/batcher.h"
#include "src/serve/model_registry.h"
#include "src/storage/database.h"
#include "src/util/status.h"

namespace lce {
namespace telemetry {
class Counter;
}  // namespace telemetry

namespace serve {

/// One answered request.
struct EstimateResponse {
  /// Always finite and at least 1: the service repairs a model's NaN or
  /// sub-1 answer to 1 and +inf to the largest finite double, counting each
  /// repair in serve.<model>.invalid_estimates.
  double estimate = 0;
  std::string model;
  uint64_t model_version = 0;
  int batch_size = 1;        // size of the flush that answered this request
  double queue_wait_us = 0;  // time spent coalescing before the flush
};

/// EstimateResponse plus the structured "why" (per-predicate selectivities,
/// fallbacks, model counters). Explain requests bypass the batcher: they
/// run EstimateWithDiagnostics on the caller's thread, under the model's
/// exec mutex unless the estimator is ThreadSafeEstimate().
struct ExplainResponse {
  EstimateResponse response;
  ce::ExplainRecord record;
};

class EstimationService {
 public:
  /// `db` provides the schema for SQL parsing and must outlive the service.
  /// Batching knobs default to the LCE_SERVE_* environment.
  explicit EstimationService(const storage::Database* db)
      : EstimationService(db, BatcherOptions::FromEnv()) {}
  EstimationService(const storage::Database* db, const BatcherOptions& options);

  /// Publishes `estimator` (already built) as model `name`; re-registering
  /// swaps the model atomically: a request or flush runs entirely on the
  /// build it resolved. Returns the new version.
  uint64_t RegisterModel(const std::string& name,
                         std::shared_ptr<ce::Estimator> estimator);

  /// Sorted (name, version) pairs of every registered model.
  std::vector<std::pair<std::string, uint64_t>> ListModels() const;

  /// Parses `sql` against the service database and estimates it with
  /// `model`. Malformed SQL and unknown models return a Status — never a
  /// crash — making this safe as the untrusted-input entry point. Thread-safe
  /// models answer inline (batch_size 1, queue_wait_us 0); the others block
  /// until the micro-batcher flushes the request.
  Result<EstimateResponse> EstimateSql(const std::string& model,
                                       const std::string& sql);

  /// EstimateSql for an already-validated query (no parse step).
  Result<EstimateResponse> Estimate(const std::string& model,
                                    const query::Query& q);

  /// Estimate plus diagnostics. Bit-identical to Estimate() on the same
  /// model state but unbatched, so reserve it for debugging traffic.
  Result<ExplainResponse> ExplainSql(const std::string& model,
                                     const std::string& sql);

 private:
  // Per-model runtime state. Stable address once created (unique_ptr in the
  // map); the batcher's exec callback captures the slot pointer.
  struct ModelState {
    std::string name;
    telemetry::Counter* requests = nullptr;  // serve.<name>.requests
    telemetry::Counter* explains = nullptr;  // serve.<name>.explains
    // serve.<name>.invalid_estimates: answers repaired to finite and >= 1
    telemetry::Counter* invalid_estimates = nullptr;
    std::mutex exec_mu;  // serializes estimators not ThreadSafeEstimate()
    std::unique_ptr<MicroBatcher> batcher;
  };

  /// The current build of `model` (into `entry`) and its runtime state, or
  /// nullptr when no build is published. The entry resolves first:
  /// RegisterModel creates the state before publishing, so a published
  /// entry always has one, and a registration still in flight is NotFound.
  ModelState* Resolve(const std::string& model,
                      std::shared_ptr<const ModelEntry>* entry) const;

  const storage::Database* const db_;
  const BatcherOptions options_;
  ModelRegistry registry_;
  mutable std::mutex mu_;  // guards the state map shape
  std::map<std::string, std::unique_ptr<ModelState>> states_;
};

}  // namespace serve
}  // namespace lce

#endif  // LCE_SERVE_SERVICE_H_
