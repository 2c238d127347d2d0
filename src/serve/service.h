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
// Which models batch. A model that declares ThreadSafeEstimate() (LW-XGB,
// the histograms, sampling, KDE, and the six NN families, whose inference
// is const) answers on the caller's thread: nothing to serialize and
// little to share. The exception is a WeightStreamBound() model (an NN
// family) whose parameters exceed kInlineMaxBytes (service.cpp), such as a
// 1024-wide FCN or MSCN: its forward pass is bound by streaming the layer
// weights, so it goes through its MicroBatcher, where a coalesced batch
// pays that stream once; the per-model exec mutex serializes its flushes
// (single requests too, with batching off). Models that are not
// thread-safe take the same route.
// The route is decided per resolved build, so a hot swap between an inline
// and a batched build stays correct. A batched flush resolves the model
// version once, so a Register() swap lands between batches, never inside
// one.
//
// Lookup. RegisterModel publishes the build in the registry and then bumps
// an atomic generation. Each request thread caches a Route (the registry
// entry, its state, the route choice) per name it has used, keyed by the
// service's unique id and the generation it saw, so a steady-state request
// takes no lock; a swap changes the generation, and the thread's next
// request drops its cache and resolves again through the registry. A cache
// keeps the builds it holds alive until its thread's next request, to any
// service, or the thread's exit.

#ifndef LCE_SERVE_SERVICE_H_
#define LCE_SERVE_SERVICE_H_

#include <atomic>
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
  /// crash — making this safe as the untrusted-input entry point. Inline
  /// models (see the header comment) answer with batch_size 1 and
  /// queue_wait_us 0; the others block until the micro-batcher flushes the
  /// request.
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
    // Serializes batched flushes, and explains of models that are not
    // ThreadSafeEstimate().
    std::mutex exec_mu;
    std::unique_ptr<MicroBatcher> batcher;
  };

  /// Everything a request needs about one resolved build.
  struct Route {
    std::shared_ptr<const ModelEntry> entry;
    ModelState* state = nullptr;
    bool answer_inline = false;  // caller's thread, not the batcher
  };

  /// The current route of `model`, or nullptr when no build is published.
  /// The pointer lives in this thread's route cache and stays valid until
  /// the thread's next Resolve.
  const Route* Resolve(const std::string& model) const;

  const storage::Database* const db_;
  const BatcherOptions options_;
  const uint64_t id_;  // unique per instance, never reused; keys route caches
  ModelRegistry registry_;
  std::atomic<uint64_t> generation_{0};  // bumped after each publish
  mutable std::mutex mu_;  // guards states_
  std::map<std::string, std::unique_ptr<ModelState>> states_;
};

}  // namespace serve
}  // namespace lce

#endif  // LCE_SERVE_SERVICE_H_
