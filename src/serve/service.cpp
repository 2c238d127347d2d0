#include "src/serve/service.h"

#include <limits>
#include <unordered_map>

#include "src/util/logging.h"
#include "src/util/telemetry/telemetry.h"

namespace lce {
namespace serve {

namespace {

// Thread-safe models answer on the caller's thread, except weight-stream
// bound ones (the NN families) with more than this many bytes of
// parameters, which go through the micro-batcher. Below the limit, inline
// NN serving measured 5-22x the batched throughput at 4 and 16 clients
// (DESIGN.md section 13). Wider NN models can still gain from inline
// serving on a host whose L3 holds their weights, but the limit keeps the
// serve sweep's 1024-wide FCN and MSCN (12-28 MB) batched, so the serve
// gate's batched-versus-unbatched comparison still measures batching.
// LW-XGB is not weight-stream bound: inline answered 4.5-7x the batched
// throughput for forests of 1.7 and 3.4 MiB too, so it stays inline at any
// size.
constexpr uint64_t kInlineMaxBytes = uint64_t{1} << 20;

bool AnswersInline(const ce::Estimator& estimator) {
  return estimator.ThreadSafeEstimate() &&
         (!estimator.WeightStreamBound() ||
          estimator.SizeBytes() <= kInlineMaxBytes);
}

uint64_t NextServiceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// The service's answer contract: a finite estimate of at least 1. NaN and
// values below 1 become 1, +inf the largest finite double; each repair is
// counted in `invalid`.
double GuardEstimate(double estimate, telemetry::Counter* invalid) {
  constexpr double kMax = std::numeric_limits<double>::max();
  if (estimate >= 1.0 && estimate <= kMax) return estimate;
  invalid->Increment();
  return estimate > kMax ? kMax : 1.0;
}

}  // namespace

EstimationService::EstimationService(const storage::Database* db,
                                     const BatcherOptions& options)
    : db_(db), options_(options), id_(NextServiceId()) {
  LCE_CHECK(db_ != nullptr);
}

uint64_t EstimationService::RegisterModel(
    const std::string& name, std::shared_ptr<ce::Estimator> estimator) {
  // Create the runtime slot before publishing the model, so a request that
  // sees the registry entry always finds its state (see Resolve).
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<ModelState>& state = states_[name];
    if (state == nullptr) {
      state = std::make_unique<ModelState>();
      state->name = name;
      auto& metrics = telemetry::MetricsRegistry::Global();
      state->requests = &metrics.counter("serve." + name + ".requests");
      state->explains = &metrics.counter("serve." + name + ".explains");
      state->invalid_estimates =
          &metrics.counter("serve." + name + ".invalid_estimates");
      ModelState* raw = state.get();
      state->batcher = std::make_unique<MicroBatcher>(
          options_, [this, raw](const std::vector<query::Query>& queries,
                                std::vector<double>* estimates,
                                uint64_t* version) {
            // One registry resolve per flush: every request in the batch is
            // answered by the same model build.
            std::shared_ptr<const ModelEntry> entry =
                registry_.Get(raw->name);
            LCE_CHECK_MSG(entry != nullptr,
                          "flush for unregistered model " << raw->name);
            *version = entry->version;
            std::lock_guard<std::mutex> exec_lock(raw->exec_mu);
            *estimates = entry->estimator->EstimateBatch(queries);
          });
    }
  }
  const uint64_t version = registry_.Register(name, std::move(estimator));
  generation_.fetch_add(1, std::memory_order_release);
  return version;
}

std::vector<std::pair<std::string, uint64_t>> EstimationService::ListModels()
    const {
  return registry_.List();
}

const EstimationService::Route* EstimationService::Resolve(
    const std::string& model) const {
  // One cache per thread, for the service it last served. Keyed by id_, not
  // `this`: a new service at a dead one's address must not see its routes.
  struct RouteCache {
    uint64_t service_id = 0;
    uint64_t generation = 0;
    std::unordered_map<std::string, Route> routes;
  };
  thread_local RouteCache cache;
  // The generation is read before the registry: a route cached under it is
  // at least as new as every publish that generation counts.
  const uint64_t generation = generation_.load(std::memory_order_acquire);
  if (cache.service_id != id_ || cache.generation != generation) {
    cache.routes.clear();
    cache.service_id = id_;
    cache.generation = generation;
  }
  auto hit = cache.routes.find(model);
  if (hit != cache.routes.end()) return &hit->second;
  Route route;
  route.entry = registry_.Get(model);
  if (route.entry == nullptr) return nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = states_.find(model);
    LCE_CHECK(it != states_.end());  // created before the entry was published
    route.state = it->second.get();
  }
  route.answer_inline = AnswersInline(*route.entry->estimator);
  return &cache.routes.emplace(model, std::move(route)).first->second;
}

Result<EstimateResponse> EstimationService::EstimateSql(
    const std::string& model, const std::string& sql) {
  Result<query::Query> parsed = query::ParseSql(sql, *db_);
  if (!parsed.ok()) return parsed.status();
  return Estimate(model, parsed.value());
}

Result<EstimateResponse> EstimationService::Estimate(const std::string& model,
                                                     const query::Query& q) {
  const Route* route = Resolve(model);
  if (route == nullptr) {
    return Status::NotFound("no model registered as '" + model + "'");
  }
  ModelState* state = route->state;
  EstimateResponse resp;
  if (route->answer_inline) {
    resp.estimate = route->entry->estimator->EstimateCardinality(q);
    resp.model_version = route->entry->version;
  } else {
    MicroBatcher::Ticket ticket = state->batcher->Submit(q);
    resp.estimate = ticket.estimate;
    resp.model_version = ticket.model_version;
    resp.batch_size = ticket.batch_size;
    resp.queue_wait_us = ticket.queue_wait_us;
  }
  resp.estimate = GuardEstimate(resp.estimate, state->invalid_estimates);
  state->requests->Increment();
  resp.model = model;
  return resp;
}

Result<ExplainResponse> EstimationService::ExplainSql(const std::string& model,
                                                      const std::string& sql) {
  Result<query::Query> parsed = query::ParseSql(sql, *db_);
  if (!parsed.ok()) return parsed.status();
  const Route* route = Resolve(model);
  if (route == nullptr) {
    return Status::NotFound("no model registered as '" + model + "'");
  }
  ModelState* state = route->state;
  const ModelEntry& entry = *route->entry;
  ExplainResponse out;
  {
    std::unique_lock<std::mutex> exec_lock(state->exec_mu, std::defer_lock);
    if (!entry.estimator->ThreadSafeEstimate()) exec_lock.lock();
    out.response.estimate =
        entry.estimator->EstimateWithDiagnostics(parsed.value(), &out.record);
  }
  out.response.estimate =
      GuardEstimate(out.response.estimate, state->invalid_estimates);
  out.record.estimate = out.response.estimate;
  state->explains->Increment();
  out.response.model = model;
  out.response.model_version = entry.version;
  out.response.batch_size = 1;
  return out;
}

}  // namespace serve
}  // namespace lce
