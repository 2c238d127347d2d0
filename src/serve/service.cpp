#include "src/serve/service.h"

#include <limits>

#include "src/util/logging.h"
#include "src/util/telemetry/telemetry.h"

namespace lce {
namespace serve {

namespace {

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
    : db_(db), options_(options) {
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
  return registry_.Register(name, std::move(estimator));
}

std::vector<std::pair<std::string, uint64_t>> EstimationService::ListModels()
    const {
  return registry_.List();
}

EstimationService::ModelState* EstimationService::Resolve(
    const std::string& model, std::shared_ptr<const ModelEntry>* entry) const {
  *entry = registry_.Get(model);
  if (*entry == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = states_.find(model);
  LCE_CHECK(it != states_.end());  // created before the entry was published
  return it->second.get();
}

Result<EstimateResponse> EstimationService::EstimateSql(
    const std::string& model, const std::string& sql) {
  Result<query::Query> parsed = query::ParseSql(sql, *db_);
  if (!parsed.ok()) return parsed.status();
  return Estimate(model, parsed.value());
}

Result<EstimateResponse> EstimationService::Estimate(const std::string& model,
                                                     const query::Query& q) {
  std::shared_ptr<const ModelEntry> entry;
  ModelState* state = Resolve(model, &entry);
  if (state == nullptr) {
    return Status::NotFound("no model registered as '" + model + "'");
  }
  EstimateResponse resp;
  if (entry->estimator->ThreadSafeEstimate()) {
    resp.estimate = entry->estimator->EstimateCardinality(q);
    resp.model_version = entry->version;
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
  std::shared_ptr<const ModelEntry> entry;
  ModelState* state = Resolve(model, &entry);
  if (state == nullptr) {
    return Status::NotFound("no model registered as '" + model + "'");
  }
  ExplainResponse out;
  {
    std::unique_lock<std::mutex> exec_lock(state->exec_mu, std::defer_lock);
    if (!entry->estimator->ThreadSafeEstimate()) exec_lock.lock();
    out.response.estimate =
        entry->estimator->EstimateWithDiagnostics(parsed.value(), &out.record);
  }
  out.response.estimate =
      GuardEstimate(out.response.estimate, state->invalid_estimates);
  out.record.estimate = out.response.estimate;
  state->explains->Increment();
  out.response.model = model;
  out.response.model_version = entry->version;
  out.response.batch_size = 1;
  return out;
}

}  // namespace serve
}  // namespace lce
