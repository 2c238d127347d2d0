#include "src/serve/model_registry.h"

#include "src/util/logging.h"

namespace lce {
namespace serve {

uint64_t ModelRegistry::Register(const std::string& name,
                                 std::shared_ptr<ce::Estimator> estimator) {
  LCE_CHECK_MSG(estimator != nullptr, "Register(" << name << "): null model");
  auto next = std::make_shared<ModelEntry>();
  next->name = name;
  next->estimator = std::move(estimator);
  std::shared_ptr<const ModelEntry> prev;  // released after the unlock
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const ModelEntry>& slot = entries_[name];
  next->version = slot == nullptr ? 1 : slot->version + 1;
  const uint64_t version = next->version;
  prev = std::exchange(slot, std::move(next));
  return version;
}

std::shared_ptr<const ModelEntry> ModelRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

std::vector<std::pair<std::string, uint64_t>> ModelRegistry::List() const {
  std::vector<std::pair<std::string, uint64_t>> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    out.emplace_back(name, entry->version);
  }
  return out;
}

}  // namespace serve
}  // namespace lce
