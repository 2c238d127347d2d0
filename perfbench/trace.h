// Span recording for the benchmark's traced run.
//
// Every span is recorded from the benchmark's own code, around a call into
// one of the program's public functions; nothing inside src/ is
// instrumented. Client threads own a SpanLog each (single writer, no
// locks). Estimator flushes run on whichever client thread leads the
// micro-batch, so they are recorded by TracingEstimator into one shared
// FlushLog instead. Spans stay in memory until the run ends.
//
// Attribution (Attribute): a span's self time is its duration minus the
// durations of its child spans. A serve call's (estimate / explain) self
// time additionally excludes the part of its interval covered by estimator
// flushes, which is charged to the `ce` layer. Whatever the op span itself
// keeps is `unattributed`, so per op the layer self times plus unattributed
// add up to the op's latency exactly.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/ce/estimator.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What a span wraps. Each kind maps to one layer in LayerOf().
enum class SpanKind : uint8_t {
  kOp,        // one benchmark op (root)
  kParse,     // query::ParseSql
  kRestrict,  // query::Restrict
  kEstimate,  // serve::EstimationService::Estimate
  kExplain,   // serve::EstimationService::ExplainSql
  kSwap,      // serve::EstimationService::RegisterModel
  kCardFn,    // the benchmark's opt::CardFn body (glue: restrict + estimate)
  kPlan,      // opt::Planner::BestPlan
  kExecute,   // exec::PlanExecutor::Execute
};

enum Layer : int { kQuery, kServe, kCe, kOptimizer, kExec, kUnattributed,
                   kNumLayers };

inline const char* LayerName(int layer) {
  static const char* const kNames[kNumLayers] = {
      "query", "serve", "ce", "optimizer", "exec", "unattributed"};
  return kNames[layer];
}

inline const char* SpanKindName(SpanKind k) {
  switch (k) {
    case SpanKind::kOp: return "op";
    case SpanKind::kParse: return "query.parse";
    case SpanKind::kRestrict: return "query.restrict";
    case SpanKind::kEstimate: return "serve.estimate";
    case SpanKind::kExplain: return "serve.explain";
    case SpanKind::kSwap: return "serve.swap";
    case SpanKind::kCardFn: return "optimizer.cardfn";
    case SpanKind::kPlan: return "optimizer.best_plan";
    case SpanKind::kExecute: return "exec.execute";
  }
  return "?";
}

inline int LayerOf(SpanKind k) {
  switch (k) {
    case SpanKind::kParse:
    case SpanKind::kRestrict: return kQuery;
    case SpanKind::kEstimate:
    case SpanKind::kExplain:
    case SpanKind::kSwap: return kServe;
    case SpanKind::kPlan: return kOptimizer;
    case SpanKind::kExecute: return kExec;
    case SpanKind::kOp:
    case SpanKind::kCardFn: return kUnattributed;
  }
  return kUnattributed;
}

struct Span {
  uint64_t op = 0;
  uint32_t id = 0;      // unique within its SpanLog, > 0
  uint32_t parent = 0;  // enclosing span's id in the same log, 0 = none
  int64_t t0_ns = 0;
  int64_t t1_ns = 0;
  SpanKind kind = SpanKind::kOp;
};

/// One client thread's spans, in completion order (children before their
/// parent). Single writer.
class SpanLog {
 public:
  explicit SpanLog(size_t reserve = 0) { spans_.reserve(reserve); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  friend class SpanScope;
  std::vector<Span> spans_;
  uint32_t next_id_ = 0;
  uint32_t open_ = 0;  // innermost open span id
  uint64_t op_ = 0;    // op id of the innermost open op span
};

/// Records one span into `log` for its lifetime; inert when `log` is null
/// (the untraced run), so traced and untraced runs share one code path.
class SpanScope {
 public:
  SpanScope(SpanLog* log, SpanKind kind, uint64_t op = 0) : log_(log) {
    if (log_ == nullptr) return;
    span_.kind = kind;
    if (kind == SpanKind::kOp) log_->op_ = op;
    span_.op = log_->op_;
    span_.id = ++log_->next_id_;
    span_.parent = log_->open_;
    log_->open_ = span_.id;
    span_.t0_ns = NowNs();
  }
  ~SpanScope() {
    if (log_ == nullptr) return;
    span_.t1_ns = NowNs();
    log_->open_ = span_.parent;
    log_->spans_.push_back(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  Span span_;
};

/// One estimator call as seen by TracingEstimator.
struct Flush {
  int64_t t0_ns = 0;
  int64_t t1_ns = 0;
  uint32_t rows = 0;
  bool explain = false;  // EstimateWithDiagnostics rather than a batch
};

class FlushLog {
 public:
  void Add(const Flush& f) {
    std::lock_guard<std::mutex> lock(mu_);
    flushes_.push_back(f);
  }
  /// Every flush recorded since the last Drain().
  std::vector<Flush> Drain() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(flushes_, {});
  }

 private:
  std::mutex mu_;
  std::vector<Flush> flushes_;
};

/// Forwarding ce::Estimator that times each inference call into a FlushLog.
/// Every virtual is forwarded, so the service takes the same path as with
/// the bare model (HasBatchEstimate, ThreadSafeEstimate, ... answer as the
/// wrapped model does).
class TracingEstimator final : public lce::ce::Estimator {
 public:
  TracingEstimator(std::shared_ptr<lce::ce::Estimator> inner, FlushLog* log)
      : inner_(std::move(inner)), log_(log) {}

  std::string Name() const override { return inner_->Name(); }
  lce::Status Build(
      const lce::storage::Database& db,
      const std::vector<lce::query::LabeledQuery>& training) override {
    return inner_->Build(db, training);
  }
  double EstimateCardinality(const lce::query::Query& q) override {
    const int64_t t0 = NowNs();
    const double est = inner_->EstimateCardinality(q);
    log_->Add({t0, NowNs(), 1, false});
    return est;
  }
  std::vector<double> EstimateBatch(
      const std::vector<lce::query::Query>& queries) override {
    const int64_t t0 = NowNs();
    std::vector<double> out = inner_->EstimateBatch(queries);
    log_->Add({t0, NowNs(), static_cast<uint32_t>(queries.size()), false});
    return out;
  }
  bool HasBatchEstimate() const override { return inner_->HasBatchEstimate(); }
  double EstimateWithDiagnostics(const lce::query::Query& q,
                                 lce::ce::ExplainRecord* rec) override {
    const int64_t t0 = NowNs();
    const double est = inner_->EstimateWithDiagnostics(q, rec);
    log_->Add({t0, NowNs(), 1, true});
    return est;
  }
  lce::Status UpdateWithQueries(
      const std::vector<lce::query::LabeledQuery>& queries) override {
    return inner_->UpdateWithQueries(queries);
  }
  lce::Status UpdateWithData(const lce::storage::Database& db) override {
    return inner_->UpdateWithData(db);
  }
  bool ThreadSafeEstimate() const override {
    return inner_->ThreadSafeEstimate();
  }
  uint64_t SizeBytes() const override { return inner_->SizeBytes(); }
  uint64_t FootprintBytes() const override { return inner_->FootprintBytes(); }
  void DescribeModel(lce::telemetry::ModelCard* card) const override {
    inner_->DescribeModel(card);
  }

 private:
  const std::shared_ptr<lce::ce::Estimator> inner_;
  FlushLog* const log_;
};

/// Disjoint, sorted union of flush intervals; answers "how much of [a, b]
/// was some estimator flush running".
class FlushCoverage {
 public:
  explicit FlushCoverage(const std::vector<Flush>& flushes) {
    std::vector<std::pair<int64_t, int64_t>> iv;
    iv.reserve(flushes.size());
    for (const Flush& f : flushes) iv.emplace_back(f.t0_ns, f.t1_ns);
    std::sort(iv.begin(), iv.end());
    for (const auto& [a, b] : iv) {
      if (!merged_.empty() && a <= merged_.back().second) {
        merged_.back().second = std::max(merged_.back().second, b);
      } else {
        merged_.emplace_back(a, b);
      }
    }
  }

  int64_t Covered(int64_t a, int64_t b) const {
    auto it = std::lower_bound(
        merged_.begin(), merged_.end(), a,
        [](const std::pair<int64_t, int64_t>& iv, int64_t t) {
          return iv.second <= t;
        });
    int64_t sum = 0;
    for (; it != merged_.end() && it->first < b; ++it) {
      sum += std::min(b, it->second) - std::max(a, it->first);
    }
    return sum;
  }

 private:
  std::vector<std::pair<int64_t, int64_t>> merged_;
};

/// Per-op layer self times in nanoseconds, plus the op's own latency.
struct OpAttribution {
  int64_t latency_ns = 0;
  std::array<int64_t, kNumLayers> self_ns{};
};

/// Splits every op of one SpanLog into layer self times (see file comment).
inline std::vector<OpAttribution> Attribute(const SpanLog& log,
                                            const FlushCoverage& flushes) {
  std::vector<OpAttribution> out;
  // Children complete before their parent, so by the time a span closes the
  // summed durations of its direct children are known.
  uint32_t max_id = 0;
  for (const Span& s : log.spans()) max_id = std::max(max_id, s.id);
  std::vector<int64_t> child_ns(max_id + 1, 0);  // indexed by span id
  OpAttribution cur;
  for (const Span& s : log.spans()) {
    const int64_t dur = s.t1_ns - s.t0_ns;
    int64_t self = dur - child_ns[s.id];
    const int layer = LayerOf(s.kind);
    if (s.kind == SpanKind::kEstimate || s.kind == SpanKind::kExplain) {
      const int64_t ce = std::min(self, flushes.Covered(s.t0_ns, s.t1_ns));
      cur.self_ns[kCe] += ce;
      self -= ce;
    }
    cur.self_ns[layer] += self;
    if (s.parent != 0) child_ns[s.parent] += dur;
    if (s.kind == SpanKind::kOp) {
      cur.latency_ns = dur;
      out.push_back(cur);
      cur = OpAttribution{};
    }
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
