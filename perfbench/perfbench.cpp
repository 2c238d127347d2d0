// End-to-end benchmark: request -> parse -> serve -> estimate -> plan ->
// execute, with every answer verified and an optional per-layer trace.
//
//   lce_perfbench --workload <serve-nn|serve-mixed|plan-exec> --seed <n>
//                 --seconds <s> --trace <0|1>
//
// Workloads (see perfbench/README.md for why each exists):
//   serve-nn     TPC-H-like database, a serving-sized FCN (1024x3), 4
//                closed-loop clients cycling a fixed pool of SQL strings
//                through EstimationService::EstimateSql.
//   serve-mixed  Same database, LW-XGB, 4 clients; mostly EstimateSql plus
//                a fixed share of ExplainSql and malformed SQL; client 0
//                hot-swaps between two pre-built LW-XGB builds every
//                kSwapEvery-th op.
//   plan-exec    STATS-like database, MSCN, 1 client; each op parses one
//                distinct multi-join query, plans it with
//                Planner::BestPlan whose CardFn asks the service for every
//                connected sub-plan, and executes the plan.
//
// The database and the trained models are the system under test and come
// from a fixed seed, so set-up does the same work on every run; --seed
// draws the request stream (the order clients walk the serve pool, the op
// mix, malformed statements, the plan-exec queries).
// The program runs at its defaults: no LCE_* knob is set, and any found in
// the environment is reported.
//
// Untraced (--trace 0) runs print the end-to-end metrics. Traced runs
// (--trace 1) first repeat the untraced measurement, then measure again
// with spans recorded from this file around every public call, and print
// the per-layer metrics. The last stdout line is one JSON object.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <climits>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "perfbench/trace.h"
#include "src/ce/factory.h"
#include "src/eval/metrics.h"
#include "src/exec/executor.h"
#include "src/exec/plan_executor.h"
#include "src/optimizer/planner.h"
#include "src/query/parser.h"
#include "src/query/query.h"
#include "src/serve/service.h"
#include "src/storage/datagen.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/telemetry/event_ring.h"
#include "src/util/telemetry/memory.h"
#include "src/util/telemetry/telemetry.h"
#include "src/workload/generator.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace lce;

constexpr uint64_t kSystemSeed = 7;  // database, training queries, models
constexpr const char* kModel = "model";
constexpr int kSwapEvery = 1000;       // serve-mixed: client 0's swap period
constexpr double kExplainShare = 0.03;    // serve-mixed op mix
constexpr double kMalformedShare = 0.03;  // serve-mixed op mix
constexpr double kWarmupSeconds = 0.5;
// Phase ids: part of every op id, and the warm-up keeps no op records.
constexpr uint64_t kWarmupPhase = 1;
constexpr uint64_t kMeasuredPhase = 2;
constexpr uint64_t kTracedPhase = 3;

// ---------------------------------------------------------------------------
// Arguments and sizing
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;    // self-test sizing
  std::string inject;   // self-test fault: wrong-reference, accept-malformed,
                        // wrong-count
  std::string commit = "unknown";
  std::string out_dir = ".";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "lce_perfbench: %s\nusage: lce_perfbench --workload "
               "<serve-nn|serve-mixed|plan-exec> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--inject <fault>] [--commit <id>] "
               "[--out-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (k == "--trace") {
      a.trace = value() == "1";
    } else if (k == "--tiny") {
      a.tiny = true;
    } else if (k == "--inject") {
      a.inject = value();
    } else if (k == "--commit") {
      a.commit = value();
    } else if (k == "--out-dir") {
      a.out_dir = value();
    } else {
      Usage("unknown argument " + k);
    }
  }
  if (a.workload != "serve-nn" && a.workload != "serve-mixed" &&
      a.workload != "plan-exec") {
    Usage("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  if (!a.inject.empty() && a.inject != "wrong-reference" &&
      a.inject != "accept-malformed" && a.inject != "wrong-count") {
    Usage("unknown fault '" + a.inject + "'");
  }
  return a;
}

struct Sizes {
  double tpch_scale = 0.04;
  int nn_train = 200;     // serve-nn: the serving bench's CI-scale set
  int xgb_train = 1000;   // serve-mixed
  int serve_pool = 400;
  int nn_hidden = 1024;   // serving-sized FCN: each layer's weights exceed L2
  int nn_layers = 3;
  int nn_epochs = 2;
  double stats_scale = 0.12;
  int plan_train = 1000;
  int mscn_hidden = 48;   // the study's bench size (BenchNeuralOptions)
  int mscn_epochs = 20;
  int setup_repeats = 3;

  static Sizes For(bool tiny) {
    Sizes s;
    if (!tiny) return s;
    s.tpch_scale = 0.01;
    s.nn_train = 40;
    s.xgb_train = 40;
    s.serve_pool = 20;
    s.nn_hidden = 32;
    s.nn_layers = 1;
    s.nn_epochs = 1;
    s.stats_scale = 0.02;
    s.plan_train = 40;
    s.mscn_hidden = 16;
    s.mscn_epochs = 1;
    s.setup_repeats = 1;
    return s;
  }
};

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double Pct(std::vector<double> v, double p) {
  return v.empty() ? 0.0 : Percentile(std::move(v), p);
}

double MeanOf(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Mean(v);
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Highest of the usual percentiles with at least ten samples beyond it.
double TailPercentile(size_t n) {
  for (double p : {99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 29;
  return x;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// A served estimate is valid when finite, at least 1, and bit-equal to the
/// reference answer of the build that served it.
bool ValidEstimate(double est, double ref) {
  return std::isfinite(est) && est >= 1.0 && BitEqual(est, ref);
}

// ---------------------------------------------------------------------------
// Set-up: what a user pays before the first op
// ---------------------------------------------------------------------------

struct SetupTimes {
  double datagen_s = 0;
  double label_s = 0;
  double build_s = 0;  // model builds + registration
  double Total() const { return datagen_s + label_s + build_s; }
};

struct System {
  std::unique_ptr<storage::Database> db;
  std::vector<std::shared_ptr<ce::Estimator>> builds;  // bare models
  // TracingEstimator around each build; registered instead of the bare
  // model once `traced` is set, for the traced phase only.
  std::vector<std::shared_ptr<ce::Estimator>> wrapped;
  bool traced = false;
  std::unique_ptr<serve::EstimationService> service;
  SetupTimes times;
  std::mutex version_mu;
  std::vector<int> build_of_version;  // model version -> index into builds
  int current_build = 0;
};

/// Registers build `b` (re-registering swaps it in) and records which build
/// the returned model version names.
uint64_t RegisterBuild(System* sys, int b) {
  const uint64_t v = sys->service->RegisterModel(
      kModel, sys->traced ? sys->wrapped[b] : sys->builds[b]);
  std::lock_guard<std::mutex> lock(sys->version_mu);
  if (sys->build_of_version.size() <= v) {
    sys->build_of_version.resize(v + 1, -1);
  }
  sys->build_of_version[v] = b;
  sys->current_build = b;
  return v;
}

workload::WorkloadOptions ServeWorkloadOptions() {
  workload::WorkloadOptions o;
  o.max_joins = 3;
  return o;
}

/// plan-exec queries join at least three tables, so every op plans a real
/// join order.
workload::WorkloadOptions PlanWorkloadOptions(const storage::Database& db) {
  workload::WorkloadOptions o;
  o.max_joins = 4;
  workload::WorkloadGenerator all(&db, o);
  for (const std::vector<int>& t : all.EnumerateTemplates()) {
    if (t.size() >= 3) o.template_whitelist.push_back(t);
  }
  return o;
}

std::unique_ptr<System> Setup(const Args& args, const Sizes& sz,
                              FlushLog* flushes) {
  auto sys = std::make_unique<System>();
  const bool plan = args.workload == "plan-exec";
  auto t = std::chrono::steady_clock::now();
  sys->db = storage::datagen::Generate(
      plan ? storage::datagen::StatsLikeSpec(sz.stats_scale)
           : storage::datagen::TpchLikeSpec(sz.tpch_scale),
      kSystemSeed);
  auto t1 = std::chrono::steady_clock::now();
  sys->times.datagen_s = Seconds(t, t1);

  t = t1;
  workload::WorkloadGenerator gen(
      sys->db.get(),
      plan ? workload::WorkloadOptions{} : ServeWorkloadOptions());
  Rng rng(kSystemSeed * 977 + 13);
  std::vector<query::LabeledQuery> train = gen.GenerateLabeled(
      plan                              ? sz.plan_train
      : args.workload == "serve-mixed" ? sz.xgb_train
                                        : sz.nn_train,
      &rng);
  t1 = std::chrono::steady_clock::now();
  sys->times.label_s = Seconds(t, t1);

  t = t1;
  ce::NeuralOptions neural;
  std::string family = "FCN";
  if (args.workload == "serve-nn") {
    neural.hidden_dim = sz.nn_hidden;
    neural.num_hidden_layers = sz.nn_layers;
    neural.epochs = sz.nn_epochs;
  } else if (args.workload == "serve-mixed") {
    family = "LW-XGB";
  } else {
    family = "MSCN";
    neural.hidden_dim = sz.mscn_hidden;
    neural.epochs = sz.mscn_epochs;
  }
  auto build = [&](uint64_t seed,
                   const std::vector<query::LabeledQuery>& queries) {
    std::shared_ptr<ce::Estimator> est =
        ce::MakeEstimator(family, neural, seed);
    Status s = est->Build(*sys->db, queries);
    LCE_CHECK_MSG(s.ok(), "build failed: " << s.ToString());
    sys->builds.push_back(est);
    if (flushes != nullptr) {
      sys->wrapped.push_back(std::make_shared<TracingEstimator>(est, flushes));
    }
  };
  build(kSystemSeed, train);
  if (args.workload == "serve-mixed") {
    // The second build differs in seed and training set, so an answer from
    // the wrong build cannot pass verification.
    std::vector<query::LabeledQuery> subset;
    for (size_t i = 0; i < train.size(); ++i) {
      if (i % 5 != 4) subset.push_back(train[i]);
    }
    build(kSystemSeed + 1, subset);
  }
  sys->service = std::make_unique<serve::EstimationService>(sys->db.get());
  RegisterBuild(sys.get(), 0);
  sys->times.build_s = Seconds(t, std::chrono::steady_clock::now());
  return sys;
}

// ---------------------------------------------------------------------------
// Request pools (the benchmark's inputs) and reference answers.
// None of this is set-up time: it is the benchmark's own work.
// ---------------------------------------------------------------------------

struct ServePool {
  std::vector<std::string> sql;
  std::vector<query::Query> parsed;
  std::vector<double> truth;
  std::vector<std::vector<double>> ref;  // [build][query]
  std::vector<std::string> malformed;
  std::vector<uint32_t> order;  // seed-shuffled walk over the pool
};

/// Statements the parser must reject: each breaks the grammar or names
/// something the schema does not have.
std::string Malform(const std::string& sql, Rng* rng) {
  switch (rng->Below(6)) {
    case 0: {  // unknown table in FROM
      const size_t from = sql.find("FROM ") + 5;
      const size_t end = sql.find_first_of(", ;", from);
      return sql.substr(0, from) + "no_such_table" + sql.substr(end);
    }
    case 1:  // statement cut before the first table
      return "SELECT COUNT(*) FROM";
    case 2:  // dangling conjunction
      return sql.substr(0, sql.size() - 1) + " AND;";
    case 3: {  // unknown column
      const size_t dot = sql.rfind('.');
      const size_t end = sql.find_first_of(" ;", dot);
      return sql.substr(0, dot + 1) + "no_such_column" + sql.substr(end);
    }
    case 4:  // misspelled keyword
      return "SELEC" + sql.substr(6);
    default: {  // printable garbage
      std::string s;
      const uint32_t n = 1 + rng->Below(40);
      for (uint32_t i = 0; i < n; ++i) {
        s.push_back(static_cast<char>('!' + rng->Below(94)));
      }
      return s;
    }
  }
}

ServePool MakeServePool(const Args& args, const Sizes& sz, const System& sys) {
  ServePool p;
  // The pool is the system's fixed test set, so q-error compares like with
  // like across seeds; --seed draws the order, mix and malformed statements.
  workload::WorkloadGenerator gen(sys.db.get(), ServeWorkloadOptions());
  Rng pool_rng(kSystemSeed * 31 + 5);
  std::vector<query::LabeledQuery> pool =
      gen.GenerateLabeled(sz.serve_pool, &pool_rng);
  Rng rng(Mix(args.seed, 1));
  exec::Executor oracle(sys.db.get());
  for (const query::LabeledQuery& lq : pool) {
    std::string sql = query::ToSql(lq.q, sys.db->schema());
    Result<query::Query> parsed = query::ParseSql(sql, *sys.db);
    LCE_CHECK_MSG(parsed.ok(), "pool SQL does not parse: " << sql);
    p.truth.push_back(oracle.Cardinality(parsed.value()));
    p.sql.push_back(std::move(sql));
    p.parsed.push_back(std::move(parsed).value());
  }
  for (const std::shared_ptr<ce::Estimator>& b : sys.builds) {
    std::vector<double> ref;
    for (const query::Query& q : p.parsed) {
      ref.push_back(b->EstimateCardinality(q));
    }
    p.ref.push_back(std::move(ref));
  }
  for (int i = 0; i < 64; ++i) {
    p.malformed.push_back(Malform(p.sql[rng.Below(
                                      static_cast<uint32_t>(p.sql.size()))],
                                  &rng));
  }
  for (uint32_t i = 0; i < p.sql.size(); ++i) p.order.push_back(i);
  for (size_t i = p.order.size(); i > 1; --i) {
    std::swap(p.order[i - 1], p.order[rng.Below(static_cast<uint32_t>(i))]);
  }
  if (args.inject == "wrong-reference") {
    for (std::vector<double>& r : p.ref) r[0] = r[0] * 2 + 1;
  } else if (args.inject == "accept-malformed") {
    for (std::string& m : p.malformed) m = p.sql[0];
  }
  return p;
}

/// Largest true result of any connected sub-plan of a plan-exec query. Every
/// intermediate of a join plan is such a sub-plan, so no plan the optimizer
/// can choose exceeds the executor's intermediate budget, and no single op
/// dominates a run.
constexpr double kMaxSubplanRows = 1e5;

/// One plan-exec query with the oracle's answers the checks need.
struct PlanQuery {
  std::string sql;
  std::map<std::vector<int>, double> truth;  // sorted tables -> true rows
  double optimal_cost = 0;  // cost of the best plan under true cardinalities
};

/// Distinct multi-join queries with a non-empty result (the study's test
/// protocol) and bounded sub-plans, drawn from --seed. Grown on demand, so a
/// run labels only what it consumes.
class PlanPool {
 public:
  PlanPool(const Args& args, const System& sys)
      : sys_(sys),
        gen_(sys.db.get(), PlanWorkloadOptions(*sys.db)),
        oracle_(sys.db.get()),
        planner_(sys.db.get(), opt::CostModel{}),
        rng_(Mix(args.seed, 2)) {}

  size_t size() const { return queries_.size(); }
  const PlanQuery& operator[](size_t i) const { return queries_[i]; }

  void Grow(size_t n) {
    for (size_t target = queries_.size() + n; queries_.size() < target;) {
      const query::Query q = gen_.GenerateQuery(&rng_);
      PlanQuery pq;
      pq.sql = query::ToSql(q, sys_.db->schema());
      if (!seen_.insert(pq.sql).second) continue;
      double largest = 0;
      const opt::CardFn truth = [&](const std::vector<int>& tables) {
        std::vector<int> key = tables;
        std::sort(key.begin(), key.end());
        auto it = pq.truth.find(key);
        if (it == pq.truth.end()) {
          it = pq.truth.emplace(key, oracle_.SubsetCardinality(q, tables))
                   .first;
        }
        largest = std::max(largest, it->second);
        return it->second;
      };
      pq.optimal_cost = planner_.BestPlan(q, truth).cost;
      if (largest > kMaxSubplanRows || truth(q.tables) < 1) continue;
      queries_.push_back(std::move(pq));
    }
  }

 private:
  const System& sys_;
  workload::WorkloadGenerator gen_;
  exec::Executor oracle_;
  opt::Planner planner_;
  Rng rng_;
  std::unordered_set<std::string> seen_;
  std::vector<PlanQuery> queries_;
};

// ---------------------------------------------------------------------------
// Serve workloads
// ---------------------------------------------------------------------------

enum class OpType : uint8_t { kEstimate, kExplain, kMalformed, kSwap };

struct ServeOp {
  OpType type = OpType::kEstimate;
  bool ok = false;     // the service returned OK
  uint32_t idx = 0;    // pool / malformed index; swap: build registered
  uint64_t version = 0;
  double estimate = 0;
  double latency_us = 0;
  double end_s = 0;  // completion, in seconds since the phase started
  int batch = 0;
  double wait_us = 0;
};

struct ServePhase {
  double elapsed_s = 0;
  std::vector<std::vector<ServeOp>> serve_ops;  // per client
  std::vector<std::unique_ptr<SpanLog>> logs;   // per client, traced only
};

void ServeClient(const Args& args, System* sys, const ServePool& pool,
                 int client, int clients, uint64_t phase_id, SpanLog* log,
                 std::chrono::steady_clock::time_point phase_start,
                 const std::atomic<bool>* stop, std::vector<ServeOp>* ops) {
  const bool mixed = args.workload == "serve-mixed";
  Rng rng(Mix(Mix(args.seed, phase_id), static_cast<uint64_t>(client)));
  size_t pos = pool.order.size() * static_cast<size_t>(client) /
               static_cast<size_t>(clients);
  for (uint64_t k = 0; !stop->load(std::memory_order_relaxed); ++k) {
    ServeOp op;
    if (mixed && client == 0 && k % kSwapEvery == kSwapEvery - 1) {
      op.type = OpType::kSwap;
    } else if (mixed) {
      const double u = rng.Uniform();
      op.type = u < kExplainShare                     ? OpType::kExplain
                : u < kExplainShare + kMalformedShare ? OpType::kMalformed
                                                      : OpType::kEstimate;
    }
    if (op.type == OpType::kMalformed) {
      op.idx = rng.Below(static_cast<uint32_t>(pool.malformed.size()));
    } else if (op.type != OpType::kSwap) {
      op.idx = pool.order[pos];
      pos = (pos + 1) % pool.order.size();
    }
    const auto t0 = std::chrono::steady_clock::now();
    {
      const uint64_t op_id =
          (phase_id << 56) | (static_cast<uint64_t>(client) << 40) | k;
      SpanScope op_span(log, SpanKind::kOp, op_id);
      switch (op.type) {
        case OpType::kEstimate:
        case OpType::kMalformed: {
          const std::string& sql = op.type == OpType::kEstimate
                                       ? pool.sql[op.idx]
                                       : pool.malformed[op.idx];
          auto estimate_sql = [&]() -> Result<serve::EstimateResponse> {
            if (log == nullptr) return sys->service->EstimateSql(kModel, sql);
            // EstimateSql is ParseSql followed by Estimate; the traced run
            // makes the same two calls itself so the parse gets its span.
            Result<query::Query> q = [&] {
              SpanScope s(log, SpanKind::kParse);
              return query::ParseSql(sql, *sys->db);
            }();
            if (!q.ok()) return q.status();
            SpanScope s(log, SpanKind::kEstimate);
            return sys->service->Estimate(kModel, q.value());
          };
          const Result<serve::EstimateResponse> r = estimate_sql();
          op.ok = r.ok();
          if (r.ok()) {
            op.estimate = r.value().estimate;
            op.version = r.value().model_version;
            op.batch = r.value().batch_size;
            op.wait_us = r.value().queue_wait_us;
          }
          break;
        }
        case OpType::kExplain: {
          SpanScope s(log, SpanKind::kExplain);
          Result<serve::ExplainResponse> r =
              sys->service->ExplainSql(kModel, pool.sql[op.idx]);
          op.ok = r.ok();
          if (r.ok()) {
            op.estimate = r.value().response.estimate;
            op.version = r.value().response.model_version;
            op.batch = r.value().response.batch_size;
          }
          break;
        }
        case OpType::kSwap: {
          // Only this client swaps, so current_build is stable here.
          op.idx = static_cast<uint32_t>(1 - sys->current_build);
          SpanScope s(log, SpanKind::kSwap);
          op.version = RegisterBuild(sys, static_cast<int>(op.idx));
          op.ok = true;
          break;
        }
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    op.latency_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    op.end_s = Seconds(phase_start, t1);
    if (ops != nullptr) ops->push_back(op);
  }
}

/// Runs the serve clients for `seconds`. Without `record` (the warm-up)
/// ops are sent but not kept, so the warm-up adds no benchmark memory to
/// the peak RSS read after it.
ServePhase RunServe(const Args& args, System* sys, const ServePool& pool,
               int clients, double seconds, uint64_t phase_id, bool traced,
               bool record) {
  ServePhase ph;
  ph.serve_ops.resize(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    ph.logs.push_back(traced ? std::make_unique<SpanLog>(1 << 20) : nullptr);
    if (record) ph.serve_ops[static_cast<size_t>(c)].reserve(1 << 18);
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(ServeClient, std::cref(args), sys, std::cref(pool),
                         c, clients, phase_id,
                         ph.logs[static_cast<size_t>(c)].get(), t0, &stop,
                         record ? &ph.serve_ops[static_cast<size_t>(c)]
                                : nullptr);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  ph.elapsed_s = Seconds(t0, std::chrono::steady_clock::now());
  return ph;
}

// ---------------------------------------------------------------------------
// plan-exec workload
// ---------------------------------------------------------------------------

struct SubplanEstimate {
  std::vector<int> tables;
  bool ok = false;
  uint64_t version = 0;
  double estimate = 0;
  int batch = 0;
  double wait_us = 0;
};

struct PlanOp {
  uint32_t idx = 0;
  bool parsed = false;
  double latency_us = 0;
  double end_s = 0;  // completion, in seconds since the phase started
  std::vector<SubplanEstimate> subplans;
  opt::Plan plan;
  bool executed = false;  // false: aborted by the intermediate budget
  double count = 0;
  uint64_t tuple_work = 0;
  uint64_t peak_intermediate = 0;
};

struct PlanPhase {
  double elapsed_s = 0;
  std::vector<PlanOp> ops;
  std::unique_ptr<SpanLog> log;
};

PlanPhase RunPlanExec(System* sys, PlanPool* pool, size_t* next,
                      double seconds, uint64_t phase_id, bool traced) {
  PlanPhase ph;
  if (traced) ph.log = std::make_unique<SpanLog>(1 << 20);
  SpanLog* log = ph.log.get();
  opt::Planner planner(sys->db.get(), opt::CostModel{});
  exec::PlanExecutor executor(sys->db.get());
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
  Clock::duration paused{0};
  while (Clock::now() < deadline) {
    if (*next >= pool->size()) {
      // Growing the pool is the benchmark's own work: stop the clock.
      const auto g0 = Clock::now();
      pool->Grow(256);
      const auto g = Clock::now() - g0;
      paused += g;
      deadline += g;
    }
    PlanOp op;
    op.idx = static_cast<uint32_t>((*next)++);
    const auto q0 = std::chrono::steady_clock::now();
    {
      SpanScope op_span(log, SpanKind::kOp, (phase_id << 56) | op.idx);
      const Result<query::Query> q = [&] {
        SpanScope s(log, SpanKind::kParse);
        return query::ParseSql((*pool)[op.idx].sql, *sys->db);
      }();
      op.parsed = q.ok();
      if (op.parsed) {
        const query::Query& query = q.value();
        opt::CardFn card = [&](const std::vector<int>& tables) {
          SpanScope fn(log, SpanKind::kCardFn);
          query::Query sub;
          {
            SpanScope s(log, SpanKind::kRestrict);
            sub = query::Restrict(query, tables, sys->db->schema());
          }
          SubplanEstimate e;
          e.tables = tables;
          const Result<serve::EstimateResponse> r = [&] {
            SpanScope s(log, SpanKind::kEstimate);
            return sys->service->Estimate(kModel, sub);
          }();
          e.ok = r.ok();
          if (r.ok()) {
            e.estimate = r.value().estimate;
            e.version = r.value().model_version;
            e.batch = r.value().batch_size;
            e.wait_us = r.value().queue_wait_us;
          }
          op.subplans.push_back(std::move(e));
          return r.ok() ? r.value().estimate : 1.0;
        };
        {
          SpanScope s(log, SpanKind::kPlan);
          op.plan = planner.BestPlan(query, card);
        }
        const Result<exec::ExecStats> st = [&] {
          SpanScope s(log, SpanKind::kExecute);
          return executor.Execute(query, op.plan);
        }();
        op.executed = st.ok();
        if (st.ok()) {
          op.count = st.value().result;
          op.tuple_work = st.value().TotalWork();
          op.peak_intermediate = st.value().peak_intermediate;
        }
      }
    }
    const auto q1 = Clock::now();
    op.latency_us = std::chrono::duration<double, std::micro>(q1 - q0).count();
    op.end_s = std::chrono::duration<double>(q1 - t0 - paused).count();
    ph.ops.push_back(std::move(op));
  }
  ph.elapsed_s = std::chrono::duration<double>(Clock::now() - t0 - paused)
                     .count();
  return ph;
}

// ---------------------------------------------------------------------------
// Verification and end-to-end metrics
// ---------------------------------------------------------------------------

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;
  std::vector<double> latency_us;
  std::vector<double> end_s;  // per op, parallel to latency_us
  std::vector<double> qerr;
  std::vector<double> p_error;
  // Workload properties.
  uint64_t query_ops = 0;       // ops that sent a query
  uint64_t distinct_queries = 0;
  std::map<std::string, uint64_t> mix;
  double tables_per_query = 0;
  double subplans_per_query = 0;
  std::vector<std::string> failures;  // first few, for the report
};

void NoteFailure(Outcome* out, const std::string& what) {
  ++out->failed;
  if (out->failures.size() < 5) out->failures.push_back(what);
}

Outcome VerifyServe(System* sys, const ServePool& pool, const ServePhase& ph) {
  Outcome out;
  out.elapsed_s = ph.elapsed_s;
  std::vector<bool> seen(pool.sql.size(), false);
  // Answers are bit-identical per (build, query), so q-error is taken once
  // per distinct answer; how often each was requested does not weigh in.
  std::set<std::pair<int, uint32_t>> scored;
  for (const std::vector<ServeOp>& client : ph.serve_ops) {
    for (const ServeOp& op : client) {
      ++out.attempted;
      out.latency_us.push_back(op.latency_us);
      out.end_s.push_back(op.end_s);
      switch (op.type) {
        case OpType::kEstimate:
        case OpType::kExplain: {
          const char* kind = op.type == OpType::kEstimate ? "estimate"
                                                          : "explain";
          ++out.mix[kind];
          ++out.query_ops;
          if (!seen[op.idx]) {
            seen[op.idx] = true;
            ++out.distinct_queries;
          }
          if (!op.ok) {
            NoteFailure(&out, std::string(kind) + " rejected: " +
                                  pool.sql[op.idx]);
            break;
          }
          const int b = op.version < sys->build_of_version.size()
                            ? sys->build_of_version[op.version]
                            : -1;
          if (b < 0 || !ValidEstimate(op.estimate, pool.ref[b][op.idx])) {
            NoteFailure(&out, std::string(kind) + " answer " +
                                  std::to_string(op.estimate) +
                                  " != reference of version " +
                                  std::to_string(op.version));
            break;
          }
          if (scored.insert({b, op.idx}).second) {
            out.qerr.push_back(eval::QError(op.estimate, pool.truth[op.idx]));
          }
          break;
        }
        case OpType::kMalformed:
          ++out.mix["malformed"];
          if (op.ok) {
            NoteFailure(&out, "malformed SQL accepted: " +
                                  pool.malformed[op.idx]);
          }
          break;
        case OpType::kSwap:
          ++out.mix["swap"];
          if (op.version == 0) NoteFailure(&out, "swap returned version 0");
          break;
      }
    }
  }
  return out;
}

Outcome VerifyPlanExec(const Args& args, System* sys, const PlanPool& pool,
                       const PlanPhase& ph) {
  Outcome out;
  out.elapsed_s = ph.elapsed_s;
  exec::Executor oracle(sys->db.get());
  opt::Planner planner(sys->db.get(), opt::CostModel{});
  double tables = 0, subplans = 0;
  for (const PlanOp& op : ph.ops) {
    const PlanQuery& pq = pool[op.idx];
    ++out.attempted;
    ++out.query_ops;
    ++out.distinct_queries;  // the pool holds distinct statements
    ++out.mix["plan"];
    out.latency_us.push_back(op.latency_us);
    out.end_s.push_back(op.end_s);
    if (!op.parsed) {
      NoteFailure(&out, "valid SQL rejected: " + pq.sql);
      continue;
    }
    const query::Query q = query::ParseSql(pq.sql, *sys->db).value();
    tables += static_cast<double>(q.tables.size());
    subplans += static_cast<double>(op.subplans.size());
    const opt::CardFn truth = [&](const std::vector<int>& t) {
      std::vector<int> key = t;
      std::sort(key.begin(), key.end());
      auto it = pq.truth.find(key);
      return it != pq.truth.end() ? it->second
                                  : oracle.SubsetCardinality(q, t);
    };
    bool ok = true;
    for (const SubplanEstimate& e : op.subplans) {
      const int b = e.ok && e.version < sys->build_of_version.size()
                        ? sys->build_of_version[e.version]
                        : -1;
      const query::Query sub = query::Restrict(q, e.tables, sys->db->schema());
      if (b < 0 || !ValidEstimate(e.estimate,
                                  sys->builds[b]->EstimateCardinality(sub))) {
        ok = false;
        NoteFailure(&out, "sub-plan estimate differs from reference: " +
                              pq.sql);
        break;
      }
      out.qerr.push_back(eval::QError(e.estimate, truth(e.tables)));
    }
    if (!ok) continue;
    if (!op.executed) {
      NoteFailure(&out, "plan aborted by the intermediate budget: " + pq.sql);
      continue;
    }
    double expected = truth(q.tables);
    if (args.inject == "wrong-count" && &op == &ph.ops.front()) expected += 1;
    if (op.count != expected) {
      NoteFailure(&out, "COUNT " + std::to_string(op.count) + " != truth " +
                            std::to_string(expected) + ": " + pq.sql);
      continue;
    }
    out.p_error.push_back(planner.CostWithCards(q, op.plan, truth) /
                          pq.optimal_cost);
  }
  if (!ph.ops.empty()) {
    out.tables_per_query = tables / static_cast<double>(ph.ops.size());
    out.subplans_per_query = subplans / static_cast<double>(ph.ops.size());
  }
  return out;
}

/// A measured phase is cut into kWindows equal windows by op completion
/// time, and throughput and latency percentiles are computed per window.
/// Throughput and p50 report the median window, so a burst of load from
/// another tenant of the host in a few windows moves them less than it
/// would a whole-run figure. The tail reports the 20th percentile of the
/// window tails: such bursts move tails most, and they only ever raise
/// them, so the tail of the quieter windows is the program's own. A change
/// that raises the tail for good raises every window.
constexpr int kWindows = 20;

struct WindowStats {
  double throughput = 0;  // ops/s
  double p50_us = 0;
  double tail_us = 0;
  double tail_percentile = 0;
  size_t min_window_ops = 0;
  std::vector<double> window_throughput;
  std::vector<double> window_p50_us;
  std::vector<double> window_tail_us;
};

WindowStats Windowed(const Outcome& o) {
  WindowStats w;
  const double len = o.elapsed_s / kWindows;
  std::vector<std::vector<double>> lat(kWindows);
  for (size_t i = 0; i < o.latency_us.size(); ++i) {
    const int k = std::clamp(static_cast<int>(o.end_s[i] / len), 0,
                             kWindows - 1);
    lat[static_cast<size_t>(k)].push_back(o.latency_us[i]);
  }
  w.min_window_ops = o.latency_us.size();
  for (const std::vector<double>& l : lat) {
    w.min_window_ops = std::min(w.min_window_ops, l.size());
  }
  w.tail_percentile = TailPercentile(w.min_window_ops);
  std::vector<double> thr, p50, tail;
  for (const std::vector<double>& l : lat) {
    thr.push_back(static_cast<double>(l.size()) / len);
    p50.push_back(Pct(l, 50));
    tail.push_back(Pct(l, w.tail_percentile));
  }
  w.window_throughput = thr;
  w.window_p50_us = p50;
  w.window_tail_us = tail;
  w.throughput = Pct(thr, 50);
  w.p50_us = Pct(p50, 50);
  w.tail_us = Pct(tail, 20);
  return w;
}

// ---------------------------------------------------------------------------
// Per-layer metrics from the traced phase
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Mean per-row stage time over every ce.<model>.stage.<stage>.micros
/// histogram the program recorded (StageTimer weights batched rows).
double StageMeanUs(const std::string& stage) {
  double sum = 0, count = 0;
  const std::string suffix = ".stage." + stage + ".micros";
  for (const auto& [name, snap] :
       telemetry::MetricsRegistry::Global().HistogramSnapshots()) {
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0 &&
        name.rfind("ce.", 0) == 0) {
      sum += snap.sum;
      count += static_cast<double>(snap.count);
    }
  }
  return count > 0 ? sum / count : 0.0;
}

/// What the per-layer metrics are computed from: the traced phase's spans,
/// flushes and responses, plus the untraced phase's throughput.
struct TraceInputs {
  std::vector<const SpanLog*> logs;
  std::vector<Flush> flushes;
  std::vector<double> batch_sizes;  // per served estimate
  std::vector<double> waits_us;     // per served estimate
  uint64_t rejected = 0;            // malformed statements rejected
  uint64_t tuple_work = 0;          // summed over executed plans
  uint64_t peak_intermediate = 0;   // largest over executed plans
  double traced_throughput = 0;
  double untraced_throughput = 0;
  SetupTimes setup;
};

std::vector<Metric> TraceMetrics(const Args& args, const TraceInputs& in) {
  const std::vector<Flush>& flushes = in.flushes;
  const FlushCoverage coverage(flushes);
  std::vector<OpAttribution> ops;
  std::map<SpanKind, std::vector<double>> span_us;
  for (const SpanLog* log : in.logs) {
    std::vector<OpAttribution> a = Attribute(*log, coverage);
    ops.insert(ops.end(), a.begin(), a.end());
    for (const Span& s : log->spans()) {
      span_us[s.kind].push_back(static_cast<double>(s.t1_ns - s.t0_ns) / 1e3);
    }
  }
  const double n_ops = std::max<double>(1.0, static_cast<double>(ops.size()));
  std::vector<double> layer_us[kNumLayers];
  double latency_sum = 0;
  for (const OpAttribution& o : ops) {
    latency_sum += static_cast<double>(o.latency_ns) / 1e3;
    for (int l = 0; l < kNumLayers; ++l) {
      layer_us[l].push_back(static_cast<double>(o.self_ns[l]) / 1e3);
    }
  }
  double flush_sum = 0, rows = 0, all_rows = 0;
  std::vector<double> flush_us;
  for (const Flush& f : flushes) {
    all_rows += f.rows;
    if (f.explain) continue;
    const double us = static_cast<double>(f.t1_ns - f.t0_ns) / 1e3;
    flush_us.push_back(us);
    flush_sum += us;
    rows += f.rows;
  }
  const bool plan = args.workload == "plan-exec";

  std::vector<Metric> rep;
  auto add = [&rep](std::string name, double value, std::string unit) {
    rep.push_back({std::move(name), value, std::move(unit)});
  };
  add("ce.row_us", rows > 0 ? flush_sum / rows : 0.0, "us");
  add("ce.flush_us_p50", Pct(flush_us, 50), "us");
  for (const char* stage : {"encode", "forward", "traverse", "postprocess"}) {
    add(std::string("ce.stage.") + stage + "_us", StageMeanUs(stage),
             "us");
  }
  add("ce.calls_per_op", all_rows / n_ops, "count");
  add("ce.subplan_us_p50",
           plan ? Pct(span_us[SpanKind::kEstimate], 50) : 0.0, "us");
  add("serve.batch_size_mean", MeanOf(in.batch_sizes), "count");
  add("serve.queue_wait_us_mean", MeanOf(in.waits_us), "us");
  add("serve.self_us_p50", Pct(layer_us[kServe], 50), "us");
  add("serve.explain_us_p50", Pct(span_us[SpanKind::kExplain], 50), "us");
  add("serve.swap_us_p50", Pct(span_us[SpanKind::kSwap], 50), "us");
  add("serve.rejected", static_cast<double>(in.rejected), "count");
  add("query.parse_us_p50", Pct(span_us[SpanKind::kParse], 50), "us");
  add("query.restrict_us_p50", Pct(span_us[SpanKind::kRestrict], 50),
           "us");
  add("optimizer.self_us_p50", plan ? Pct(layer_us[kOptimizer], 50) : 0.0,
           "us");
  add("optimizer.cardfn_calls",
           static_cast<double>(span_us[SpanKind::kCardFn].size()) / n_ops,
           "count");
  add("exec.execute_us_p50", Pct(span_us[SpanKind::kExecute], 50), "us");
  add("exec.tuple_work", static_cast<double>(in.tuple_work) / n_ops,
           "count");
  add("exec.peak_intermediate", static_cast<double>(in.peak_intermediate),
           "count");
  add("setup.datagen_s", in.setup.datagen_s, "s");
  add("setup.label_s", in.setup.label_s, "s");
  add("setup.build_s", in.setup.build_s, "s");
  // Mean self time per op of every layer; with unattributed they sum to
  // latency_mean_us exactly.
  for (int l = 0; l < kNumLayers; ++l) {
    add(std::string("self.") + LayerName(l) + "_us_mean",
             MeanOf(layer_us[l]), "us");
  }
  add("latency_mean_us", latency_sum / n_ops, "us");
  add("unattributed_us_p50", Pct(layer_us[kUnattributed], 50), "us");
  double unattributed_sum = 0;
  for (double v : layer_us[kUnattributed]) unattributed_sum += v;
  add("unattributed_share",
           latency_sum > 0 ? unattributed_sum / latency_sum : 0.0, "ratio");
  add("trace_overhead_ratio",
      in.untraced_throughput > 0
          ? in.traced_throughput / in.untraced_throughput
          : 0.0,
      "ratio");
  return rep;
}

/// Spans written per client thread; the rest of a long traced phase is
/// summarized in the metrics only, to keep the file to tens of megabytes.
constexpr size_t kSpansWrittenPerThread = 100000;

/// Writes the traced phase's spans and flushes as tab-separated text.
void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs,
                const std::vector<Flush>& flushes) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "thread\top\tid\tparent\tname\tt0_ns\tt1_ns\n");
  int64_t last_t1 = INT64_MAX;  // flushes after the last written span are cut
  for (size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t]->spans();
    const size_t n = std::min(spans.size(), kSpansWrittenPerThread);
    if (n < spans.size()) last_t1 = std::min(last_t1, spans[n - 1].t1_ns);
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%llu\t%u\t%u\t%s\t%lld\t%lld\n", t,
                   static_cast<unsigned long long>(s.op), s.id, s.parent,
                   SpanKindName(s.kind), static_cast<long long>(s.t0_ns),
                   static_cast<long long>(s.t1_ns));
    }
  }
  for (const Flush& fl : flushes) {
    if (fl.t0_ns > last_t1) continue;
    std::fprintf(f, "-\t-\t-\t-\t%s\t%lld\t%lld\n",
                 fl.explain ? "ce.explain" : "ce.flush",
                 static_cast<long long>(fl.t0_ns),
                 static_cast<long long>(fl.t1_ns));
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Join(const std::vector<double>& v) {
  std::string s;
  for (double x : v) s += (s.empty() ? "" : ", ") + Num(x);
  return s;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (const Metric& m : metrics) {
    if (s.size() > 1) s += ", ";
    s += Quote(m.name) + ": {\"value\": " + Num(m.value) +
         ", \"unit\": " + Quote(m.unit) + "}";
  }
  return s + "}";
}

std::vector<std::string> LceEnvironment() {
  std::vector<std::string> out;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "LCE_", 4) == 0) out.push_back(*e);
  }
  std::sort(out.begin(), out.end());
  return out;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Sizes sz = Sizes::For(args.tiny);
  const bool plan = args.workload == "plan-exec";
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int clients = plan ? 1 : std::min(4, nproc);

  FlushLog flushes;
  std::unique_ptr<System> sys =
      Setup(args, sz, args.trace ? &flushes : nullptr);
  std::vector<double> setup_s = {sys->times.Total()};

  ServePool pool;
  std::unique_ptr<PlanPool> plan_pool;
  size_t plan_next = 0;
  if (plan) {
    plan_pool = std::make_unique<PlanPool>(args, *sys);
  } else {
    pool = MakeServePool(args, sz, *sys);
  }

  // Runs one phase and returns its verified outcome; the raw records of the
  // latest phase stay in serve_phase / plan_phase for the trace metrics.
  ServePhase serve_phase;
  PlanPhase plan_phase;
  auto run_phase = [&](double seconds, uint64_t phase_id, bool traced) {
    if (plan) {
      // Label enough queries up front that the timed loop rarely pauses.
      if (plan_phase.elapsed_s > 0) {
        const double expected = 1.25 * seconds *
                                static_cast<double>(plan_phase.ops.size()) /
                                plan_phase.elapsed_s;
        const size_t left = plan_pool->size() - plan_next;
        if (expected > static_cast<double>(left)) {
          plan_pool->Grow(static_cast<size_t>(expected) - left);
        }
      }
      plan_phase = RunPlanExec(sys.get(), plan_pool.get(), &plan_next, seconds,
                               phase_id, traced);
      return VerifyPlanExec(args, sys.get(), *plan_pool, plan_phase);
    }
    serve_phase = RunServe(args, sys.get(), pool, clients, seconds, phase_id,
                           traced, /*record=*/phase_id != kWarmupPhase);
    return VerifyServe(sys.get(), pool, serve_phase);
  };

  run_phase(std::min(kWarmupSeconds, args.seconds), kWarmupPhase, false);
  // Read before the measured phase, whose per-op records are the
  // benchmark's own memory and grow with throughput.
  const double peak_rss_mb =
      static_cast<double>(telemetry::PeakRssBytes()) / (1024.0 * 1024.0);
  const Outcome main = run_phase(args.seconds, kMeasuredPhase, false);
  const WindowStats win = Windowed(main);

  uint64_t attempted = main.attempted, failed = main.failed;
  std::vector<std::string> failures = main.failures;
  std::vector<Metric> layers;
  if (args.trace) {
    // The traced phase: wrapped models, the program's own metrics on (for
    // the StageTimer histograms), spans recorded around every call.
    sys->traced = true;
    RegisterBuild(sys.get(), sys->current_build);
    telemetry::MetricsRegistry::Global().ResetForTesting();
    telemetry::SetMetricsEnabledForTesting(1);
    const Outcome traced = run_phase(args.seconds, kTracedPhase, true);
    telemetry::FlushEventRings();
    attempted += traced.attempted;
    failed += traced.failed;
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());

    TraceInputs in;
    in.flushes = flushes.Drain();
    in.traced_throughput = Windowed(traced).throughput;
    in.untraced_throughput = win.throughput;
    in.setup = sys->times;
    if (plan) {
      in.logs.push_back(plan_phase.log.get());
      for (const PlanOp& op : plan_phase.ops) {
        for (const SubplanEstimate& e : op.subplans) {
          in.batch_sizes.push_back(e.batch);
          in.waits_us.push_back(e.wait_us);
        }
        in.tuple_work += op.tuple_work;
        in.peak_intermediate =
            std::max(in.peak_intermediate, op.peak_intermediate);
      }
    } else {
      for (const auto& l : serve_phase.logs) in.logs.push_back(l.get());
      for (const auto& client : serve_phase.serve_ops) {
        for (const ServeOp& op : client) {
          if (op.type == OpType::kEstimate && op.ok) {
            in.batch_sizes.push_back(op.batch);
            in.waits_us.push_back(op.wait_us);
          }
          if (op.type == OpType::kMalformed && !op.ok) ++in.rejected;
        }
      }
    }
    layers = TraceMetrics(args, in);
    telemetry::SetMetricsEnabledForTesting(-1);
    const std::string path =
        args.out_dir + "/spans-" + args.workload + ".tsv";
    WriteSpans(path, in.logs, in.flushes);
    std::printf("# spans: %s\n", path.c_str());
  }

  // More set-ups, so setup_s is a median. They run after the measurement,
  // so that peak_rss_mb sees one set-up, as a user's process would.
  const int repeats = args.trace ? 1 : sz.setup_repeats;
  for (int r = 1; r < repeats; ++r) {
    setup_s.push_back(Setup(args, sz, nullptr)->times.Total());
  }

  const double error_rate =
      static_cast<double>(main.failed) /
      static_cast<double>(std::max<uint64_t>(1, main.attempted));
  const std::vector<Metric> e2e = {
      {"throughput_ops", win.throughput, "ops/s"},
      {"latency_p50_us", win.p50_us, "us"},
      {"latency_p99_us", win.tail_us, "us"},
      {"success_rate", 1.0 - error_rate, "ratio"},
      {"setup_s", Pct(setup_s, 50), "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"qerr_p50", Pct(main.qerr, 50), "ratio"},
      {"qerr_p95", Pct(main.qerr, 95), "ratio"},
      // Serve workloads choose no plan: their plan regret is 1 by definition.
      {"p_error_mean", plan ? MeanOf(main.p_error) : 1.0, "ratio"},
  };

  // Report: workload properties, then every metric, then the JSON line.
  std::vector<std::pair<std::string, std::string>> props;
  auto prop = [&props](const char* key, std::string json) {
    props.emplace_back(key, std::move(json));
  };
  std::string lce_env, mix;
  for (const std::string& e : LceEnvironment()) {
    lce_env += (lce_env.empty() ? "" : ", ") + Quote(e);
  }
  for (const auto& [k, v] : main.mix) {
    mix += (mix.empty() ? "" : ", ") + Quote(k) + ": " +
           Num(static_cast<double>(v) / static_cast<double>(main.attempted));
  }
  prop("workload", Quote(args.workload));
  prop("seed", std::to_string(args.seed));
  prop("commit", Quote(args.commit));
  prop("nproc", std::to_string(nproc));
  prop("clients", std::to_string(clients));
  prop("seconds", Num(args.seconds));
  prop("tiny", args.tiny ? "true" : "false");
  prop("lce_env", "[" + lce_env + "]");
  prop("setup_s_all", "[" + Join(setup_s) + "]");
  prop("latency_samples", std::to_string(main.latency_us.size()));
  prop("min_window_samples", std::to_string(win.min_window_ops));
  prop("latency_tail_percentile", Num(win.tail_percentile));
  prop("whole_run_throughput",
       Num(static_cast<double>(main.attempted) / main.elapsed_s));
  const double whole_tail = TailPercentile(main.latency_us.size());
  prop("whole_run_p50_us", Num(Pct(main.latency_us, 50)));
  prop("whole_run_tail_percentile", Num(whole_tail));
  prop("whole_run_tail_us", Num(Pct(main.latency_us, whole_tail)));
  prop("window_throughput", "[" + Join(win.window_throughput) + "]");
  prop("window_p50_us", "[" + Join(win.window_p50_us) + "]");
  prop("window_tail_us", "[" + Join(win.window_tail_us) + "]");
  prop("qerr_samples", std::to_string(main.qerr.size()));
  prop("p_error_samples", std::to_string(main.p_error.size()));
  prop("repeat_share",
       Num(main.query_ops > 0
               ? static_cast<double>(main.query_ops - main.distinct_queries) /
                     static_cast<double>(main.query_ops)
               : 0.0));
  prop("op_mix", "{" + mix + "}");
  prop("tables_per_query", Num(main.tables_per_query));
  prop("subplans_per_query", Num(main.subplans_per_query));
  prop("error_rate", Num(error_rate));
  std::string line;
  for (const auto& [k, v] : props) {
    line += (line.empty() ? "" : ", ") + Quote(k) + ": " + v;
  }
  std::printf("# properties: {%s}\n", line.c_str());
  std::printf("# ops: attempted %llu, succeeded %llu, failed %llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(attempted - failed),
              static_cast<unsigned long long>(failed));
  for (const std::string& f : failures) {
    std::printf("# FAILED: %s\n", f.c_str());
  }
  for (const Metric& m : e2e) {
    std::printf("# e2e %-24s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : layers) {
    std::printf("# layer %-26s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(args.trace ? layers : e2e).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
