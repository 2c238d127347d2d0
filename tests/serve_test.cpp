// Estimation service: registry versioning and atomic swap, micro-batcher
// flush semantics (bypass, coalescing, max-batch cap, adaptive single-client
// fast path), and the SQL front end end-to-end — including that serving a
// query with batching on (FCN) and on the inline path (thread-safe LW-XGB,
// also across hot swaps) answers bit-identically to calling the estimator
// directly, that only wide weight-stream-bound models take the batched
// route, that registering new names under concurrent traffic never crashes
// a request, and that no route answers a non-finite or sub-1 estimate.

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/ce/factory.h"
#include "src/serve/batcher.h"
#include "src/serve/model_registry.h"
#include "src/serve/service.h"
#include "src/storage/datagen.h"
#include "src/util/telemetry/telemetry.h"
#include "src/workload/generator.h"

namespace lce {
namespace serve {
namespace {

/// Minimal built estimator answering a constant; lets registry/service tests
/// observe which model build served a request.
class ConstEstimator : public ce::Estimator {
 public:
  explicit ConstEstimator(double value) : value_(value) {}
  std::string Name() const override { return "Const"; }
  Status Build(const storage::Database&,
               const std::vector<query::LabeledQuery>&) override {
    return Status::OK();
  }
  double EstimateCardinality(const query::Query&) override { return value_; }
  uint64_t SizeBytes() const override { return sizeof(double); }

 private:
  double value_;
};

/// ConstEstimator that declares itself thread-safe, so the service answers
/// it inline instead of through the batcher.
class ThreadSafeConstEstimator : public ConstEstimator {
 public:
  using ConstEstimator::ConstEstimator;
  bool ThreadSafeEstimate() const override { return true; }
};

/// Thread-safe constant model with a batch pass, a chosen parameter size
/// and weight-stream flag; counts which pass answered.
class RoutedConstEstimator : public ThreadSafeConstEstimator {
 public:
  RoutedConstEstimator(uint64_t size_bytes, bool weight_stream_bound)
      : ThreadSafeConstEstimator(3.0),
        size_bytes_(size_bytes),
        weight_stream_bound_(weight_stream_bound) {}
  std::vector<double> EstimateBatch(
      const std::vector<query::Query>& queries) override {
    batch_calls++;
    return ConstEstimator::EstimateBatch(queries);
  }
  bool HasBatchEstimate() const override { return true; }
  bool WeightStreamBound() const override { return weight_stream_bound_; }
  uint64_t SizeBytes() const override { return size_bytes_; }

  std::atomic<int> batch_calls{0};

 private:
  uint64_t size_bytes_;
  bool weight_stream_bound_;
};

query::Query OneTableQuery() {
  query::Query q;
  q.tables = {0};
  return q;
}

TEST(ModelRegistryTest, RegisterBumpsVersionAndSwapsAtomically) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Get("fcn"), nullptr);

  EXPECT_EQ(registry.Register("fcn", std::make_shared<ConstEstimator>(1.0)),
            1u);
  std::shared_ptr<const ModelEntry> v1 = registry.Get("fcn");
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1u);

  EXPECT_EQ(registry.Register("fcn", std::make_shared<ConstEstimator>(2.0)),
            2u);
  // The held entry is untouched by the swap; new readers see the new build.
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(v1->estimator->EstimateCardinality(OneTableQuery()), 1.0);
  std::shared_ptr<const ModelEntry> v2 = registry.Get("fcn");
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(v2->version, 2u);
  EXPECT_EQ(v2->estimator->EstimateCardinality(OneTableQuery()), 2.0);
}

TEST(ModelRegistryTest, ListsEveryModelSorted) {
  ModelRegistry registry;
  registry.Register("mscn", std::make_shared<ConstEstimator>(1.0));
  registry.Register("fcn", std::make_shared<ConstEstimator>(1.0));
  registry.Register("fcn", std::make_shared<ConstEstimator>(2.0));
  auto models = registry.List();
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[0], (std::pair<std::string, uint64_t>{"fcn", 2}));
  EXPECT_EQ(models[1], (std::pair<std::string, uint64_t>{"mscn", 1}));
}

TEST(MicroBatcherTest, DisabledExecutesEveryRequestAlone) {
  BatcherOptions opts;
  opts.enabled = false;
  std::vector<size_t> batch_sizes;
  MicroBatcher batcher(opts, [&](const std::vector<query::Query>& queries,
                                 std::vector<double>* estimates,
                                 uint64_t* version) {
    batch_sizes.push_back(queries.size());
    estimates->assign(queries.size(), 5.0);
    *version = 7;
  });
  query::Query q = OneTableQuery();
  for (int i = 0; i < 3; ++i) {
    MicroBatcher::Ticket t = batcher.Submit(q);
    EXPECT_EQ(t.estimate, 5.0);
    EXPECT_EQ(t.model_version, 7u);
    EXPECT_EQ(t.batch_size, 1);
  }
  EXPECT_EQ(batch_sizes, (std::vector<size_t>{1, 1, 1}));
}

TEST(MicroBatcherTest, LoneClientDoesNotWaitOutTheDeadline) {
  BatcherOptions opts;
  opts.deadline_us = 5'000'000;  // 5s: a deadline wait would hang the test
  MicroBatcher batcher(opts, [&](const std::vector<query::Query>& queries,
                                 std::vector<double>* estimates,
                                 uint64_t* version) {
    estimates->assign(queries.size(), 1.0);
    *version = 1;
  });
  query::Query q = OneTableQuery();
  // The adaptive target sees one in-flight request already queued and
  // flushes immediately; finishing at all (within the test timeout) proves
  // the fast path.
  MicroBatcher::Ticket t = batcher.Submit(q);
  EXPECT_EQ(t.batch_size, 1);
}

TEST(MicroBatcherTest, CoalescesConcurrentClientsUpToMaxBatch) {
  BatcherOptions opts;
  opts.max_batch = 4;
  opts.deadline_us = 200'000;
  std::atomic<int> flushes{0};
  std::atomic<int> served{0};
  std::atomic<int> oversized{0};
  MicroBatcher batcher(opts, [&](const std::vector<query::Query>& queries,
                                 std::vector<double>* estimates,
                                 uint64_t* version) {
    flushes.fetch_add(1);
    served.fetch_add(static_cast<int>(queries.size()));
    if (queries.size() > 4) oversized.fetch_add(1);
    // Hold the flush briefly so the remaining clients pile up and the next
    // leader finds a full queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    estimates->assign(queries.size(), 3.0);
    *version = 1;
  });
  query::Query q = OneTableQuery();
  constexpr int kClients = 9;
  std::vector<std::thread> clients;
  std::vector<MicroBatcher::Ticket> tickets(kClients);
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] { tickets[i] = batcher.Submit(q); });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(served.load(), kClients);
  EXPECT_EQ(oversized.load(), 0) << "a flush exceeded max_batch";
  // 9 clients at max_batch 4 need at least 3 flushes; fewer than 9 proves
  // coalescing actually happened.
  EXPECT_GE(flushes.load(), 3);
  EXPECT_LT(flushes.load(), kClients);
  for (const MicroBatcher::Ticket& t : tickets) {
    EXPECT_EQ(t.estimate, 3.0);
    EXPECT_GE(t.batch_size, 1);
    EXPECT_LE(t.batch_size, 4);
  }
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = storage::datagen::Generate(storage::datagen::TpchLikeSpec(0.03), 1);
  }
  std::unique_ptr<storage::Database> db_;
};

TEST_F(ServiceTest, AnswersSqlWithModelAndVersion) {
  EstimationService service(db_.get());
  EXPECT_EQ(service.RegisterModel("fcn",
                                  std::make_shared<ConstEstimator>(42.0)),
            1u);
  auto resp = service.EstimateSql(
      "fcn", "SELECT COUNT(*) FROM customer WHERE customer.c_nationkey = 7;");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().estimate, 42.0);
  EXPECT_EQ(resp.value().model, "fcn");
  EXPECT_EQ(resp.value().model_version, 1u);
  EXPECT_GE(resp.value().batch_size, 1);
}

// Thread-safe models answer inline at any size unless they are
// weight-stream bound (the NN families); those batch above 1 MiB.
TEST_F(ServiceTest, OnlyWideWeightStreamBoundModelsBatch) {
  constexpr uint64_t kMiB = uint64_t{1} << 20;
  struct Case {
    uint64_t size;
    bool weight_stream_bound;
    bool batched;
  };
  for (const Case& c : {Case{kMiB, true, false}, Case{kMiB + 1, true, true},
                        Case{64 * kMiB, false, false}}) {
    auto model =
        std::make_shared<RoutedConstEstimator>(c.size, c.weight_stream_bound);
    EstimationService service(db_.get());
    service.RegisterModel("m", model);
    auto resp = service.Estimate("m", OneTableQuery());
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.value().estimate, 3.0);
    EXPECT_EQ(model->batch_calls.load() > 0, c.batched)
        << c.size << " bytes, weight-stream bound " << c.weight_stream_bound;
  }
}

TEST_F(ServiceTest, SwappedModelServesNextRequestAtNewVersion) {
  EstimationService service(db_.get());
  service.RegisterModel("fcn", std::make_shared<ConstEstimator>(1.0));
  service.RegisterModel("fcn", std::make_shared<ConstEstimator>(2.0));
  auto resp = service.EstimateSql("fcn", "SELECT COUNT(*) FROM customer;");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().estimate, 2.0);
  EXPECT_EQ(resp.value().model_version, 2u);
  auto models = service.ListModels();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].second, 2u);
}

TEST_F(ServiceTest, MalformedSqlReturnsStatusNotCrash) {
  EstimationService service(db_.get());
  service.RegisterModel("fcn", std::make_shared<ConstEstimator>(1.0));
  for (const char* sql :
       {"SELECT COUNT(*) FROM",                     // truncated
        "DROP TABLE customer;",                      // wrong statement
        "SELECT COUNT(*) FROM nope;",                // unknown table
        "SELECT COUNT(*) FROM customer WHERE "
        "customer.c_acctbal = 99999999999999999999;",  // overflow literal
        ""}) {
    auto resp = service.EstimateSql("fcn", sql);
    EXPECT_FALSE(resp.ok()) << sql;
    EXPECT_EQ(resp.status().code(), StatusCode::kInvalidArgument) << sql;
  }
}

TEST_F(ServiceTest, UnknownModelReturnsNotFound) {
  EstimationService service(db_.get());
  auto resp = service.EstimateSql("ghost", "SELECT COUNT(*) FROM customer;");
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kNotFound);
}

// A model's NaN or sub-1 answer is served as 1 and +inf as the largest
// finite double, on the inline route (thread-safe), the batched route and
// ExplainSql alike; every repair is counted, a valid answer is not.
TEST_F(ServiceTest, NonFiniteAndSubOneEstimatesAreRepairedAndCounted) {
  telemetry::SetMetricsEnabledForTesting(1);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  const struct {
    double raw;
    double served;
    uint64_t repairs;  // per request
  } cases[] = {{std::nan(""), 1.0, 1},
               {0.25, 1.0, 1},
               {kInf, kMax, 1},
               {-kInf, 1.0, 1},
               {1.0, 1.0, 0}};
  const std::string sql = "SELECT COUNT(*) FROM customer;";
  int id = 0;
  for (bool thread_safe : {false, true}) {
    for (const auto& c : cases) {
      const std::string name = "guard" + std::to_string(id++);
      EstimationService service(db_.get());
      service.RegisterModel(
          name, thread_safe
                    ? std::make_shared<ThreadSafeConstEstimator>(c.raw)
                    : std::make_shared<ConstEstimator>(c.raw));
      const telemetry::Counter& invalid =
          telemetry::MetricsRegistry::Global().counter(
              "serve." + name + ".invalid_estimates");
      const uint64_t before = invalid.Value();

      auto est = service.EstimateSql(name, sql);
      ASSERT_TRUE(est.ok()) << est.status().ToString();
      EXPECT_EQ(est.value().estimate, c.served)
          << c.raw << " thread_safe=" << thread_safe;
      auto direct = service.Estimate(name, OneTableQuery());
      ASSERT_TRUE(direct.ok());
      EXPECT_EQ(direct.value().estimate, c.served);
      auto explain = service.ExplainSql(name, sql);
      ASSERT_TRUE(explain.ok()) << explain.status().ToString();
      EXPECT_EQ(explain.value().response.estimate, c.served);
      EXPECT_EQ(explain.value().record.estimate, c.served);
      EXPECT_EQ(invalid.Value() - before, 3 * c.repairs)
          << c.raw << " thread_safe=" << thread_safe;
    }
  }
  telemetry::SetMetricsEnabledForTesting(-1);
}

TEST_F(ServiceTest, ExplainCarriesDiagnosticsAndMatchesEstimate) {
  EstimationService service(db_.get());
  service.RegisterModel("fcn", std::make_shared<ConstEstimator>(42.0));
  auto resp = service.ExplainSql(
      "fcn", "SELECT COUNT(*) FROM customer WHERE customer.c_nationkey = 7;");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().response.estimate, 42.0);
  EXPECT_EQ(resp.value().record.estimate, 42.0);
  EXPECT_EQ(resp.value().record.estimator, "Const");
  EXPECT_EQ(resp.value().record.num_tables, 1);
  EXPECT_EQ(resp.value().record.num_predicates, 1);
}

// End-to-end bit-identity: many clients hammering the service with batching
// on get exactly the answers a twin estimator gives query by query. An FCN
// this narrow answers on the caller's thread; nn_inference_test checks the
// batched route with a model over the inline limit.
TEST_F(ServiceTest, BatchedServingIsBitIdenticalToDirectCalls) {
  workload::WorkloadOptions wopts;
  wopts.max_joins = 2;
  workload::WorkloadGenerator gen(db_.get(), wopts);
  Rng rng(5);
  std::vector<query::LabeledQuery> train = gen.GenerateLabeled(200, &rng);
  std::vector<query::Query> test;
  for (const auto& lq : gen.GenerateLabeled(32, &rng)) test.push_back(lq.q);

  ce::NeuralOptions fast;
  fast.epochs = 4;
  fast.hidden_dim = 16;
  auto served = ce::MakeEstimator("FCN", fast, 11);
  auto reference = ce::MakeEstimator("FCN", fast, 11);
  ASSERT_TRUE(served->Build(*db_, train).ok());
  ASSERT_TRUE(reference->Build(*db_, train).ok());

  BatcherOptions opts;  // batching on, defaults
  EstimationService service(db_.get(), opts);
  service.RegisterModel("fcn", std::move(served));

  std::vector<double> expected;
  for (const query::Query& q : test) {
    expected.push_back(reference->EstimateCardinality(q));
  }

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<std::vector<double>> got(kClients,
                                       std::vector<double>(test.size()));
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < test.size(); ++i) {
        auto resp = service.Estimate("fcn", test[i]);
        ASSERT_TRUE(resp.ok());
        got[c][i] = resp.value().estimate;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < test.size(); ++i) {
      EXPECT_EQ(got[c][i], expected[i]) << "client " << c << " query " << i;
    }
  }
}

/// Two LW-XGB builds trained on disjoint workloads plus the SQL and parsed
/// queries they are asked about; the inline-path tests share this setup.
class InlineServingTest : public ServiceTest {
 protected:
  void SetUp() override {
    ServiceTest::SetUp();
    workload::WorkloadOptions wopts;
    wopts.max_joins = 2;
    workload::WorkloadGenerator gen(db_.get(), wopts);
    Rng rng(9);
    std::vector<query::LabeledQuery> train = gen.GenerateLabeled(300, &rng);
    for (const auto& lq : gen.GenerateLabeled(24, &rng)) {
      test_.push_back(lq.q);
      sql_.push_back(query::ToSql(lq.q, db_->schema()));
    }
    const std::vector<query::LabeledQuery> halves[2] = {
        {train.begin(), train.begin() + 150},
        {train.begin() + 150, train.end()}};
    for (int b = 0; b < 2; ++b) {
      builds_[b] = ce::MakeEstimator("LW-XGB");
      ASSERT_TRUE(builds_[b]->Build(*db_, halves[b]).ok());
      ASSERT_TRUE(builds_[b]->ThreadSafeEstimate());
      // A twin answers the reference, so served traffic never touches it.
      std::unique_ptr<ce::Estimator> twin = ce::MakeEstimator("LW-XGB");
      ASSERT_TRUE(twin->Build(*db_, halves[b]).ok());
      for (const query::Query& q : test_) {
        expected_[b].push_back(twin->EstimateCardinality(q));
      }
    }
  }

  std::vector<query::Query> test_;
  std::vector<std::string> sql_;
  std::shared_ptr<ce::Estimator> builds_[2];
  std::vector<double> expected_[2];
};

// Thread-safe models skip the batcher: concurrent clients get the twin's
// per-query answers bit for bit, each in a batch of one with no queue wait,
// and ExplainSql agrees with Estimate on the same model.
TEST_F(InlineServingTest, ConcurrentClientsAreAnsweredInlineAndBitIdentical) {
  EstimationService service(db_.get());  // batching on
  service.RegisterModel("xgb", builds_[0]);

  constexpr int kClients = 8;
  constexpr int kExplainers = 2;
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  std::atomic<int> batched{0};
  for (int c = 0; c < kClients + kExplainers; ++c) {
    clients.emplace_back([&, c] {
      for (int rep = 0; rep < 4; ++rep) {
        for (size_t i = 0; i < test_.size(); ++i) {
          if (c >= kClients) {
            auto resp = service.ExplainSql("xgb", sql_[i]);
            if (!resp.ok() ||
                resp.value().response.estimate != expected_[0][i] ||
                resp.value().record.estimate != expected_[0][i]) {
              mismatches.fetch_add(1);
            }
            continue;
          }
          auto resp = service.Estimate("xgb", test_[i]);
          if (!resp.ok() || resp.value().estimate != expected_[0][i] ||
              resp.value().model_version != 1u) {
            mismatches.fetch_add(1);
          } else if (resp.value().batch_size != 1 ||
                     resp.value().queue_wait_us != 0.0) {
            batched.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(batched.load(), 0) << "a thread-safe model was batched";
}

// Hot swaps under inline traffic: every answer equals the reference of the
// build whose version it reports (odd versions are build 0, even build 1).
TEST_F(InlineServingTest, HotSwapAnswersMatchTheVersionThatServed) {
  size_t differing = 0;
  for (size_t i = 0; i < test_.size(); ++i) {
    differing += expected_[0][i] != expected_[1][i];
  }
  ASSERT_GT(differing, 0u) << "the two builds must disagree somewhere";

  EstimationService service(db_.get());
  service.RegisterModel("xgb", builds_[0]);
  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    for (int v = 2; !stop.load(); ++v) {
      service.RegisterModel("xgb", builds_[(v - 1) % 2]);
      std::this_thread::yield();
    }
  });

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  std::atomic<int> served[2] = {0, 0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      // At least 20 passes, and on until both builds have answered: an
      // inline estimate takes a few microseconds, so on a loaded host the
      // 20 passes can end before the swapper is first scheduled.
      auto both_served = [&] {
        return served[0].load() > 0 && served[1].load() > 0;
      };
      for (int rep = 0; rep < 20 || (rep < 20000 && !both_served()); ++rep) {
        for (size_t i = 0; i < test_.size(); ++i) {
          auto resp = service.Estimate("xgb", test_[i]);
          if (!resp.ok()) {
            mismatches.fetch_add(1);
            continue;
          }
          const int b = static_cast<int>((resp.value().model_version - 1) % 2);
          served[b].fetch_add(1);
          if (resp.value().estimate != expected_[b][i]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop.store(true);
  swapper.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(served[0].load(), 0);
  EXPECT_GT(served[1].load(), 0);
}

// A brand-new name is published in two steps (runtime state, then registry
// entry). Requests racing the registration must see NotFound or a full
// answer — never abort — on both the batched and the inline route.
TEST_F(ServiceTest, RegisteringNewNamesUnderTrafficNeverCrashes) {
  EstimationService service(db_.get());
  constexpr int kNames = 20000;  // the race window is sub-microsecond
  std::atomic<int> registering{0};  // index of the name being registered
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::atomic<int> answered{0};
  const query::Query q = OneTableQuery();

  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!done.load()) {
        const int i = registering.load();
        const std::string name = "m" + std::to_string(i);
        const double want = i % 2 == 0 ? 2.0 : 3.0;
        Status status;
        double got = want;
        if (r % 2 == 0) {
          auto resp = service.Estimate(name, q);
          status = resp.status();
          if (resp.ok()) got = resp.value().estimate;
        } else {
          auto resp =
              service.ExplainSql(name, "SELECT COUNT(*) FROM customer;");
          status = resp.status();
          if (resp.ok()) got = resp.value().response.estimate;
        }
        if (status.ok()) {
          answered.fetch_add(1);
          if (got != want) bad.fetch_add(1);
        } else if (status.code() != StatusCode::kNotFound) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < kNames; ++i) {
    registering.store(i);
    const std::string name = "m" + std::to_string(i);
    if (i % 2 == 0) {
      service.RegisterModel(name, std::make_shared<ConstEstimator>(2.0));
    } else {
      service.RegisterModel(name,
                            std::make_shared<ThreadSafeConstEstimator>(3.0));
    }
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(service.ListModels().size(), static_cast<size_t>(kNames));
}

}  // namespace
}  // namespace serve
}  // namespace lce
