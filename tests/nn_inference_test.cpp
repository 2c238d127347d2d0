// Inference purity of the six neural families (Linear, FCN, FCN+Pool, MSCN,
// RNN, LSTM): an estimate reads the model and nothing else. The const
// inference pass (ForwardBatch) answers bit-identically to the training
// step's predictions, alone and inside a batch; concurrent, shuffled
// traffic mixing every inference entry point answers bit-identically to a
// sequential twin; serving inference between training steps leaves
// incremental training unchanged; and the service answers narrow models on
// the caller's thread while a model wider than the inline limit still
// coalesces in the micro-batcher, with the same answers.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/ce/factory.h"
#include "src/ce/query_driven/flat_models.h"
#include "src/ce/query_driven/recurrent_models.h"
#include "src/ce/query_driven/set_models.h"
#include "src/nn/mlp.h"
#include "src/serve/service.h"
#include "src/storage/datagen.h"
#include "src/workload/generator.h"

namespace lce {
namespace ce {
namespace {

struct Env {
  std::unique_ptr<storage::Database> db;
  std::vector<query::LabeledQuery> train;
  std::vector<query::LabeledQuery> update;
  std::vector<query::Query> test;
};

const Env& SharedEnv() {
  static Env* env = [] {
    auto* e = new Env();
    e->db = storage::datagen::Generate(storage::datagen::TpchLikeSpec(0.03), 5);
    workload::WorkloadOptions opts;
    opts.max_joins = 2;
    workload::WorkloadGenerator gen(e->db.get(), opts);
    Rng rng(6);
    e->train = gen.GenerateLabeled(150, &rng);
    e->update = gen.GenerateLabeled(40, &rng);
    for (const auto& lq : gen.GenerateLabeled(200, &rng)) {
      e->test.push_back(lq.q);
    }
    return e;
  }();
  return *env;
}

NeuralOptions Fast() {
  NeuralOptions o;
  o.epochs = 2;
  o.update_epochs = 2;
  o.hidden_dim = 16;
  return o;
}

std::unique_ptr<NeuralQueryDrivenEstimator> BuildModel(
    const std::string& name, const NeuralOptions& options) {
  std::unique_ptr<Estimator> est = MakeEstimator(name, options, 21);
  auto* neural = dynamic_cast<NeuralQueryDrivenEstimator*>(est.get());
  if (neural == nullptr) return nullptr;
  est.release();
  std::unique_ptr<NeuralQueryDrivenEstimator> model(neural);
  const Env& env = SharedEnv();
  if (!model->Build(*env.db, env.train).ok()) return nullptr;
  return model;
}

std::string Weights(NeuralQueryDrivenEstimator* model) {
  std::stringstream buffer;
  EXPECT_TRUE(model->SaveModel(&buffer).ok());
  return buffer.str();
}

class NnInferenceTest : public ::testing::TestWithParam<std::string> {};

// Four threads ask the same 200 queries in their own shuffled orders,
// through EstimateCardinality, EstimateWithDiagnostics and small
// EstimateBatch calls in turn. Every answer equals the sequential twin's.
TEST_P(NnInferenceTest, ConcurrentShuffledTrafficMatchesSequentialTwin) {
  const Env& env = SharedEnv();
  auto served = BuildModel(GetParam(), Fast());
  auto twin = BuildModel(GetParam(), Fast());
  ASSERT_NE(served, nullptr);
  ASSERT_NE(twin, nullptr);
  ASSERT_TRUE(served->ThreadSafeEstimate());

  const size_t n = env.test.size();
  std::vector<double> expected;
  std::vector<double> expected_feat_l2;
  for (const query::Query& q : env.test) {
    expected.push_back(twin->EstimateCardinality(q));
    ExplainRecord rec;
    twin->EstimateWithDiagnostics(q, &rec);
    for (const auto& [name, value] : rec.counters) {
      if (name == "feat_l2") expected_feat_l2.push_back(value);
    }
  }
  ASSERT_EQ(expected_feat_l2.size(), n);

  constexpr int kThreads = 4;
  constexpr size_t kBatch = 5;
  std::vector<std::vector<double>> got(kThreads, std::vector<double>(n, -1));
  std::atomic<int> bad_diagnostics{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<int> order(n);
      for (size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
      Rng rng(100 + t);
      rng.Shuffle(&order);
      size_t pos = 0;
      for (int step = t; pos < n; ++step) {
        const int i = order[pos];
        switch (step % 3) {
          case 0:
            got[t][i] = served->EstimateCardinality(env.test[i]);
            ++pos;
            break;
          case 1: {
            ExplainRecord rec;
            got[t][i] = served->EstimateWithDiagnostics(env.test[i], &rec);
            bool l2_ok = false;
            for (const auto& [name, value] : rec.counters) {
              if (name == "feat_l2") l2_ok = value == expected_feat_l2[i];
            }
            if (!l2_ok || rec.estimate != got[t][i]) bad_diagnostics++;
            ++pos;
            break;
          }
          default: {
            const size_t end = std::min(n, pos + kBatch);
            std::vector<query::Query> batch;
            for (size_t p = pos; p < end; ++p) {
              batch.push_back(env.test[order[p]]);
            }
            std::vector<double> out = served->EstimateBatch(batch);
            for (size_t p = pos; p < end; ++p) {
              got[t][order[p]] = out[p - pos];
            }
            pos = end;
            break;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(bad_diagnostics.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[t][i], expected[i])
          << GetParam() << " thread " << t << " query " << i;
    }
  }
}

// Inference between training runs must not leave a trace: after the same
// UpdateWithQueries, a twin that served traffic and one that did not hold
// bitwise-equal parameters.
TEST_P(NnInferenceTest, InferenceLeavesIncrementalTrainingUnchanged) {
  const Env& env = SharedEnv();
  auto idle = BuildModel(GetParam(), Fast());
  auto busy = BuildModel(GetParam(), Fast());
  ASSERT_NE(idle, nullptr);
  ASSERT_NE(busy, nullptr);
  ASSERT_EQ(Weights(idle.get()), Weights(busy.get()));

  busy->EstimateBatch(env.test);
  for (const query::Query& q : env.test) {
    busy->EstimateCardinality(q);
    ExplainRecord rec;
    busy->EstimateWithDiagnostics(q, &rec);
  }

  ASSERT_TRUE(idle->UpdateWithQueries(env.update).ok());
  ASSERT_TRUE(busy->UpdateWithQueries(env.update).ok());
  EXPECT_EQ(Weights(idle.get()), Weights(busy.get())) << GetParam();
  EXPECT_EQ(idle->epoch_losses(), busy->epoch_losses());
}

INSTANTIATE_TEST_SUITE_P(
    AllNeuralFamilies, NnInferenceTest,
    ::testing::ValuesIn(QueryDrivenNeuralNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// Opens a family's training step and its inference pass to the test.
template <typename Model>
class ForwardPeer : public Model {
 public:
  using typename Model::FeatureStats;
  using Model::FlatStats;
  using Model::ForwardBatch;
  using Model::Model;
  using Model::TrainStep;

  /// The predictions a training step makes for `queries`, in order (with
  /// zero loss gradients, so the parameters' gradients keep their values).
  std::vector<float> TrainPredictions(std::span<const query::Query> queries) {
    std::vector<const query::Query*> batch;
    for (const query::Query& q : queries) batch.push_back(&q);
    std::vector<float> preds(queries.size());
    this->TrainStep(batch, [&preds](int i, float pred) {
      preds[i] = pred;
      return 0.0f;
    });
    return preds;
  }
};

template <typename Peer>
class ForwardContractTest : public ::testing::Test {};

using AllFamilies =
    ::testing::Types<ForwardPeer<LinearEstimator>, ForwardPeer<FcnEstimator>,
                     ForwardPeer<FcnPoolEstimator>, ForwardPeer<MscnEstimator>,
                     ForwardPeer<RnnEstimator>, ForwardPeer<LstmEstimator>>;
struct FamilyName {
  template <typename Peer>
  static std::string GetName(int) {
    std::string name = Peer(NeuralOptions{}).Name();
    for (char& c : name) {
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    }
    return name;
  }
};
TYPED_TEST_SUITE(ForwardContractTest, AllFamilies, FamilyName);

// ForwardBatch writes exactly the prediction the training step makes, bit
// for bit: for a query alone, and for the same query at every position of a
// full batch, a reversed batch and odd-sized chunks. The training step
// predicts a query alike alone and inside its full minibatch. An explain's
// feature stats equal those of a fresh flat encoding.
TYPED_TEST(ForwardContractTest, ForwardBatchMatchesTrainStepBitwise) {
  const Env& env = SharedEnv();
  TypeParam model(Fast());
  ASSERT_TRUE(model.Build(*env.db, env.train).ok());
  const std::vector<query::Query>& qs = env.test;
  const size_t n = qs.size();

  std::vector<uint32_t> want(n);
  for (size_t i = 0; i < n; ++i) {
    want[i] = std::bit_cast<uint32_t>(model.TrainPredictions({&qs[i], 1})[0]);
  }
  const std::vector<float> stacked = model.TrainPredictions(qs);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(stacked[i]), want[i])
        << model.Name() << " query " << i << " in a training minibatch";
  }
  for (size_t i = 0; i < n; ++i) {
    float alone;
    typename TypeParam::FeatureStats stats;
    model.ForwardBatch({&qs[i], 1}, &alone, &stats);
    ASSERT_EQ(std::bit_cast<uint32_t>(alone), want[i])
        << model.Name() << " query " << i << " alone";
    const typename TypeParam::FeatureStats flat = model.FlatStats(qs[i]);
    EXPECT_EQ(stats.dim, flat.dim) << model.Name() << " query " << i;
    EXPECT_EQ(stats.nonzeros, flat.nonzeros) << model.Name() << " query " << i;
    EXPECT_EQ(stats.l2, flat.l2) << model.Name() << " query " << i;
  }

  std::vector<float> out(n);
  model.ForwardBatch(qs, out.data(), nullptr);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(out[i]), want[i])
        << model.Name() << " query " << i << " in the full batch";
  }
  const std::vector<query::Query> reversed(qs.rbegin(), qs.rend());
  model.ForwardBatch(reversed, out.data(), nullptr);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(out[n - 1 - i]), want[i])
        << model.Name() << " query " << i << " in the reversed batch";
  }
  constexpr size_t kChunk = 7;
  for (size_t start = 0; start < n; start += kChunk) {
    const size_t len = std::min(kChunk, n - start);
    model.ForwardBatch({qs.data() + start, len}, out.data(), nullptr);
    for (size_t i = 0; i < len; ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(out[i]), want[start + i])
          << model.Name() << " query " << start + i << " in a chunk";
    }
  }
}

TEST(NnInferenceKernelTest, MlpInferIntoMatchesForwardBitwise) {
  Rng rng(3);
  nn::Mlp mlp({7, 33, 17, 1}, nn::Activation::kRelu,
              nn::Activation::kSigmoid, &rng);
  nn::Matrix out;  // reused across shapes, largest first
  for (int rows : {9, 4, 1}) {
    nn::Matrix x = nn::Matrix::Randn(rows, 7, 1.0f, &rng);
    nn::Matrix want = mlp.Forward(x);
    mlp.InferInto(x, &out);
    ASSERT_EQ(out.rows(), rows);
    EXPECT_EQ(out.ToFlat(), want.ToFlat()) << rows << " rows";
  }
}

// Routing: a thread-safe model within the inline limit is answered on the
// caller's thread; one over it keeps coalescing in the micro-batcher. Both
// routes answer exactly as a twin asked query by query.
class NnRoutingTest : public ::testing::Test {
 protected:
  // 4 clients, each asking every test query once; returns the mean flush
  // size its answers report, and counts answers that were not inline or
  // that differ from `expected`.
  double Serve(const std::string& model, serve::EstimationService* service,
               const std::vector<double>& expected, int* batched,
               int* mismatched) {
    const Env& env = SharedEnv();
    constexpr int kClients = 4;
    std::atomic<long> batch_sum{0};
    std::atomic<long> answers{0};
    std::atomic<int> not_inline{0};
    std::atomic<int> wrong{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        for (size_t i = 0; i < env.test.size(); ++i) {
          auto resp = service->Estimate(model, env.test[i]);
          if (!resp.ok()) {
            wrong++;
            continue;
          }
          batch_sum += resp.value().batch_size;
          answers++;
          if (resp.value().batch_size != 1 ||
              resp.value().queue_wait_us != 0.0) {
            not_inline++;
          }
          if (resp.value().estimate != expected[i]) wrong++;
        }
      });
    }
    for (std::thread& t : clients) t.join();
    *batched = not_inline.load();
    *mismatched = wrong.load();
    return answers.load() > 0
               ? static_cast<double>(batch_sum.load()) / answers.load()
               : 0.0;
  }
};

TEST_F(NnRoutingTest, NarrowMscnAnswersInline) {
  const Env& env = SharedEnv();
  std::shared_ptr<Estimator> served = BuildModel("MSCN", Fast());
  auto twin = BuildModel("MSCN", Fast());
  ASSERT_NE(served, nullptr);
  ASSERT_NE(twin, nullptr);
  ASSERT_LT(served->SizeBytes(), uint64_t{1} << 20);
  std::vector<double> expected;
  for (const query::Query& q : env.test) {
    expected.push_back(twin->EstimateCardinality(q));
  }

  serve::EstimationService service(env.db.get());  // batching on
  service.RegisterModel("mscn", served);
  int batched = 0, mismatched = 0;
  const double mean_batch =
      Serve("mscn", &service, expected, &batched, &mismatched);
  EXPECT_EQ(mean_batch, 1.0);
  EXPECT_EQ(batched, 0) << "a narrow model went through the batcher";
  EXPECT_EQ(mismatched, 0);
}

TEST_F(NnRoutingTest, ModelOverTheInlineLimitStillBatches) {
  const Env& env = SharedEnv();
  NeuralOptions wide = Fast();
  wide.epochs = 1;
  wide.hidden_dim = 640;
  std::shared_ptr<Estimator> served = BuildModel("FCN", wide);
  auto twin = BuildModel("FCN", wide);
  ASSERT_NE(served, nullptr);
  ASSERT_NE(twin, nullptr);
  ASSERT_TRUE(served->ThreadSafeEstimate());
  ASSERT_GT(served->SizeBytes(), uint64_t{1} << 20);
  std::vector<double> expected;
  for (const query::Query& q : env.test) {
    expected.push_back(twin->EstimateCardinality(q));
  }

  serve::BatcherOptions opts;
  opts.deadline_us = 2000;  // room for the 4 clients to meet on slow hosts
  serve::EstimationService service(env.db.get(), opts);
  service.RegisterModel("wide", served);
  int batched = 0, mismatched = 0;
  const double mean_batch =
      Serve("wide", &service, expected, &batched, &mismatched);
  EXPECT_EQ(mismatched, 0);
  EXPECT_GT(mean_batch, 1.0);
}

}  // namespace
}  // namespace ce
}  // namespace lce
