// Training-dynamics and serialization tests of the NN substrate, and the
// minibatch training step of the six neural estimator families.

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/ce/query_driven/flat_models.h"
#include "src/ce/query_driven/recurrent_models.h"
#include "src/ce/query_driven/set_models.h"
#include "src/nn/adam.h"
#include "src/nn/loss.h"
#include "src/nn/mlp.h"
#include "src/nn/serialize.h"
#include "src/storage/datagen.h"
#include "src/util/parallel.h"
#include "src/workload/generator.h"

namespace lce {
namespace nn {
namespace {

TEST(TrainingTest, MlpFitsQuadratic) {
  Rng rng(1);
  Mlp mlp({1, 16, 16, 1}, Activation::kRelu, Activation::kIdentity, &rng);
  Adam adam(5e-3f);
  // y = x^2 on [-1, 1].
  auto batch = [&](int n, Matrix* x, std::vector<float>* t) {
    *x = Matrix(n, 1);
    t->resize(n);
    for (int i = 0; i < n; ++i) {
      float v = static_cast<float>(rng.Uniform(-1, 1));
      x->At(i, 0) = v;
      (*t)[i] = v * v;
    }
  };
  double first_loss = 0, last_loss = 0;
  for (int step = 0; step < 800; ++step) {
    Matrix x;
    std::vector<float> t;
    batch(32, &x, &t);
    Matrix y = mlp.Forward(x);
    LossResult lr = ComputeLoss(LossKind::kMse, y, t);
    if (step == 0) first_loss = lr.loss;
    last_loss = lr.loss;
    mlp.Backward(x, lr.grad);
    adam.Step(mlp.Params());
  }
  EXPECT_LT(last_loss, first_loss * 0.1);
  EXPECT_LT(last_loss, 0.01);
}

TEST(TrainingTest, AdamZeroesGradientsAfterStep) {
  Rng rng(2);
  Mlp mlp({2, 3, 1}, Activation::kTanh, Activation::kIdentity, &rng);
  Matrix x = Matrix::Randn(4, 2, 1.0f, &rng);
  Matrix y = mlp.Forward(x);
  Matrix ones(4, 1, 1.0f);
  mlp.Backward(x, ones);
  Adam adam(1e-3f);
  adam.Step(mlp.Params());
  for (Param* p : mlp.Params()) {
    for (float g : p->grad.ToFlat()) EXPECT_FLOAT_EQ(g, 0.0f);
  }
}

TEST(TrainingTest, AdamStepChangesParameters) {
  Rng rng(3);
  Mlp mlp({2, 3, 1}, Activation::kTanh, Activation::kIdentity, &rng);
  std::vector<float> before;
  for (Param* p : mlp.Params()) {
    std::vector<float> flat = p->value.ToFlat();
    before.insert(before.end(), flat.begin(), flat.end());
  }
  Matrix x = Matrix::Randn(4, 2, 1.0f, &rng);
  mlp.Forward(x);
  Matrix ones(4, 1, 1.0f);
  mlp.Backward(x, ones);
  Adam adam(1e-2f);
  adam.Step(mlp.Params());
  std::vector<float> after;
  for (Param* p : mlp.Params()) {
    std::vector<float> flat = p->value.ToFlat();
    after.insert(after.end(), flat.begin(), flat.end());
  }
  EXPECT_NE(before, after);
}

TEST(SerializeTest, RoundTripRestoresOutputs) {
  Rng rng(4);
  Mlp source({3, 8, 1}, Activation::kRelu, Activation::kSigmoid, &rng);
  Matrix x = Matrix::Randn(5, 3, 1.0f, &rng);
  Matrix y_before = source.Forward(x);

  std::stringstream buffer;
  SaveParams(source.Params(), &buffer);

  Rng rng2(999);  // different init
  Mlp restored({3, 8, 1}, Activation::kRelu, Activation::kSigmoid, &rng2);
  ASSERT_TRUE(LoadParams(restored.Params(), &buffer).ok());
  Matrix y_after = restored.Forward(x);
  std::vector<float> flat_before = y_before.ToFlat();
  std::vector<float> flat_after = y_after.ToFlat();
  for (size_t i = 0; i < flat_before.size(); ++i) {
    EXPECT_FLOAT_EQ(flat_before[i], flat_after[i]);
  }
}

TEST(SerializeTest, LoadRejectsShapeMismatch) {
  Rng rng(5);
  Mlp a({3, 4, 1}, Activation::kRelu, Activation::kIdentity, &rng);
  Mlp b({3, 5, 1}, Activation::kRelu, Activation::kIdentity, &rng);
  std::stringstream buffer;
  SaveParams(a.Params(), &buffer);
  EXPECT_FALSE(LoadParams(b.Params(), &buffer).ok());
}

TEST(SerializeTest, LoadRejectsTruncatedStream) {
  Rng rng(6);
  Mlp a({3, 4, 1}, Activation::kRelu, Activation::kIdentity, &rng);
  std::stringstream buffer;
  SaveParams(a.Params(), &buffer);
  std::string data = buffer.str();
  std::stringstream truncated(data.substr(0, data.size() / 2));
  EXPECT_FALSE(LoadParams(a.Params(), &truncated).ok());
}

TEST(SerializeTest, ParamBytesCountsFloats) {
  Rng rng(7);
  Mlp mlp({2, 3, 1}, Activation::kRelu, Activation::kIdentity, &rng);
  // (2*3 + 3) + (3*1 + 1) = 13 floats.
  EXPECT_EQ(ParamBytes(mlp.Params()), 13 * sizeof(float));
  EXPECT_EQ(mlp.NumParams(), 13u);
}

}  // namespace
}  // namespace nn

namespace ce {
namespace {

// Opens a family's training step and parameters to the test.
template <typename Model>
class StepPeer : public Model {
 public:
  using Model::Model;
  using Model::Params;
  using Model::TrainStep;
};

template <typename Peer>
class TrainStepTest : public ::testing::Test {};

using AllFamilies =
    ::testing::Types<StepPeer<LinearEstimator>, StepPeer<FcnEstimator>,
                     StepPeer<FcnPoolEstimator>, StepPeer<MscnEstimator>,
                     StepPeer<RnnEstimator>, StepPeer<LstmEstimator>>;
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
TYPED_TEST_SUITE(TrainStepTest, AllFamilies, FamilyName);

struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::SetThreadCountForTesting(0); }
};

// Bits of every prediction and every parameter gradient of one run.
struct StepBits {
  std::vector<uint32_t> preds;
  std::vector<uint32_t> grads;
};

// Sets every gradient to the same nonzero pattern, then trains on `queries`
// in steps of `step` queries (no optimizer step). The starting pattern makes
// the order of additions visible: summing a minibatch's rows into one
// partial before adding it would round differently from adding one sample
// at a time. The loss gradient depends on the query's position in `queries`
// and on its prediction, so a stacked step and single-query steps feed every
// sample the same gradient.
template <typename Peer>
StepBits RunSteps(Peer* model, const std::vector<const query::Query*>& queries,
                  size_t step) {
  for (nn::Param* p : model->Params()) {
    for (int r = 0; r < p->grad.rows(); ++r) {
      for (int c = 0; c < p->grad.cols(); ++c) {
        p->grad.At(r, c) = 1e-3f * static_cast<float>((r * 7 + c) % 11 - 5);
      }
    }
  }
  StepBits bits;
  bits.preds.resize(queries.size());
  const float scale = 1.0f / static_cast<float>(queries.size());
  for (size_t start = 0; start < queries.size(); start += step) {
    const size_t len = std::min(step, queries.size() - start);
    model->TrainStep({queries.data() + start, len}, [&](int i, float pred) {
      const size_t sample = start + static_cast<size_t>(i);
      bits.preds[sample] = std::bit_cast<uint32_t>(pred);
      return (pred - 0.25f - 0.005f * static_cast<float>(sample)) * scale;
    });
  }
  for (nn::Param* p : model->Params()) {
    for (float g : p->grad.ToFlat()) {
      bits.grads.push_back(std::bit_cast<uint32_t>(g));
    }
  }
  return bits;
}

// A minibatch step accumulates exactly the in-order fold of single-query
// steps: same predictions, same gradient bits. Checked for a full minibatch
// and a short final one of ragged queries (1-3 tables, varying joins and
// predicates), at 1 and 4 threads, and the bits agree across thread counts.
TYPED_TEST(TrainStepTest, MinibatchStepEqualsFoldOfSingleQueryStepsBitwise) {
  auto db = storage::datagen::Generate(storage::datagen::TpchLikeSpec(0.03), 5);
  workload::WorkloadOptions wopts;
  wopts.max_joins = 2;
  workload::WorkloadGenerator gen(db.get(), wopts);
  Rng rng(6);
  const std::vector<query::LabeledQuery> train = gen.GenerateLabeled(150, &rng);
  NeuralOptions options;
  options.epochs = 1;
  options.hidden_dim = 128;  // wide enough that 4 threads fan kernels out
  TypeParam model(options);
  ASSERT_TRUE(model.Build(*db, train).ok());

  std::vector<const query::Query*> all;
  size_t min_preds = 100, max_preds = 0, min_tables = 100, max_tables = 0;
  for (const query::LabeledQuery& lq : train) {
    all.push_back(&lq.q);
    min_preds = std::min(min_preds, lq.q.predicates.size());
    max_preds = std::max(max_preds, lq.q.predicates.size());
    min_tables = std::min(min_tables, lq.q.tables.size());
    max_tables = std::max(max_tables, lq.q.tables.size());
  }
  ASSERT_LT(min_preds, max_preds);
  ASSERT_LT(min_tables, max_tables);

  ThreadCountGuard guard;
  // 150 queries in minibatches of 64: two full ones, then 22.
  for (size_t len : {size_t{64}, size_t{22}}) {
    const std::vector<const query::Query*> batch(all.end() - len, all.end());
    std::vector<uint32_t> first_grads;
    for (int threads : {1, 4}) {
      parallel::SetThreadCountForTesting(threads);
      const StepBits stacked = RunSteps(&model, batch, len);
      const StepBits folded = RunSteps(&model, batch, 1);
      EXPECT_EQ(stacked.preds, folded.preds)
          << model.Name() << " " << len << " queries, " << threads
          << " threads";
      ASSERT_EQ(stacked.grads, folded.grads)
          << model.Name() << " " << len << " queries, " << threads
          << " threads";
      EXPECT_TRUE(std::any_of(stacked.grads.begin(), stacked.grads.end(),
                              [](uint32_t g) { return (g << 1) != 0; }))
          << "all gradients are zero";
      if (first_grads.empty()) {
        first_grads = stacked.grads;
      } else {
        EXPECT_EQ(stacked.grads, first_grads) << model.Name() << " threads";
      }
    }
  }
}

}  // namespace
}  // namespace ce
}  // namespace lce
