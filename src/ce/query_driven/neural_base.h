// Shared training/inference plumbing of the six query-driven neural
// estimators (Linear, FCN, FCN+Pool, MSCN, RNN, LSTM).
//
// The base class owns the encoder snapshot, label normalization, the Adam
// loop (minibatches, fixed epochs, deterministic shuffling, the loss) and
// incremental updates; subclasses provide one minibatch training step, one
// const inference pass, and their parameter list. All models emit a sigmoid
// output interpreted as normalized log-cardinality, following the standard
// query-driven recipe.
//
// Inference never writes the model: every estimate goes through the const
// ForwardBatch, whose scratch is thread-local, so the families declare
// ThreadSafeEstimate(). Training (Build, UpdateWithQueries) writes the
// training caches and must not overlap inference on the same instance.

#ifndef LCE_CE_QUERY_DRIVEN_NEURAL_BASE_H_
#define LCE_CE_QUERY_DRIVEN_NEURAL_BASE_H_

#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "src/ce/estimator.h"
#include "src/nn/adam.h"
#include "src/nn/loss.h"
#include "src/query/encoder.h"
#include "src/util/rng.h"

namespace lce {
namespace ce {

struct NeuralOptions {
  int hidden_dim = 64;
  int num_hidden_layers = 2;
  int epochs = 30;
  int batch_size = 64;
  float learning_rate = 1e-3f;
  nn::LossKind loss = nn::LossKind::kLogQ;
  /// Epochs used by UpdateWithQueries (incremental training).
  int update_epochs = 8;
  uint64_t seed = 42;
  /// Flat-encoding variant (FCN family only; the R12 ablation knob).
  query::FlatVariant flat_variant = query::FlatVariant::kFull;
  /// MSCN bitmap width.
  int mscn_sample_size = 64;
};

class NeuralQueryDrivenEstimator : public Estimator {
 public:
  explicit NeuralQueryDrivenEstimator(NeuralOptions options)
      : options_(options) {}

  Status Build(const storage::Database& db,
               const std::vector<query::LabeledQuery>& training) override;
  /// ForwardBatch over the one query, then the clamp + denormalize tail.
  double EstimateCardinality(const query::Query& q) override;
  /// One batched forward for the whole request vector (ForwardBatch), then
  /// the shared clamp + denormalize tail per query. Bit-identical to the
  /// per-query loop by the kernel-layer contract.
  std::vector<double> EstimateBatch(
      const std::vector<query::Query>& queries) override;
  bool HasBatchEstimate() const override { return true; }
  double EstimateWithDiagnostics(const query::Query& q,
                                 ExplainRecord* rec) override;
  bool ThreadSafeEstimate() const override { return true; }
  bool WeightStreamBound() const override { return true; }
  Status UpdateWithQueries(
      const std::vector<query::LabeledQuery>& queries) override;
  uint64_t SizeBytes() const override;
  void DescribeModel(telemetry::ModelCard* card) const override;

  /// Initializes encoder and network against `db` without training — the
  /// precondition for LoadModel on a fresh instance.
  Status Prepare(const storage::Database& db);

  /// Serializes the trained parameters (not the optimizer state).
  Status SaveModel(std::ostream* os);

  /// Restores parameters into a Prepare()d or Build()t model of identical
  /// hyperparameters and schema; the estimator is usable afterwards.
  Status LoadModel(std::istream* is);

  /// Mean training loss of the last completed epoch (convergence reporting).
  double last_epoch_loss() const { return last_epoch_loss_; }
  /// Per-epoch mean losses of the initial Build (the convergence curve R18
  /// plots); incremental updates append to it.
  const std::vector<double>& epoch_losses() const { return epoch_losses_; }
  const NeuralOptions& options() const { return options_; }

 protected:
  /// Featurization summary of an explained query (feat_dim, feat_nonzeros,
  /// feat_l2 in its ExplainRecord), taken from the flat encoding.
  struct FeatureStats {
    double dim = 0;
    double nonzeros = 0;
    double l2 = 0;
  };

  /// Builds the network(s); called once after the encoder exists.
  virtual void InitModel(Rng* rng) = 0;

  /// dL/d(prediction) of minibatch sample i, given its prediction.
  using LossGrad = std::function<float(int i, float pred)>;

  /// One minibatch training step: predicts every query of `batch`, calls
  /// `loss_grad(i, pred)` once per sample in ascending i, and backpropagates
  /// those gradients, accumulating parameter gradients (no optimizer step).
  /// Each parameter's gradient receives the samples' contributions one at a
  /// time in sample order, so a step over a minibatch leaves the same bits
  /// as single-sample steps over its queries in turn (nn_training_test).
  /// Linear, FCN, FCN+Pool and MSCN run one stacked forward and backward
  /// over the whole minibatch (MatMulTransAAccumulate keeps the per-sample
  /// weight-gradient sums); RNN and LSTM run per-sample BPTT inside it.
  virtual void TrainStep(std::span<const query::Query* const> batch,
                         const LossGrad& loss_grad) = 0;

  /// Frees what TrainStep keeps between steps (encoded minibatch, layer
  /// caches, gradient buffers). Called when Build or UpdateWithQueries
  /// finishes, so a trained model holds only its parameters and optimizer
  /// state; the next training call grows the buffers again.
  virtual void ReleaseTrainingScratch() {}

  /// The one inference pass: writes to `out[i]` exactly the prediction a
  /// TrainStep gives `queries[i]` (bit-identical — the kernels accumulate
  /// every output element in the same ascending order whatever the row
  /// count; nn_inference_test checks it per family). Const
  /// and thread-safe: scratch is thread-local, and training caches are
  /// never touched. A non-null `stats` asks for the
  /// FeatureStats of the single query of an explain; models that consume
  /// the flat encoding read them off the row they already built.
  virtual void ForwardBatch(std::span<const query::Query> queries, float* out,
                            FeatureStats* stats) const = 0;
  virtual std::vector<nn::Param*> Params() = 0;
  // Const access for SizeBytes(); default delegates via const_cast-free
  // duplication in subclasses would be noisy, so expose a count instead.
  virtual size_t NumParams() const = 0;

  /// FeatureStats of `n` encoded floats.
  static FeatureStats StatsOf(const float* feat, int n);
  /// FeatureStats of the flat encoding of `q` (the models whose inference
  /// consumes another encoding), encoded into a thread-local row.
  FeatureStats FlatStats(const query::Query& q) const;

  const query::QueryEncoder& encoder() const { return *encoder_; }

 private:
  /// `epochs` passes over `queries`, recording each epoch's loss and
  /// telemetry; `update` marks incremental-update epochs.
  void Train(const std::vector<query::LabeledQuery>& queries, int epochs,
             bool update);
  /// One pass over `queries` in minibatches; returns the mean loss.
  double RunEpoch(const std::vector<query::LabeledQuery>& queries,
                  std::vector<int>* order, Rng* rng);

 protected:
  NeuralOptions options_;

 private:
  std::unique_ptr<query::QueryEncoder> encoder_;
  std::unique_ptr<nn::Adam> adam_;
  std::vector<nn::Param*> params_;  // Params(), taken once the model exists
  Rng rng_{42};
  double last_epoch_loss_ = 0;
  // Pre-step gradient L2 norm of the last minibatch; only maintained while
  // the training log is enabled (-1 otherwise).
  double last_grad_norm_ = -1.0;
  std::vector<double> epoch_losses_;
  // RunEpoch's minibatch and its normalized targets, reused across steps.
  std::vector<const query::Query*> batch_;
  std::vector<float> targets_;
  int64_t train_examples_ = -1;
  bool built_ = false;
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_QUERY_DRIVEN_NEURAL_BASE_H_
