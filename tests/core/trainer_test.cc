#include "fedscope/core/trainer.h"

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fedscope/exec/worker_pool.h"
#include "fedscope/nn/loss.h"
#include "fedscope/nn/model_zoo.h"
#include "fedscope/nn/model.h"

namespace fedscope {
namespace {

/// Linearly separable 2-class blobs.
Dataset Blobs(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  d.x = Tensor({n, 2});
  d.labels.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t y = i % 2;
    d.labels[i] = y;
    const double cx = y == 0 ? -1.5 : 1.5;
    d.x.at(i, 0) = static_cast<float>(cx + rng.Normal(0, 0.5));
    d.x.at(i, 1) = static_cast<float>(cx + rng.Normal(0, 0.5));
  }
  return d;
}

TEST(TrainConfigTest, FromConfigOverrides) {
  Config c;
  c.Set("train.lr", 0.25);
  c.Set("train.local_steps", 9);
  c.Set("train.batch_size", 3);
  c.Set("train.prox_mu", 0.1);
  TrainConfig base;
  TrainConfig tc = TrainConfig::FromConfig(c, base);
  EXPECT_DOUBLE_EQ(tc.lr, 0.25);
  EXPECT_EQ(tc.local_steps, 9);
  EXPECT_EQ(tc.batch_size, 3);
  EXPECT_DOUBLE_EQ(tc.prox_mu, 0.1);
  // Untouched fields keep defaults.
  EXPECT_DOUBLE_EQ(tc.momentum, base.momentum);
}

TEST(GeneralTrainerTest, TrainingReducesLoss) {
  Rng rng(1);
  Model model = MakeLogisticRegression(2, 2, &rng);
  Dataset data = Blobs(64, 2);
  GeneralTrainer trainer;
  EvalResult before = trainer.Evaluate(&model, data);
  TrainConfig config;
  config.lr = 0.5;
  config.local_steps = 60;
  config.batch_size = 16;
  Rng train_rng(3);
  TrainResult result = trainer.Train(&model, data, config, &train_rng);
  EvalResult after = trainer.Evaluate(&model, data);
  EXPECT_LT(after.loss, before.loss);
  EXPECT_GT(after.accuracy, 0.9);
  EXPECT_EQ(result.num_samples, 60 * 16);
  EXPECT_EQ(result.local_steps, 60);
}

TEST(GeneralTrainerTest, ZeroStepsIsNoop) {
  Rng rng(4);
  Model model = MakeLogisticRegression(2, 2, &rng);
  StateDict before = model.GetStateDict();
  GeneralTrainer trainer;
  TrainConfig config;
  config.local_steps = 0;
  Rng train_rng(5);
  trainer.Train(&model, Blobs(10, 6), config, &train_rng);
  EXPECT_TRUE(model.GetStateDict() == before);
}

TEST(GeneralTrainerTest, EmptyDatasetIsNoop) {
  Rng rng(7);
  Model model = MakeLogisticRegression(2, 2, &rng);
  StateDict before = model.GetStateDict();
  GeneralTrainer trainer;
  Rng train_rng(8);
  TrainResult r = trainer.Train(&model, Dataset{}, TrainConfig{}, &train_rng);
  EXPECT_EQ(r.num_samples, 0);
  EXPECT_TRUE(model.GetStateDict() == before);
}

TEST(GeneralTrainerTest, ProxTermLimitsDrift) {
  // FedProx: a strong proximal weight (with lr * mu < 1 for stability)
  // keeps the model near its starting point.
  Rng rng(9);
  Model init_model = MakeLogisticRegression(2, 2, &rng);
  Model free_model = init_model;
  Model prox_model = init_model;
  Dataset data = Blobs(64, 10);
  TrainConfig config;
  config.lr = 0.05;
  config.local_steps = 40;
  config.batch_size = 16;

  GeneralTrainer trainer;
  Rng r1(11), r2(11);
  trainer.Train(&free_model, data, config, &r1);
  config.prox_mu = 10.0;
  trainer.Train(&prox_model, data, config, &r2);

  const StateDict init = init_model.GetStateDict();
  const double free_drift = SdNorm(SdSub(free_model.GetStateDict(), init));
  const double prox_drift = SdNorm(SdSub(prox_model.GetStateDict(), init));
  EXPECT_LT(prox_drift, 0.5 * free_drift);
}

TEST(GeneralTrainerTest, UpdateModelLoadsSharedState) {
  Rng rng(12);
  Model model = MakeLogisticRegression(2, 2, &rng);
  Rng rng2(99);
  Model other = MakeLogisticRegression(2, 2, &rng2);
  GeneralTrainer trainer;
  trainer.UpdateModel(&model, other.GetStateDict());
  EXPECT_TRUE(model.GetStateDict() == other.GetStateDict());
}

TEST(GeneralTrainerTest, DeterministicGivenSeeds) {
  Dataset data = Blobs(32, 13);
  TrainConfig config;
  config.local_steps = 10;
  config.batch_size = 8;
  auto run = [&]() {
    Rng rng(14);
    Model model = MakeLogisticRegression(2, 2, &rng);
    Rng train_rng(15);
    GeneralTrainer trainer;
    trainer.Train(&model, data, config, &train_rng);
    return model.GetStateDict();
  };
  EXPECT_TRUE(run() == run());
}

TEST(EvaluateClassifierTest, EmptyDataset) {
  Rng rng(16);
  Model model = MakeLogisticRegression(2, 2, &rng);
  EvalResult r = EvaluateClassifier(&model, Dataset{});
  EXPECT_EQ(r.num_examples, 0);
  EXPECT_EQ(r.accuracy, 0.0);
}

Dataset RandomSet(int64_t size, const std::vector<int64_t>& row_shape,
                  int64_t classes, Rng* rng) {
  std::vector<int64_t> shape = {size};
  shape.insert(shape.end(), row_shape.begin(), row_shape.end());
  Dataset d;
  d.x = Tensor::Randn(shape, rng);
  d.labels.resize(size);
  for (auto& label : d.labels) label = rng->UniformInt(0, classes - 1);
  return d;
}

// EvaluateClassifier's chunked forward against one whole-set eval forward
// with the loss and accuracy computed here: equal at sizes below, at, just
// over and far over one chunk.
TEST(EvaluateClassifierTest, ChunkedEvaluationMatchesWholeSetForward) {
  struct EvalCase {
    std::string name;
    std::function<Model(Rng*)> build;
    std::vector<int64_t> row_shape;
    int64_t classes;
  };
  const EvalCase cases[] = {
      {"mlp", [](Rng* r) { return MakeMlp({12, 16, 5}, r); }, {12}, 5},
      {"convnet2_dropout",
       [](Rng* r) { return MakeConvNet2(1, 8, 10, 16, 0.5, r); },
       {1, 8, 8},
       10},
      {"mlp_batchnorm",
       [](Rng* r) { return MakeMlpBn({12, 16, 16, 5}, r); },
       {12},
       5},
  };
  for (const EvalCase& c : cases) {
    Rng rng(31);
    Model model = c.build(&rng);
    // Train a little so BatchNorm's running stats leave their initial
    // values and the eval path reads non-trivial buffers.
    TrainConfig config;
    config.local_steps = 3;
    config.batch_size = 16;
    GeneralTrainer().Train(&model, RandomSet(64, c.row_shape, c.classes, &rng),
                           config, &rng);
    for (int64_t size : {1, 31, 32, 33, 512}) {
      const Dataset test = RandomSet(size, c.row_shape, c.classes, &rng);
      Model whole = model;
      const Tensor logits = whole.Forward(test.x, /*train=*/false);
      SoftmaxCrossEntropy loss;
      const double want_loss = loss.Forward(logits, test.labels);
      const double want_accuracy = Accuracy(logits, test.labels);
      const EvalResult got = EvaluateClassifier(&model, test);
      EXPECT_EQ(got.num_examples, size) << c.name;
      EXPECT_EQ(got.loss, want_loss) << c.name << " size " << size;
      EXPECT_EQ(got.accuracy, want_accuracy) << c.name << " size " << size;
    }
  }
}

// EvaluateClassifier under a published pool (DESIGN.md §12) against the
// serial chunk loop: the same loss and accuracy bits for every pool width,
// model family and row count, and a model that trains on afterwards as if
// the evaluation had run serially.
TEST(EvaluateClassifierPoolTest, PooledEvaluationMatchesSerialBits) {
  struct EvalCase {
    std::string name;
    std::function<Model(Rng*)> build;
    std::vector<int64_t> row_shape;
    int64_t classes;
  };
  const EvalCase cases[] = {
      {"convnet2",
       [](Rng* r) { return MakeConvNet2(1, 8, 10, 16, 0.0, r); },
       {1, 8, 8},
       10},
      {"flatten_mlp",
       [](Rng* r) {
         Model m;
         m.Add("flat", std::make_unique<Flatten>());
         m.Add("fc1", std::make_unique<Linear>(2 * 4 * 4, 16, r));
         m.Add("relu", std::make_unique<ReLU>());
         m.Add("fc2", std::make_unique<Linear>(16, 6, r));
         return m;
       },
       {2, 4, 4},
       6},
      {"mlp_batchnorm",
       [](Rng* r) { return MakeMlpBn({12, 16, 16, 5}, r); },
       {12},
       5},
      {"convnet2_dropout",
       [](Rng* r) { return MakeConvNet2(1, 8, 10, 16, 0.5, r); },
       {1, 8, 8},
       10},
  };
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  WorkerPool pools[] = {WorkerPool(1), WorkerPool(2), WorkerPool(3),
                        WorkerPool(5)};
  TrainConfig config;
  config.local_steps = 3;
  config.batch_size = 16;
  for (const EvalCase& c : cases) {
    Rng rng(41);
    Model model = c.build(&rng);
    // Leave BatchNorm's running stats away from their initial values.
    GeneralTrainer().Train(&model, RandomSet(64, c.row_shape, c.classes, &rng),
                           config, &rng);
    const Dataset batch = RandomSet(16, c.row_shape, c.classes, &rng);
    for (int64_t size : {1, 31, 32, 33, 100, 512}) {
      const Dataset test = RandomSet(size, c.row_shape, c.classes, &rng);
      Model serial_model = model;
      const EvalResult want = EvaluateClassifier(&serial_model, test);
      Sgd serial_sgd(SgdOptions{});
      const double want_step = SgdStepOnBatch(&serial_model, &serial_sgd,
                                              batch.x, batch.labels);
      for (WorkerPool& pool : pools) {
        SCOPED_TRACE(c.name + " size " + std::to_string(size) + " threads " +
                     std::to_string(pool.num_threads()));
        Model pooled_model = model;
        EvalResult got;
        {
          WorkerPool::ScopedCurrent scope(&pool);
          got = EvaluateClassifier(&pooled_model, test);
        }
        EXPECT_EQ(got.num_examples, size);
        EXPECT_EQ(bits(got.loss), bits(want.loss));
        EXPECT_EQ(bits(got.accuracy), bits(want.accuracy));
        Sgd sgd(SgdOptions{});
        const double step =
            SgdStepOnBatch(&pooled_model, &sgd, batch.x, batch.labels);
        EXPECT_EQ(bits(step), bits(want_step));
        EXPECT_TRUE(pooled_model.GetStateDict() ==
                    serial_model.GetStateDict());
      }
    }
  }
}

TEST(SampleBatchIndicesTest, InRange) {
  Rng rng(17);
  auto idx = SampleBatchIndices(10, 50, &rng);
  EXPECT_EQ(idx.size(), 50u);
  for (int64_t i : idx) {
    EXPECT_GE(i, 0);
    EXPECT_LT(i, 10);
  }
}

}  // namespace
}  // namespace fedscope
