#include "fedscope/core/trainer.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "fedscope/exec/worker_pool.h"
#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

// Rows per forward pass in EvaluateClassifier. A 512-image ConvNet2 pass in
// one piece moves about 1 MB of activations, which falls out of L2.
constexpr int64_t kEvalChunkRows = 32;

// Eval-mode logits of rows [begin, end) of x, one forward per 32-row chunk
// counted from `begin`. Eval-mode layers are row-independent (BatchNorm
// reads its running stats, Dropout is the identity), so chunked forwards
// produce the same logits bit for bit while each chunk's activations stay
// in cache.
Tensor ForwardRows(Model* model, const Tensor& x, int64_t begin,
                   int64_t end) {
  const int64_t row_numel = x.numel() / x.dim(0);
  std::vector<int64_t> chunk_shape = x.shape();
  Tensor logits;
  for (int64_t row = begin; row < end; row += kEvalChunkRows) {
    const int64_t count = std::min(kEvalChunkRows, end - row);
    chunk_shape[0] = count;
    Tensor chunk(chunk_shape);
    std::copy_n(x.data() + row * row_numel, count * row_numel, chunk.data());
    const Tensor out = model->Forward(chunk, /*train=*/false);
    FS_CHECK_EQ(out.ndim(), 2);
    FS_CHECK_EQ(out.dim(0), count);
    if (row == begin) logits = Tensor({end - begin, out.dim(1)});
    std::copy_n(out.data(), out.numel(),
                logits.data() + (row - begin) * out.dim(1));
  }
  return logits;
}

// ForwardRows over all of x with the `chunks` chunks cut into
// min(threads, chunks) contiguous parts, one pool task each. Every part
// but the last runs on a copy of the model made here, before Run: a copy
// taken inside a task would race with the task forwarding the original.
// The original runs the last part, so its layer caches end as a serial
// evaluation leaves them.
Tensor PooledForwardRows(Model* model, const Tensor& x, int64_t chunks,
                         WorkerPool* pool) {
  const int64_t rows = x.dim(0);
  const int64_t parts =
      std::min(static_cast<int64_t>(pool->num_threads()), chunks);
  std::vector<Model> copies(static_cast<size_t>(parts - 1), *model);
  std::vector<int64_t> bounds(static_cast<size_t>(parts + 1));
  for (int64_t p = 0; p <= parts; ++p) {
    bounds[p] = std::min(p * chunks / parts * kEvalChunkRows, rows);
  }
  std::vector<Tensor> outs(static_cast<size_t>(parts));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<size_t>(parts));
  for (int64_t p = 0; p < parts; ++p) {
    Model* part_model = p + 1 == parts ? model : &copies[p];
    tasks.push_back([part_model, &x, &bounds, &outs, p] {
      outs[p] = ForwardRows(part_model, x, bounds[p], bounds[p + 1]);
    });
  }
  pool->Run(&tasks);
  const int64_t classes = outs[0].dim(1);
  Tensor logits({rows, classes});
  for (int64_t p = 0; p < parts; ++p) {
    std::copy_n(outs[p].data(), outs[p].numel(),
                logits.data() + bounds[p] * classes);
  }
  return logits;
}

}  // namespace

TrainConfig TrainConfig::FromConfig(const Config& config) {
  return FromConfig(config, TrainConfig());
}

TrainConfig TrainConfig::FromConfig(const Config& config, TrainConfig base) {
  base.lr = config.GetDouble("train.lr", base.lr);
  base.local_steps =
      static_cast<int>(config.GetInt("train.local_steps", base.local_steps));
  base.batch_size =
      static_cast<int>(config.GetInt("train.batch_size", base.batch_size));
  base.momentum = config.GetDouble("train.momentum", base.momentum);
  base.weight_decay =
      config.GetDouble("train.weight_decay", base.weight_decay);
  base.prox_mu = config.GetDouble("train.prox_mu", base.prox_mu);
  base.grad_clip = config.GetDouble("train.grad_clip", base.grad_clip);
  return base;
}

void BaseTrainer::UpdateModel(Model* model, const StateDict& global_shared) {
  FS_CHECK_OK(model->LoadStateDict(global_shared));
}

EvalResult BaseTrainer::Evaluate(Model* model, const Dataset& data) {
  return EvaluateClassifier(model, data);
}

StateDict BaseTrainer::GetShareableState(Model* model,
                                         const NameFilter& filter) {
  return model->GetStateDict(filter);
}

std::vector<int64_t> SampleBatchIndices(int64_t dataset_size, int batch_size,
                                        Rng* rng) {
  FS_CHECK_GT(dataset_size, 0);
  std::vector<int64_t> idx(batch_size);
  for (auto& i : idx) i = rng->UniformInt(0, dataset_size - 1);
  return idx;
}

double SgdStepOnBatch(Model* model, Sgd* optimizer, const Tensor& x,
                      const std::vector<int64_t>& labels) {
  SoftmaxCrossEntropy loss;
  model->ZeroGrad();
  Tensor logits = model->Forward(x, /*train=*/true);
  const double batch_loss = loss.Forward(logits, labels);
  model->Backward(loss.Backward());
  optimizer->Step(model);
  return batch_loss;
}

EvalResult EvaluateClassifier(Model* model, const Dataset& data) {
  EvalResult result;
  result.num_examples = data.size();
  if (data.empty()) return result;
  const int64_t rows = data.size();
  FS_CHECK_EQ(data.x.dim(0), rows);
  const int64_t chunks = (rows + kEvalChunkRows - 1) / kEvalChunkRows;
  WorkerPool* pool = WorkerPool::Current();
  const Tensor logits =
      pool != nullptr && pool->num_threads() >= 2 && chunks >= 2
          ? PooledForwardRows(model, data.x, chunks, pool)
          : ForwardRows(model, data.x, 0, rows);
  SoftmaxCrossEntropy loss;
  result.loss = loss.Forward(logits, data.labels);
  result.accuracy = Accuracy(logits, data.labels);
  return result;
}

TrainResult GeneralTrainer::Train(Model* model, const Dataset& train,
                                  const TrainConfig& config, Rng* rng) {
  TrainResult result;
  result.local_steps = config.local_steps;
  if (train.empty() || config.local_steps == 0) return result;

  Sgd optimizer(SgdOptions{config.lr, config.momentum, config.weight_decay,
                           config.prox_mu, config.grad_clip});
  if (config.prox_mu > 0.0) {
    // FedProx: proximal point is the model as received from the server.
    optimizer.SetProxCenter(model->GetStateDict());
  }
  double loss_sum = 0.0;
  for (int step = 0; step < config.local_steps; ++step) {
    auto idx = SampleBatchIndices(train.size(), config.batch_size, rng);
    loss_sum += SgdStepOnBatch(model, &optimizer, train.BatchX(idx),
                               train.BatchY(idx));
  }
  result.mean_loss = loss_sum / config.local_steps;
  result.num_samples =
      static_cast<int64_t>(config.local_steps) * config.batch_size;
  return result;
}

}  // namespace fedscope
