#ifndef FEDSCOPE_DATA_CLIENT_DATA_PROVIDER_H_
#define FEDSCOPE_DATA_CLIENT_DATA_PROVIDER_H_

#include <vector>

#include "fedscope/data/dataset.h"
#include "fedscope/tensor/tensor.h"
#include "fedscope/util/rng.h"

namespace fedscope {

/// Lazy per-client data source of a FedRunner course (DESIGN.md §13). The
/// runner holds only this provider; a client's local splits are
/// materialized when the ClientCache instantiates it and dropped when the
/// client is reclaimed. Implementations must be
/// deterministic: MaterializeClient(id) returns bit-identical splits on
/// every call, and TrainSize(id) equals the materialized train size
/// without building it (it feeds the range join_in).
class ClientDataProvider {
 public:
  virtual ~ClientDataProvider() = default;
  virtual int num_clients() const = 0;
  virtual int64_t TrainSize(int id) const = 0;
  /// Builds client `id`'s local splits (1-based id).
  virtual SplitDataset MaterializeClient(int id) const = 0;
  virtual const Dataset& server_test() const = 0;
};

/// Adapts an eagerly built FedDataset: materialization returns a copy of
/// the stored partition. FedRunner wraps FedJob::data in one when the job
/// names no provider.
class EagerDataProvider : public ClientDataProvider {
 public:
  /// `data` is borrowed and must outlive the provider.
  explicit EagerDataProvider(const FedDataset* data);

  int num_clients() const override;
  int64_t TrainSize(int id) const override;
  SplitDataset MaterializeClient(int id) const override;
  const Dataset& server_test() const override;

 private:
  const FedDataset* data_;
};

struct ProceduralDataOptions {
  int num_clients = 1000;
  /// Flat feature dimension (examples are [n, features] tensors).
  int64_t features = 16;
  int64_t classes = 4;
  int64_t train_per_client = 16;
  int64_t val_per_client = 4;
  int64_t test_per_client = 4;
  int64_t server_test_examples = 64;
  double noise_sigma = 0.6;
  uint64_t seed = 1;
};

/// Cross-device-scale data: each client's partition is derived on demand
/// from Rng(seed).Fork(id) around shared class prototypes, so holding a
/// 1M-client federation costs O(classes * features) memory, not
/// O(population * examples). Used by bench_scale.
class ProceduralDataProvider : public ClientDataProvider {
 public:
  explicit ProceduralDataProvider(ProceduralDataOptions options);

  int num_clients() const override { return options_.num_clients; }
  int64_t TrainSize(int /*id*/) const override {
    return options_.train_per_client;
  }
  SplitDataset MaterializeClient(int id) const override;
  const Dataset& server_test() const override { return server_test_; }

 private:
  Dataset Generate(int64_t n, Rng* rng) const;

  ProceduralDataOptions options_;
  std::vector<Tensor> prototypes_;  // one [features] prototype per class
  Dataset server_test_;
};

}  // namespace fedscope

#endif  // FEDSCOPE_DATA_CLIENT_DATA_PROVIDER_H_
