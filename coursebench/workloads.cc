#include "workloads.h"

#include "bench/common.h"
#include "fedscope/data/client_data_provider.h"
#include "fedscope/data/synthetic_femnist.h"
#include "fedscope/nn/model_zoo.h"

namespace coursebench {
namespace {

using namespace fedscope;

// Courses last about a second or less, so a 30 s run holds twenty or more
// of them (the course-level figures are deciles over courses) and far more
// than the 101 rounds a p10 with ten samples below it needs.
constexpr int kSiloRounds = 40;
constexpr int kDeviceRounds = 500;
constexpr int kAsyncRounds = 150;

/// Cross-silo and compute-bound: every client trains ConvNet2 every round
/// on the threaded backend; the control plane is a few dozen messages per
/// round. Two workers, not one per CPU: with every CPU of a shared host
/// busy, round times follow how the host schedules the other tenants.
Workload SiloConvnet(uint64_t seed) {
  Workload w;
  SyntheticFemnistOptions options;
  options.num_clients = 32;
  options.mean_samples = 40;
  options.image_size = 8;
  options.seed = seed;
  w.data = std::make_shared<FedDataset>(MakeSyntheticFemnist(options));
  Rng model_rng(seed + 1);
  const Model init = MakeConvNet2(1, 8, 10, 64, 0.0, &model_rng);
  const FedDataset* data = w.data.get();
  w.make_job = [data, init, seed] {
    FedJob job;
    job.data = data;
    job.init_model = init;
    job.client.train.lr = 0.05;
    job.client.train.local_steps = 2;
    job.client.train.batch_size = 16;
    job.client.jitter_sigma = 0.0;  // equal arrival times: full-width batches
    job.server.strategy = Strategy::kSyncVanilla;
    job.server.concurrency = data->num_clients();
    job.server.max_rounds = kSiloRounds;
    job.through_wire = true;
    job.exec.backend = ExecutionBackend::kThreaded;
    job.exec.num_threads = 2;
    job.seed = seed;
    return job;
  };
  w.accuracy_floor = 0.9;  // chance is 0.1
  return w;
}

/// Cross-device and control-plane-bound: 100k descriptor-only clients, a
/// cohort of 32 logistic-regression learners per round. (A million clients
/// make a course take seconds and 400 MB, and its timings follow the
/// memory traffic of the host's other tenants from run to run.)
Workload Device100k(uint64_t seed) {
  Workload w;
  ProceduralDataOptions options;
  options.num_clients = 100000;
  options.features = 16;
  options.classes = 4;
  options.train_per_client = 16;
  options.val_per_client = 4;
  options.test_per_client = 4;
  options.server_test_examples = 64;
  options.seed = seed;
  w.provider = std::make_shared<ProceduralDataProvider>(options);
  Rng model_rng(seed + 1);
  const Model init =
      MakeLogisticRegression(options.features, options.classes, &model_rng);
  const ClientDataProvider* provider = w.provider.get();
  w.make_job = [provider, init, seed] {
    FedJob job;
    job.virtualize = true;
    job.provider = provider;
    job.init_model = init;
    job.client.train.lr = 0.1;
    job.client.train.local_steps = 1;
    job.client.train.batch_size = 8;
    job.client.jitter_sigma = 0.0;
    job.server.strategy = Strategy::kSyncVanilla;
    job.server.concurrency = 32;
    job.server.max_rounds = kDeviceRounds;
    job.deploy_eval = false;  // an O(population) sweep a deployment samples
    job.seed = seed;
    return job;
  };
  w.accuracy_floor = 0.9;  // chance is 0.25
  return w;
}

/// The paper's heterogeneity scenario: an asynchronous, straggler-heavy,
/// partly hostile fleet with every control-plane feature switched on.
Workload AsyncHostile(uint64_t seed, const std::string& scratch_dir) {
  Workload w;
  SyntheticFemnistOptions options;
  options.num_clients = 200;
  options.mean_samples = 50;
  options.style_sigma = 0.5;
  options.noise_sigma = 2.2;
  options.label_alpha = 2.0;
  options.seed = seed;
  w.data = std::make_shared<FedDataset>(MakeSyntheticFemnist(options));
  Rng model_rng(seed + 1);
  const Model init = bench::WithFlatten(MakeMlp({64, 32, 10}, &model_rng));
  // The paper benches' edge fleet: lognormal speed and bandwidth with a
  // 10% straggler tail.
  FleetOptions fleet;
  fleet.compute_median = 5.0;
  fleet.compute_sigma = 0.6;
  fleet.bandwidth_median = 5e4;
  fleet.bandwidth_sigma = 0.6;
  fleet.straggler_frac = 0.1;
  fleet.straggler_slowdown = 0.3;
  Rng fleet_rng(seed + 2);
  const std::vector<DeviceProfile> devices =
      MakeFleet(options.num_clients, fleet, &fleet_rng);
  const FedDataset* data = w.data.get();
  const std::string snapshots = scratch_dir + "/snapshots";
  w.make_job = [data, init, devices, snapshots, seed] {
    FedJob job;
    job.data = data;
    job.init_model = init;
    job.fleet = devices;
    job.client.train.lr = 0.1;
    job.client.train.local_steps = 4;
    job.client.train.batch_size = 16;
    job.client.jitter_sigma = 0.25;
    job.server.strategy = Strategy::kAsyncGoal;
    job.server.broadcast = BroadcastManner::kAfterReceiving;
    job.server.concurrency = 40;
    job.server.aggregation_goal = 8;
    job.server.staleness_tolerance = 10;
    job.server.max_rounds = kAsyncRounds;
    job.server.guard.enabled = true;
    job.server.guard.l2_bound = 2.0;
    job.server.guard.clip_to_bound = true;
    job.fault.hostile_frac = 0.05;
    job.fault.hostile_mode = "nan";
    job.fault.hostile_prob = 1.0;
    job.fault.seed = seed + 3;
    job.snapshot.directory = snapshots;
    job.snapshot.every_n_rounds = 5;
    job.through_wire = true;
    job.seed = seed;
    return job;
  };
  w.attach_metrics = true;
  w.expects_quarantine = true;
  w.accuracy_floor = 0.8;  // chance is 0.1
  return w;
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed,
                  const std::string& scratch_dir, Workload* out) {
  if (name == "silo_convnet") {
    *out = SiloConvnet(seed);
  } else if (name == "device_100k") {
    *out = Device100k(seed);
  } else if (name == "async_hostile") {
    *out = AsyncHostile(seed, scratch_dir);
  } else {
    return false;
  }
  return true;
}

}  // namespace coursebench
