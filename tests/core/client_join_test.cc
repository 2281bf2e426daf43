// join_in is the one message a client sends before any delivery reaches
// it. FedRunner synthesizes it from the descriptor for every client that
// is not live when Run() starts (DESIGN.md §13), and a client made live
// through FedRunner::client(id) sends its own. These tests pin that the
// two are byte-identical, and that a change made to a live client before
// Run() reaches the server.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "fedscope/attack/backdoor.h"
#include "fedscope/comm/codec.h"
#include "fedscope/core/events.h"
#include "fedscope/core/fed_runner.h"
#include "fedscope/data/synthetic_cifar.h"
#include "fedscope/nn/model_zoo.h"
#include "fedscope/sim/device_profile.h"
#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

constexpr int kClients = 8;

FedDataset SmallData() {
  SyntheticCifarOptions options;
  options.num_clients = kClients;
  options.pool_size = 400;
  options.alpha = 0.5;
  options.image_size = 8;
  options.server_test_size = 64;
  options.seed = 3;
  return MakeSyntheticCifar(options);
}

/// A one-round course over a lognormal fleet whose devices a customizer
/// further reshapes per id — both feed the join's responsiveness score.
/// The completeness check is off so no client is live before Run().
FedJob HeterogeneousJob(const FedDataset* data) {
  Rng rng(17);
  FedJob job;
  job.data = data;
  job.init_model.Add("flat", std::make_unique<Flatten>());
  Model mlp = MakeMlp({3 * 8 * 8, 16, 10}, &rng);
  for (int i = 0; i < mlp.num_layers(); ++i) {
    job.init_model.Add(mlp.layer_name(i), mlp.layer(i)->Clone());
  }
  job.fleet = MakeFleet(kClients, FleetOptions{}, &rng);
  job.client_customizer = [](int id, ClientOptions* options) {
    options->device.compute_speed *= 1.0 + 0.25 * (id % 3);
    if (id % 2 == 0) options->device.up_bandwidth *= 0.5;
  };
  job.server.concurrency = 4;
  job.server.max_rounds = 1;
  job.client.train.local_steps = 1;
  job.client.train.batch_size = 8;
  job.check_completeness = false;
  job.deploy_eval = false;
  job.seed = 17;
  return job;
}

class ClientJoinTest : public ::testing::Test {
 protected:
  void SetUp() override { Logging::set_min_level(LogLevel::kWarning); }
  void TearDown() override { Logging::set_min_level(LogLevel::kInfo); }
};

/// A send tap that records every join_in's wire bytes by sender.
std::function<void(const Message&)> JoinRecorder(
    std::map<int, std::vector<uint8_t>>* joins) {
  return [joins](const Message& msg) {
    if (msg.msg_type != events::kJoinIn) return;
    EXPECT_TRUE(joins->emplace(msg.sender, EncodeMessage(msg)).second)
        << "second join_in from client " << msg.sender;
  };
}

TEST_F(ClientJoinTest, SynthesizedJoinEncodesLikeClientJoinIn) {
  const FedDataset data = SmallData();

  // No client is live when Run() starts, so every join is synthesized.
  std::map<int, std::vector<uint8_t>> synthesized;
  FedJob job = HeterogeneousJob(&data);
  job.send_tap = JoinRecorder(&synthesized);
  FedRunner runner(std::move(job));
  ASSERT_EQ(runner.client_cache()->stats().live, 0);
  runner.Run();

  // What each client's own Client::JoinIn sends.
  std::map<int, std::vector<uint8_t>> own;
  FedJob live_job = HeterogeneousJob(&data);
  live_job.send_tap = JoinRecorder(&own);
  FedRunner live_runner(std::move(live_job));
  for (int id = 1; id <= kClients; ++id) live_runner.client(id)->JoinIn();

  ASSERT_EQ(synthesized.size(), static_cast<size_t>(kClients));
  ASSERT_EQ(own.size(), static_cast<size_t>(kClients));
  std::set<double> scores;
  for (int id = 1; id <= kClients; ++id) {
    EXPECT_EQ(synthesized.at(id), own.at(id)) << "client " << id;
    auto decoded = DecodeMessage(own.at(id));
    ASSERT_TRUE(decoded.ok());
    scores.insert(decoded.value().payload.GetDouble("resp_score"));
  }
  // The fleet and the customizer really vary what each join carries.
  EXPECT_GT(scores.size(), 1u);
}

TEST_F(ClientJoinTest, PoisonedLiveClientJoinsWithPoisonedTrainSize) {
  const FedDataset data = SmallData();
  FedJob job = HeterogeneousJob(&data);
  std::map<int, int64_t> num_train;
  job.send_tap = [&num_train](const Message& msg) {
    if (msg.msg_type != events::kJoinIn) return;
    num_train[msg.sender] = msg.payload.GetInt("num_train");
  };
  FedRunner runner(std::move(job));

  // The edge-case backdoor appends out-of-distribution examples, so the
  // poisoned client's train split grows.
  BackdoorOptions backdoor;
  backdoor.kind = TriggerKind::kEdgeCase;
  backdoor.poison_frac = 0.5;
  constexpr int kPoisoned = 3;
  const int64_t clean = data.clients[kPoisoned - 1].train.size();
  runner.client(kPoisoned)->PoisonTrainData(MakeDataPoisoner(backdoor));
  const int64_t poisoned = runner.client(kPoisoned)->data().train.size();
  ASSERT_GT(poisoned, clean);
  runner.Run();

  ASSERT_EQ(num_train.size(), static_cast<size_t>(kClients));
  EXPECT_EQ(num_train.at(kPoisoned), poisoned);
  for (int id = 1; id <= kClients; ++id) {
    if (id == kPoisoned) continue;
    EXPECT_EQ(num_train.at(id), data.clients[id - 1].train.size())
        << "client " << id;
  }
}

}  // namespace
}  // namespace fedscope
