// join_in is the one message a client sends before any delivery reaches
// it. At Run() FedRunner announces every maximal run of clients that are
// not live as one range join_in built from their descriptors (DESIGN.md
// §13), and a client made live through FedRunner::client(id) sends its
// own. These tests pin that the range carries, for every id, exactly what
// that client's own Client::JoinIn would, that a change made to a live
// client before Run() reaches the server, and that the control plane of a
// course does not grow with its population.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "fedscope/attack/backdoor.h"
#include "fedscope/comm/codec.h"
#include "fedscope/core/client_range.h"
#include "fedscope/core/events.h"
#include "fedscope/core/fed_runner.h"
#include "fedscope/data/client_data_provider.h"
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

/// A send tap that records every join_in by its first id.
std::function<void(const Message&)> JoinRecorder(
    std::map<int, Message>* joins) {
  return [joins](const Message& msg) {
    if (msg.msg_type != events::kJoinIn) return;
    EXPECT_TRUE(joins->emplace(msg.sender, msg).second)
        << "second join_in from client " << msg.sender;
  };
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST_F(ClientJoinTest, RangeJoinCarriesEachClientsOwnJoinFields) {
  const FedDataset data = SmallData();

  // No client is live when Run() starts, so the whole population joins as
  // one range.
  std::map<int, Message> ranged;
  FedJob job = HeterogeneousJob(&data);
  job.send_tap = JoinRecorder(&ranged);
  FedRunner runner(std::move(job));
  ASSERT_EQ(runner.client_cache()->stats().live, 0);
  runner.Run();
  ASSERT_EQ(ranged.size(), 1u);
  const Message& range_join = ranged.begin()->second;
  EXPECT_EQ(range_join.sender, 1);
  EXPECT_TRUE(IsRangeMessage(range_join));
  // The range crosses the wire codec bit-exact.
  auto wired = DecodeMessage(EncodeMessage(range_join));
  ASSERT_TRUE(wired.ok());
  const JoinRun run = ReadJoinRun(wired.value());
  ASSERT_EQ(run.first, 1);
  ASSERT_EQ(run.resp_scores.size(), static_cast<size_t>(kClients));
  ASSERT_EQ(run.num_train.size(), static_cast<size_t>(kClients));

  // What each client's own Client::JoinIn sends.
  std::map<int, Message> own;
  FedJob live_job = HeterogeneousJob(&data);
  live_job.send_tap = JoinRecorder(&own);
  FedRunner live_runner(std::move(live_job));
  for (int id = 1; id <= kClients; ++id) live_runner.client(id)->JoinIn();

  ASSERT_EQ(own.size(), static_cast<size_t>(kClients));
  std::set<double> scores;
  for (int id = 1; id <= kClients; ++id) {
    const Payload& payload = own.at(id).payload;
    EXPECT_FALSE(IsRangeMessage(own.at(id))) << "client " << id;
    EXPECT_EQ(Bits(run.resp_scores[id - 1]),
              Bits(payload.GetDouble("resp_score")))
        << "client " << id;
    EXPECT_EQ(run.num_train[id - 1], payload.GetInt("num_train"))
        << "client " << id;
    scores.insert(payload.GetDouble("resp_score"));
  }
  // The fleet and the customizer really vary what each join carries.
  EXPECT_GT(scores.size(), 1u);
}

TEST_F(ClientJoinTest, LiveClientsSplitTheRangeJoin) {
  const FedDataset data = SmallData();
  std::vector<Message> joins;
  FedJob job = HeterogeneousJob(&data);
  job.send_tap = [&joins](const Message& msg) {
    if (msg.msg_type == events::kJoinIn) joins.push_back(msg);
  };
  FedRunner runner(std::move(job));
  for (int id : {3, 5, kClients}) runner.client(id);
  runner.Run();

  // Live clients send their own join; each run of descriptors between
  // them joins as a range — even a run of one. Ascending, so the server
  // registers ids in the order per-id joins would.
  struct Expected {
    int first;
    int size;
    bool range;
  };
  const std::vector<Expected> expected = {{1, 2, true},  {3, 1, false},
                                          {4, 1, true},  {5, 1, false},
                                          {6, 2, true},  {kClients, 1, false}};
  ASSERT_EQ(joins.size(), expected.size());
  for (size_t i = 0; i < joins.size(); ++i) {
    const ClientRange range = ClientRange::Of(joins[i]);
    EXPECT_EQ(range.first(), expected[i].first) << "join " << i;
    EXPECT_EQ(range.size(), expected[i].size) << "join " << i;
    EXPECT_EQ(IsRangeMessage(joins[i]), expected[i].range) << "join " << i;
  }
  EXPECT_EQ(runner.server()->joined_clients(), kClients);
}

TEST_F(ClientJoinTest, PoisonedLiveClientJoinsWithPoisonedTrainSize) {
  const FedDataset data = SmallData();
  FedJob job = HeterogeneousJob(&data);
  std::map<int, int64_t> num_train;
  job.send_tap = [&num_train](const Message& msg) {
    if (msg.msg_type != events::kJoinIn) return;
    const JoinRun run = ReadJoinRun(msg);
    for (size_t i = 0; i < run.num_train.size(); ++i) {
      num_train[run.first + static_cast<int>(i)] = run.num_train[i];
    }
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

/// join_in, assign_id and finish deliveries of a virtualized course over
/// `population` procedurally generated clients.
int64_t ControlEvents(int population) {
  ProceduralDataOptions data;
  data.num_clients = population;
  data.features = 8;
  data.classes = 2;
  data.train_per_client = 8;
  data.val_per_client = 2;
  data.test_per_client = 2;
  data.server_test_examples = 16;
  const ProceduralDataProvider provider(data);
  Rng rng(5);
  FedJob job;
  job.provider = &provider;
  job.virtualize = true;
  job.deploy_eval = false;
  job.init_model = MakeLogisticRegression(data.features, data.classes, &rng);
  job.client.train.local_steps = 1;
  job.client.train.batch_size = 4;
  job.server.concurrency = 4;
  job.server.max_rounds = 2;
  job.seed = 5;
  int64_t control = 0;
  job.delivery_tap = [&control](const Message& msg) {
    if (msg.msg_type == events::kJoinIn || msg.msg_type == events::kAssignId ||
        msg.msg_type == events::kFinish) {
      ++control;
    }
  };
  FedRunner runner(std::move(job));
  runner.Run();
  EXPECT_TRUE(runner.server()->finished());
  EXPECT_EQ(runner.server()->joined_clients(), population);
  return control;
}

TEST(ControlPlaneScaleTest, ControlEventsDoNotGrowWithPopulation) {
  Logging::set_min_level(LogLevel::kWarning);
  const int64_t at_1k = ControlEvents(1000);
  const int64_t at_50k = ControlEvents(50000);
  Logging::set_min_level(LogLevel::kInfo);
  EXPECT_EQ(at_1k, at_50k);
  // Client 1 (live from the completeness check) joins on its own and the
  // rest as one range; each join is acked once; one finish ends the course.
  EXPECT_EQ(at_1k, 5);
}

}  // namespace
}  // namespace fedscope
