#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "fedscope/core/client.h"
#include "fedscope/core/client_range.h"
#include "fedscope/core/events.h"
#include "fedscope/core/server.h"
#include "fedscope/nn/model_zoo.h"
#include "fedscope/tensor/tensor_ops.h"
#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

Dataset Blobs(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  d.x = Tensor({n, 2});
  d.labels.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t y = i % 2;
    d.labels[i] = y;
    d.x.at(i, 0) = static_cast<float>((y ? 1.5 : -1.5) + rng.Normal(0, 0.5));
    d.x.at(i, 1) = static_cast<float>((y ? 1.5 : -1.5) + rng.Normal(0, 0.5));
  }
  return d;
}

SplitDataset MakeSplit(uint64_t seed) {
  Rng rng(seed);
  return Split(Blobs(40, seed), 0.6, 0.2, &rng);
}

Model TestModel(uint64_t seed = 1) {
  Rng rng(seed);
  return MakeLogisticRegression(2, 2, &rng);
}

std::unique_ptr<Client> MakeClient(int id, QueueChannel* channel,
                                   ClientOptions options = {}) {
  options.jitter_sigma = 0.0;
  return std::make_unique<Client>(id, std::move(options), TestModel(),
                                  MakeSplit(id),
                                  std::make_unique<GeneralTrainer>(),
                                  channel);
}

Message BroadcastTo(int client_id, Model* model, int round,
                    double time = 0.0) {
  Message msg;
  msg.sender = kServerId;
  msg.receiver = client_id;
  msg.msg_type = events::kModelPara;
  msg.state = round;
  msg.timestamp = time;
  msg.payload.SetStateDict("model", model->GetStateDict());
  return msg;
}

// ---------------------------------------------------------------------------
// Client behaviour
// ---------------------------------------------------------------------------

TEST(ClientTest, JoinInCarriesDeviceEstimate) {
  QueueChannel channel;
  auto client = MakeClient(3, &channel);
  client->JoinIn();
  ASSERT_EQ(channel.Size(), 1u);
  Message msg = channel.Pop();
  EXPECT_EQ(msg.msg_type, events::kJoinIn);
  EXPECT_EQ(msg.sender, 3);
  EXPECT_EQ(msg.receiver, kServerId);
  EXPECT_GT(msg.payload.GetDouble("resp_score", 0.0), 0.0);
  EXPECT_GT(msg.payload.GetInt("num_train", 0), 0);
}

TEST(ClientTest, ModelParaTriggersTrainingAndUpdate) {
  QueueChannel channel;
  auto client = MakeClient(1, &channel);
  Model global = TestModel(42);
  client->HandleMessage(BroadcastTo(1, &global, /*round=*/5));
  ASSERT_EQ(channel.Size(), 1u);
  Message reply = channel.Pop();
  EXPECT_EQ(reply.msg_type, events::kModelUpdate);
  EXPECT_EQ(reply.state, 5);  // echoes the round it started from
  EXPECT_GT(reply.timestamp, 0.0);  // latency added
  StateDict delta = reply.payload.GetStateDict("delta");
  EXPECT_EQ(delta.size(), 2u);
  EXPECT_GT(SdNorm(delta), 0.0);  // training moved the parameters
  EXPECT_GT(reply.payload.GetInt("num_samples", 0), 0);
  EXPECT_EQ(client->rounds_trained(), 1);
}

TEST(ClientTest, DeltaIsLocalMinusReceived) {
  QueueChannel channel;
  auto client = MakeClient(1, &channel);
  Model global = TestModel(42);
  StateDict sent = global.GetStateDict();
  client->HandleMessage(BroadcastTo(1, &global, 0));
  StateDict delta = channel.Pop().payload.GetStateDict("delta");
  StateDict local = client->model()->GetStateDict();
  StateDict reconstructed = SdAdd(sent, delta);
  EXPECT_LT(SdNorm(SdSub(reconstructed, local)), 1e-4);
}

TEST(ClientTest, CrashedClientNeverReplies) {
  QueueChannel channel;
  ClientOptions options;
  options.device.crash_prob = 1.0;
  auto client = MakeClient(1, &channel, options);
  Model global = TestModel();
  client->HandleMessage(BroadcastTo(1, &global, 0));
  EXPECT_TRUE(channel.Empty());
}

TEST(ClientTest, FinishStopsParticipation) {
  QueueChannel channel;
  auto client = MakeClient(1, &channel);
  Message finish;
  finish.receiver = 1;
  finish.msg_type = events::kFinish;
  client->HandleMessage(finish);
  EXPECT_TRUE(client->finished());
  Model global = TestModel();
  client->HandleMessage(BroadcastTo(1, &global, 0));
  EXPECT_TRUE(channel.Empty());  // no training after finish
}

TEST(ClientTest, EvaluateRequestYieldsMetrics) {
  QueueChannel channel;
  auto client = MakeClient(1, &channel);
  Message req;
  req.receiver = 1;
  req.msg_type = events::kEvaluate;
  req.state = 2;
  client->HandleMessage(req);
  ASSERT_EQ(channel.Size(), 1u);
  Message metrics = channel.Pop();
  EXPECT_EQ(metrics.msg_type, events::kMetrics);
  EXPECT_GE(metrics.payload.GetDouble("test_acc", -1.0), 0.0);
  EXPECT_GT(metrics.payload.GetInt("test_n", 0), 0);
}

TEST(ClientTest, DpPluginBoundsDeltaNorm) {
  QueueChannel channel;
  ClientOptions options;
  options.dp.enable = true;
  options.dp.clip_norm = 0.01;
  options.dp.noise_multiplier = 0.0;  // clip only, deterministic bound
  auto client = MakeClient(1, &channel, options);
  Model global = TestModel();
  client->HandleMessage(BroadcastTo(1, &global, 0));
  StateDict delta = channel.Pop().payload.GetStateDict("delta");
  EXPECT_LE(SdNorm(delta), 0.01 + 1e-6);
}

TEST(ClientTest, UpdatePoisonerRewritesDelta) {
  QueueChannel channel;
  auto client = MakeClient(1, &channel);
  client->set_update_poisoner([](StateDict* delta) {
    for (auto& [name, tensor] : *delta) {
      for (int64_t i = 0; i < tensor.numel(); ++i) tensor.at(i) = 7.0f;
    }
  });
  Model global = TestModel();
  client->HandleMessage(BroadcastTo(1, &global, 0));
  StateDict delta = channel.Pop().payload.GetStateDict("delta");
  for (const auto& [name, tensor] : delta) {
    for (int64_t i = 0; i < tensor.numel(); ++i) {
      EXPECT_EQ(tensor.at(i), 7.0f);
    }
  }
}

TEST(ClientTest, HpoConfigOverridesRound) {
  QueueChannel channel;
  ClientOptions options;
  options.train.local_steps = 4;
  options.train.batch_size = 5;
  auto client = MakeClient(1, &channel, options);
  Model global = TestModel();
  Message msg = BroadcastTo(1, &global, 0);
  msg.payload.SetDouble("hpo.local_steps", 9);
  client->HandleMessage(msg);
  Message reply = channel.Pop();
  EXPECT_EQ(reply.payload.GetInt("local_steps", 0), 9);
  EXPECT_EQ(reply.payload.GetInt("num_samples", 0), 9 * 5);
}

TEST(ClientTest, FeedbackRequestedYieldsValLosses) {
  QueueChannel channel;
  auto client = MakeClient(1, &channel);
  Model global = TestModel();
  Message msg = BroadcastTo(1, &global, 0);
  msg.payload.SetInt("hpo.want_feedback", 1);
  client->HandleMessage(msg);
  Message reply = channel.Pop();
  EXPECT_TRUE(reply.payload.HasScalar("val_loss_before"));
  EXPECT_TRUE(reply.payload.HasScalar("val_loss_after"));
}

TEST(ClientTest, ShareFilterRestrictsDeltaKeys) {
  QueueChannel channel;
  ClientOptions options;
  options.share_filter = ExcludeSubstrings({"bias"});
  auto client = MakeClient(1, &channel, options);
  Model global = TestModel();
  Message msg = BroadcastTo(1, &global, 0);
  client->HandleMessage(msg);
  StateDict delta = channel.Pop().payload.GetStateDict("delta");
  EXPECT_EQ(delta.size(), 1u);
  EXPECT_TRUE(delta.count("fc.weight"));
}

TEST(ClientTest, LowBandwidthDeclinesEveryOtherRound) {
  QueueChannel channel;
  ClientOptions options;
  options.device.up_bandwidth = 100.0;  // below the threshold
  options.device.down_bandwidth = 100.0;
  options.low_bandwidth_threshold = 1000.0;
  auto client = MakeClient(1, &channel, options);
  Model global = TestModel();

  client->HandleMessage(BroadcastTo(1, &global, 0));  // declined
  Message first = channel.Pop();
  EXPECT_EQ(first.payload.GetInt("declined", 0), 1);
  EXPECT_TRUE(first.payload.GetStateDict("delta").empty());

  client->HandleMessage(BroadcastTo(1, &global, 1));  // trains
  Message second = channel.Pop();
  EXPECT_EQ(second.payload.GetInt("declined", 0), 0);
  EXPECT_FALSE(second.payload.GetStateDict("delta").empty());

  client->HandleMessage(BroadcastTo(1, &global, 2));  // declined again
  EXPECT_EQ(channel.Pop().payload.GetInt("declined", 0), 1);
  EXPECT_EQ(client->declined_count(), 2);
  EXPECT_EQ(client->rounds_trained(), 1);
}

TEST(ClientTest, FastClientNeverDeclines) {
  QueueChannel channel;
  ClientOptions options;
  options.low_bandwidth_threshold = 1000.0;  // device default is 1e6 B/s
  auto client = MakeClient(1, &channel, options);
  Model global = TestModel();
  for (int round = 0; round < 4; ++round) {
    client->HandleMessage(BroadcastTo(1, &global, round));
  }
  EXPECT_EQ(client->declined_count(), 0);
  EXPECT_EQ(client->rounds_trained(), 4);
}

TEST(ClientTest, CustomHandlerOverwritesDefault) {
  QueueChannel channel;
  auto client = MakeClient(1, &channel);
  int custom_calls = 0;
  client->registry().Register(events::kModelPara,
                              [&](const Message&) { ++custom_calls; });
  Model global = TestModel();
  client->HandleMessage(BroadcastTo(1, &global, 0));
  EXPECT_EQ(custom_calls, 1);
  EXPECT_TRUE(channel.Empty());  // default training behaviour replaced
}

// ---------------------------------------------------------------------------
// Server behaviour (driven directly through messages)
// ---------------------------------------------------------------------------

std::unique_ptr<Server> MakeServer(QueueChannel* channel,
                                   ServerOptions options) {
  auto server = std::make_unique<Server>(
      std::move(options), TestModel(7),
      std::make_unique<FedAvgAggregator>(FedAvgOptions{1.0, 0.0}), channel);
  return server;
}

Message JoinFrom(int id) {
  Message msg;
  msg.sender = id;
  msg.receiver = kServerId;
  msg.msg_type = events::kJoinIn;
  msg.payload.SetDouble("resp_score", 1.0);
  return msg;
}

Message UpdateFrom(int id, int round, Model* reference, float bump) {
  Message msg;
  msg.sender = id;
  msg.receiver = kServerId;
  msg.msg_type = events::kModelUpdate;
  msg.state = round;
  StateDict delta = SdScale(reference->GetStateDict(), 0.0f);
  for (auto& [name, tensor] : delta) {
    for (int64_t i = 0; i < tensor.numel(); ++i) tensor.at(i) = bump;
  }
  msg.payload.SetStateDict("delta", delta);
  msg.payload.SetInt("num_samples", 10);
  msg.payload.SetInt("local_steps", 4);
  return msg;
}

TEST(ServerTest, CustomHandlerOverwritesStrategyHandlerWithWarning) {
  // The paper's customization flow (§3.2): re-registering a built-in
  // strategy event on a live worker logs a warning — captured via the
  // sink, not stderr — and the latest handler takes effect.
  QueueChannel channel;
  ServerOptions options;
  options.expected_clients = 2;
  options.concurrency = 2;
  auto server = MakeServer(&channel, options);
  ASSERT_TRUE(server->registry().Has(events::kModelUpdate));

  std::vector<std::string> warnings;
  Logging::set_sink([&](LogLevel level, const std::string& text) {
    if (level == LogLevel::kWarning) warnings.push_back(text);
  });
  int intercepted = 0;
  const bool overwrote = server->registry().Register(
      events::kModelUpdate, [&](const Message&) { ++intercepted; });
  Logging::set_sink(nullptr);

  EXPECT_TRUE(overwrote);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find(events::kModelUpdate), std::string::npos);
  EXPECT_NE(warnings[0].find("overwrites"), std::string::npos);

  // The stock aggregation path is gone: the intercept sees the update and
  // the global model stays untouched.
  server->HandleMessage(JoinFrom(1));
  server->HandleMessage(JoinFrom(2));
  const StateDict before = server->global_model()->GetStateDict();
  Model ref = TestModel(7);
  server->HandleMessage(UpdateFrom(1, 0, &ref, 0.25f));
  server->HandleMessage(UpdateFrom(2, 0, &ref, 0.25f));
  EXPECT_EQ(intercepted, 2);
  EXPECT_TRUE(server->global_model()->GetStateDict() == before);
}

TEST(ServerTest, JoinFlowAcksAndStarts) {
  QueueChannel channel;
  ServerOptions options;
  options.expected_clients = 3;
  options.concurrency = 2;
  auto server = MakeServer(&channel, options);
  server->HandleMessage(JoinFrom(1));
  server->HandleMessage(JoinFrom(2));
  EXPECT_EQ(server->joined_clients(), 2);
  server->HandleMessage(JoinFrom(3));
  // 3 assign_id acks + 2 model_para broadcasts.
  int acks = 0, broadcasts = 0;
  while (!channel.Empty()) {
    Message m = channel.Pop();
    if (m.msg_type == events::kAssignId) ++acks;
    if (m.msg_type == events::kModelPara) ++broadcasts;
  }
  EXPECT_EQ(acks, 3);
  EXPECT_EQ(broadcasts, 2);
  EXPECT_EQ(server->round(), 0);
}

TEST(ServerTest, RangeJoinRegistersTheRunWithOneAck) {
  QueueChannel channel;
  ServerOptions options;
  options.expected_clients = 5;
  options.concurrency = 2;
  auto server = MakeServer(&channel, options);
  server->HandleMessage(JoinFrom(1));
  JoinRun run;
  run.first = 2;
  run.resp_scores = {0.5, 1.5, 2.5, 3.5};
  run.num_train = {10, 20, 30, 40};
  server->HandleMessage(MakeRangeJoin(run));
  EXPECT_EQ(server->joined_clients(), 5);
  // One plain ack for the plain join, one range ack for the run, then the
  // first cohort.
  std::vector<Message> acks;
  int broadcasts = 0;
  while (!channel.Empty()) {
    Message m = channel.Pop();
    if (m.msg_type == events::kAssignId) acks.push_back(m);
    if (m.msg_type == events::kModelPara) ++broadcasts;
  }
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_FALSE(IsRangeMessage(acks[0]));
  EXPECT_EQ(acks[0].receiver, 1);
  ASSERT_TRUE(IsRangeMessage(acks[1]));
  const ClientRange acked = ClientRange::Of(acks[1]);
  EXPECT_EQ(acked.first(), 2);
  EXPECT_EQ(acked.size(), 4);
  // Each member's copy reads as the per-id ack it stands for.
  const Message copy = ClientRange::PerIdCopy(acks[1], 4);
  EXPECT_FALSE(IsRangeMessage(copy));
  EXPECT_EQ(copy.receiver, 4);
  EXPECT_EQ(copy.payload.GetInt("assigned_id"), 4);
  EXPECT_EQ(broadcasts, 2);
}

TEST(ServerTest, FinishCoversExactlyTheMembers) {
  // Members that failed or were quarantined leave the course; the one
  // range-addressed finish must address every other member and neither of
  // them.
  QueueChannel channel;
  ServerOptions options;
  options.expected_clients = 6;
  options.concurrency = 2;
  options.max_rounds = 5;
  options.target_accuracy = 0.5;
  options.guard.enabled = true;
  options.guard.quarantine_after = 1;
  auto server = MakeServer(&channel, options);
  server->set_evaluator([](Model*) {
    EvalResult r;
    r.accuracy = 0.9;  // the first aggregation reaches the target
    return r;
  });
  for (int id = 1; id <= 6; ++id) server->HandleMessage(JoinFrom(id));
  auto drain_cohort = [&channel] {
    std::vector<int> cohort;
    while (!channel.Empty()) {
      Message m = channel.Pop();
      if (m.msg_type == events::kModelPara) cohort.push_back(m.receiver);
    }
    return cohort;
  };
  std::vector<int> cohort = drain_cohort();
  ASSERT_EQ(cohort.size(), 2u);

  // An idle member fails.
  int failed = 1;
  while (failed == cohort[0] || failed == cohort[1]) ++failed;
  Message failure;
  failure.sender = failed;
  failure.receiver = kServerId;
  failure.msg_type = events::kClientFailure;
  server->HandleMessage(failure);

  // A cohort member sends poison and is quarantined; its slot is refilled.
  Model ref = TestModel(7);
  const int poisoner = cohort[0];
  server->HandleMessage(UpdateFrom(poisoner, 0, &ref,
                                   std::numeric_limits<float>::quiet_NaN()));
  ASSERT_EQ(server->stats().quarantined, std::vector<int>{poisoner});
  std::vector<int> refill = drain_cohort();
  ASSERT_EQ(refill.size(), 1u);

  server->HandleMessage(UpdateFrom(cohort[1], 0, &ref, 0.1f));
  server->HandleMessage(UpdateFrom(refill[0], 0, &ref, 0.1f));
  ASSERT_TRUE(server->finished());

  std::vector<Message> finishes;
  while (!channel.Empty()) {
    Message m = channel.Pop();
    if (m.msg_type == events::kFinish) finishes.push_back(m);
  }
  ASSERT_EQ(finishes.size(), 1u);
  ASSERT_TRUE(IsRangeMessage(finishes[0]));
  const ClientRange members = ClientRange::Of(finishes[0]);
  EXPECT_EQ(members.size(), 4);
  for (int id = 1; id <= 6; ++id) {
    EXPECT_EQ(members.Contains(id), id != failed && id != poisoner)
        << "client " << id;
  }
  // The per-id copy is the plain finish a member always got.
  const Message copy = ClientRange::PerIdCopy(finishes[0], cohort[1]);
  EXPECT_FALSE(IsRangeMessage(copy));
  EXPECT_EQ(copy.receiver, cohort[1]);
  EXPECT_EQ(copy.state, server->round());
}

TEST(ServerTest, SyncAggregatesWhenAllReceived) {
  QueueChannel channel;
  ServerOptions options;
  options.expected_clients = 2;
  options.concurrency = 2;
  options.max_rounds = 10;
  auto server = MakeServer(&channel, options);
  server->HandleMessage(JoinFrom(1));
  server->HandleMessage(JoinFrom(2));
  while (!channel.Empty()) channel.Pop();

  Model ref = TestModel(7);
  StateDict before = server->global_model()->GetStateDict();
  server->HandleMessage(UpdateFrom(1, 0, &ref, 1.0f));
  EXPECT_EQ(server->round(), 0);  // waiting for the second client
  server->HandleMessage(UpdateFrom(2, 0, &ref, 3.0f));
  EXPECT_EQ(server->round(), 1);
  StateDict after = server->global_model()->GetStateDict();
  // delta averaged: (1 + 3)/2 = 2 added to every coordinate.
  StateDict diff = SdSub(after, before);
  for (const auto& [name, tensor] : diff) {
    for (int64_t i = 0; i < tensor.numel(); ++i) {
      EXPECT_NEAR(tensor.at(i), 2.0f, 1e-5);
    }
  }
  EXPECT_EQ(server->stats().agg_count[1], 1);
  EXPECT_EQ(server->stats().agg_count[2], 1);
}

TEST(ServerTest, StaleUpdateBeyondToleranceDropped) {
  QueueChannel channel;
  ServerOptions options;
  options.expected_clients = 2;
  options.concurrency = 2;
  options.strategy = Strategy::kAsyncGoal;
  options.aggregation_goal = 1;
  options.staleness_tolerance = 0;
  options.max_rounds = 100;
  auto server = MakeServer(&channel, options);
  server->HandleMessage(JoinFrom(1));
  server->HandleMessage(JoinFrom(2));
  while (!channel.Empty()) channel.Pop();

  Model ref = TestModel(7);
  server->HandleMessage(UpdateFrom(1, 0, &ref, 1.0f));  // fresh, aggregates
  EXPECT_EQ(server->round(), 1);
  server->HandleMessage(UpdateFrom(2, 0, &ref, 1.0f));  // staleness 1 > 0
  EXPECT_EQ(server->round(), 1);  // dropped, no aggregation
  EXPECT_EQ(server->stats().dropped_stale, 1);
}

TEST(ServerTest, TargetAccuracyTriggersFinish) {
  QueueChannel channel;
  ServerOptions options;
  options.expected_clients = 1;
  options.concurrency = 1;
  options.target_accuracy = 0.5;
  options.max_rounds = 100;
  auto server = MakeServer(&channel, options);
  server->set_evaluator([](Model*) {
    EvalResult r;
    r.accuracy = 0.9;  // instantly above target
    return r;
  });
  server->HandleMessage(JoinFrom(1));
  while (!channel.Empty()) channel.Pop();
  Model ref = TestModel(7);
  server->HandleMessage(UpdateFrom(1, 0, &ref, 0.1f));
  EXPECT_TRUE(server->finished());
  EXPECT_TRUE(server->stats().reached_target);
  // A finish message went out to the client.
  bool finish_seen = false;
  while (!channel.Empty()) {
    if (channel.Pop().msg_type == events::kFinish) finish_seen = true;
  }
  EXPECT_TRUE(finish_seen);
}

TEST(ServerTest, MaxRoundsTerminates) {
  QueueChannel channel;
  ServerOptions options;
  options.expected_clients = 1;
  options.concurrency = 1;
  options.max_rounds = 2;
  auto server = MakeServer(&channel, options);
  server->HandleMessage(JoinFrom(1));
  while (!channel.Empty()) channel.Pop();
  Model ref = TestModel(7);
  server->HandleMessage(UpdateFrom(1, 0, &ref, 0.1f));
  EXPECT_FALSE(server->finished());
  server->HandleMessage(UpdateFrom(1, 1, &ref, 0.1f));
  EXPECT_TRUE(server->finished());
  EXPECT_EQ(server->stats().rounds, 2);
}

TEST(ServerTest, AfterReceivingBroadcastsImmediately) {
  QueueChannel channel;
  ServerOptions options;
  options.expected_clients = 3;
  options.concurrency = 2;
  options.strategy = Strategy::kAsyncGoal;
  options.aggregation_goal = 5;  // won't trigger here
  options.broadcast = BroadcastManner::kAfterReceiving;
  auto server = MakeServer(&channel, options);
  for (int id = 1; id <= 3; ++id) server->HandleMessage(JoinFrom(id));
  while (!channel.Empty()) channel.Pop();

  Model ref = TestModel(7);
  server->HandleMessage(UpdateFrom(1, 0, &ref, 0.1f));
  // No aggregation (goal 5), but one new model_para goes out immediately.
  int broadcasts = 0;
  while (!channel.Empty()) {
    if (channel.Pop().msg_type == events::kModelPara) ++broadcasts;
  }
  EXPECT_EQ(broadcasts, 1);
  EXPECT_EQ(server->round(), 0);
}

TEST(ServerTest, TimerDrivesTimeUpAggregation) {
  QueueChannel channel;
  ServerOptions options;
  options.expected_clients = 2;
  options.concurrency = 2;
  options.strategy = Strategy::kAsyncTime;
  options.time_budget = 10.0;
  options.min_received = 1;
  auto server = MakeServer(&channel, options);
  server->HandleMessage(JoinFrom(1));
  server->HandleMessage(JoinFrom(2));
  // Drain join traffic; a timer message to self must have been scheduled.
  bool timer_scheduled = false;
  Message timer;
  while (!channel.Empty()) {
    Message m = channel.Pop();
    if (m.msg_type == events::kTimer && m.receiver == kServerId) {
      timer_scheduled = true;
      timer = m;
    }
  }
  ASSERT_TRUE(timer_scheduled);
  EXPECT_DOUBLE_EQ(timer.timestamp, 10.0);

  Model ref = TestModel(7);
  server->HandleMessage(UpdateFrom(1, 0, &ref, 1.0f));
  EXPECT_EQ(server->round(), 0);  // waits for the timer
  server->HandleMessage(timer);
  EXPECT_EQ(server->round(), 1);  // time_up fired aggregation
}

TEST(ServerTest, TimerWithNoFeedbackExtendsRound) {
  QueueChannel channel;
  ServerOptions options;
  options.expected_clients = 2;
  options.concurrency = 2;
  options.strategy = Strategy::kAsyncTime;
  options.time_budget = 10.0;
  options.min_received = 1;
  auto server = MakeServer(&channel, options);
  server->HandleMessage(JoinFrom(1));
  server->HandleMessage(JoinFrom(2));
  Message timer;
  while (!channel.Empty()) {
    Message m = channel.Pop();
    if (m.msg_type == events::kTimer) timer = m;
  }
  server->HandleMessage(timer);  // no updates buffered -> remedial measures
  EXPECT_EQ(server->round(), 0);
  bool new_timer = false;
  while (!channel.Empty()) {
    Message m = channel.Pop();
    if (m.msg_type == events::kTimer) {
      new_timer = true;
      EXPECT_DOUBLE_EQ(m.timestamp, 20.0);
    }
  }
  EXPECT_TRUE(new_timer);
}

TEST(ServerTest, DeclinedUpdateFreesSlotInSync) {
  QueueChannel channel;
  ServerOptions options;
  options.expected_clients = 2;
  options.concurrency = 2;
  options.max_rounds = 10;
  auto server = MakeServer(&channel, options);
  server->HandleMessage(JoinFrom(1));
  server->HandleMessage(JoinFrom(2));
  while (!channel.Empty()) channel.Pop();

  // Client 2 declines; the sync trigger must fire on client 1 alone.
  Message decline;
  decline.sender = 2;
  decline.receiver = kServerId;
  decline.msg_type = events::kModelUpdate;
  decline.state = 0;
  decline.payload.SetInt("declined", 1);
  server->HandleMessage(decline);
  EXPECT_EQ(server->round(), 0);
  EXPECT_EQ(server->stats().declined, 1);

  Model ref = TestModel(7);
  server->HandleMessage(UpdateFrom(1, 0, &ref, 1.0f));
  EXPECT_EQ(server->round(), 1);  // aggregated without client 2
}

TEST(ServerTest, StalenessLogRecordsContributions) {
  QueueChannel channel;
  ServerOptions options;
  options.expected_clients = 2;
  options.concurrency = 2;
  options.strategy = Strategy::kAsyncGoal;
  options.aggregation_goal = 1;
  options.staleness_tolerance = 10;
  options.max_rounds = 10;
  auto server = MakeServer(&channel, options);
  server->HandleMessage(JoinFrom(1));
  server->HandleMessage(JoinFrom(2));
  while (!channel.Empty()) channel.Pop();
  Model ref = TestModel(7);
  server->HandleMessage(UpdateFrom(1, 0, &ref, 0.1f));  // staleness 0
  server->HandleMessage(UpdateFrom(2, 0, &ref, 0.1f));  // staleness 1
  const auto& log = server->stats().staleness_log;
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 0);
  EXPECT_EQ(log[1], 1);
}

TEST(ServerTest, StalenessExactlyAtToleranceIsKept) {
  // §3.3.1-i boundary: an update whose staleness equals the toleration is
  // the oldest acceptable contribution — it must be aggregated, not dropped.
  QueueChannel channel;
  ServerOptions options;
  options.expected_clients = 2;
  options.concurrency = 2;
  options.strategy = Strategy::kAsyncGoal;
  options.aggregation_goal = 1;
  options.staleness_tolerance = 1;
  options.max_rounds = 10;
  auto server = MakeServer(&channel, options);
  server->HandleMessage(JoinFrom(1));
  server->HandleMessage(JoinFrom(2));
  while (!channel.Empty()) channel.Pop();
  Model ref = TestModel(7);
  server->HandleMessage(UpdateFrom(1, 0, &ref, 0.1f));  // round 0 -> 1
  EXPECT_EQ(server->round(), 1);
  server->HandleMessage(UpdateFrom(2, 0, &ref, 0.1f));  // staleness == 1
  EXPECT_EQ(server->round(), 2);  // aggregated, round advanced
  EXPECT_EQ(server->stats().dropped_stale, 0);
  const auto& log = server->stats().staleness_log;
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1], 1);  // kept at exactly the toleration
}

TEST(ServerTest, StalenessOnePastToleranceIsDropped) {
  // One version past the toleration flips the verdict: the update is
  // discarded entirely and contributes nothing to any aggregation.
  QueueChannel channel;
  ServerOptions options;
  options.expected_clients = 2;
  options.concurrency = 2;
  options.strategy = Strategy::kAsyncGoal;
  options.aggregation_goal = 1;
  options.staleness_tolerance = 1;
  options.max_rounds = 10;
  auto server = MakeServer(&channel, options);
  server->HandleMessage(JoinFrom(1));
  server->HandleMessage(JoinFrom(2));
  while (!channel.Empty()) channel.Pop();
  Model ref = TestModel(7);
  server->HandleMessage(UpdateFrom(1, 0, &ref, 0.1f));  // round 0 -> 1
  server->HandleMessage(UpdateFrom(1, 1, &ref, 0.1f));  // round 1 -> 2
  EXPECT_EQ(server->round(), 2);
  server->HandleMessage(UpdateFrom(2, 0, &ref, 0.1f));  // staleness == 2
  EXPECT_EQ(server->round(), 2);  // dropped: no aggregation happened
  EXPECT_EQ(server->stats().dropped_stale, 1);
  EXPECT_EQ(server->stats().staleness_log.size(), 2u);
}

/// Receivers of the model_para broadcasts queued on `channel` (drains it).
std::vector<int> DrainBroadcastReceivers(QueueChannel* channel) {
  std::vector<int> receivers;
  while (!channel->Empty()) {
    Message m = channel->Pop();
    if (m.msg_type == events::kModelPara) receivers.push_back(m.receiver);
  }
  return receivers;
}

TEST(ServerSnapshotTest, MembershipGapsSurviveExportRestoreExport) {
  // Membership with holes: a failed idle client, a failed in-flight
  // client, the largest id failing, and a quarantined client. The
  // snapshot must reproduce its own bytes after a round trip, and the
  // restored server must draw the same replacement cohort next.
  QueueChannel channel;
  ServerOptions options;
  options.strategy = Strategy::kAsyncGoal;
  options.broadcast = BroadcastManner::kAfterReceiving;
  options.expected_clients = 12;
  options.concurrency = 3;
  options.aggregation_goal = 100;  // never aggregates: each update re-samples
  options.max_rounds = 10;
  options.seed = 11;
  options.guard.enabled = true;
  options.guard.quarantine_after = 1;
  auto server = MakeServer(&channel, options);
  for (int id = 1; id <= 12; ++id) server->HandleMessage(JoinFrom(id));
  std::vector<int> in_flight = DrainBroadcastReceivers(&channel);
  ASSERT_EQ(in_flight.size(), 3u);

  const auto failure_from = [](int id) {
    Message msg;
    msg.sender = id;
    msg.receiver = kServerId;
    msg.msg_type = events::kClientFailure;
    return msg;
  };
  // Fails `id` and keeps the in-flight list current: a busy client is
  // presumed dead and replaced, an idle one just leaves the pool.
  std::vector<int> gone;
  const auto fail = [&](int id) {
    const auto it = std::find(in_flight.begin(), in_flight.end(), id);
    const bool busy = it != in_flight.end();
    if (busy) in_flight.erase(it);
    server->HandleMessage(failure_from(id));
    gone.push_back(id);
    const std::vector<int> replacement = DrainBroadcastReceivers(&channel);
    ASSERT_EQ(replacement.size(), busy ? 1u : 0u) << "client " << id;
    in_flight.insert(in_flight.end(), replacement.begin(), replacement.end());
  };
  fail(12);  // the largest id: a gap at the top of the range
  for (int id = 1;; ++id) {
    if (std::find(in_flight.begin(), in_flight.end(), id) == in_flight.end()) {
      fail(id);  // an idle client
      break;
    }
  }
  fail(in_flight.front());  // an in-flight client
  // A non-finite update quarantines its sender, whose slot is refilled.
  Model ref = TestModel(7);
  const int hostile = in_flight.front();
  in_flight.erase(in_flight.begin());
  server->HandleMessage(UpdateFrom(hostile, 0, &ref,
                                   std::numeric_limits<float>::quiet_NaN()));
  gone.push_back(hostile);
  ASSERT_EQ(server->stats().quarantined, std::vector<int>{hostile});
  const std::vector<int> refill = DrainBroadcastReceivers(&channel);
  ASSERT_EQ(refill.size(), 1u);
  in_flight.push_back(refill[0]);
  EXPECT_EQ(server->joined_clients(), 12 - 4);

  Checkpoint exported;
  server->ExportSnapshot(&exported);
  const std::vector<uint8_t> bytes = SerializeCheckpoint(exported);
  auto decoded = DeserializeCheckpoint(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  QueueChannel restored_channel;
  auto restored = MakeServer(&restored_channel, options);
  ASSERT_TRUE(restored->RestoreSnapshot(decoded.value()).ok());
  EXPECT_EQ(restored->joined_clients(), 12 - 4);
  Checkpoint reexported;
  restored->ExportSnapshot(&reexported);
  EXPECT_EQ(SerializeCheckpoint(reexported), bytes);

  // The next draws: the same update reaches both servers, and each refills
  // the freed slot from its idle pool.
  for (int draw_index = 0; draw_index < 3; ++draw_index) {
    const int sender = in_flight.front();
    in_flight.erase(in_flight.begin());
    server->HandleMessage(UpdateFrom(sender, 0, &ref, 0.1f));
    restored->HandleMessage(UpdateFrom(sender, 0, &ref, 0.1f));
    const std::vector<int> draw = DrainBroadcastReceivers(&channel);
    ASSERT_EQ(draw.size(), 1u);
    EXPECT_EQ(DrainBroadcastReceivers(&restored_channel), draw)
        << "draw " << draw_index;
    for (int id : gone) EXPECT_NE(draw[0], id);
    in_flight.push_back(draw[0]);
  }
}

// ---------------------------------------------------------------------------
// Extensibility: new <event, handler> pairs with user-defined message
// types (paper §3.6 — "users can add new events related to message passing
// to enable heterogeneous information exchange").
// ---------------------------------------------------------------------------

TEST(ExtensibilityTest, CustomMessageTypeFlowsBetweenCustomHandlers) {
  QueueChannel channel;
  auto client = MakeClient(1, &channel);

  // The user replaces the FedAvg training behaviour: on model_para the
  // client shares raw *gradients* (a new message type) instead of deltas.
  client->registry().Register(
      events::kModelPara,
      [&](const Message& msg) {
        Message reply;
        reply.sender = 1;
        reply.receiver = kServerId;
        reply.msg_type = "gradients";
        reply.state = msg.state;
        reply.payload.SetTensor("grad/w", Tensor::FromVector({0.25f}));
        channel.Send(reply);
      },
      /*emits=*/{"gradients"});

  Model global = TestModel();
  client->HandleMessage(BroadcastTo(1, &global, 3));
  ASSERT_EQ(channel.Size(), 1u);
  Message out = channel.Pop();
  EXPECT_EQ(out.msg_type, "gradients");
  EXPECT_EQ(out.state, 3);

  // A custom server-side handler consumes the new type.
  ServerOptions options;
  options.expected_clients = 1;
  auto server = std::make_unique<Server>(
      options, TestModel(), std::make_unique<FedAvgAggregator>(), &channel);
  int gradients_seen = 0;
  server->registry().Register("gradients", [&](const Message& msg) {
    gradients_seen += msg.payload.HasTensor("grad/w") ? 1 : 0;
  });
  server->HandleMessage(out);
  EXPECT_EQ(gradients_seen, 1);
}

TEST(ExtensibilityTest, OverwritingServerConditionHandlerChangesBehaviour) {
  // The §3.2 overwriting principle at the server: a user replaces the
  // all_received handler, so the default aggregation never runs.
  QueueChannel channel;
  ServerOptions options;
  options.expected_clients = 1;
  options.concurrency = 1;
  auto server = MakeServer(&channel, options);
  int custom_calls = 0;
  server->registry().Register(events::kAllReceived,
                              [&](const Message&) { ++custom_calls; });
  server->HandleMessage(JoinFrom(1));
  while (!channel.Empty()) channel.Pop();
  Model ref = TestModel(7);
  server->HandleMessage(UpdateFrom(1, 0, &ref, 1.0f));
  EXPECT_EQ(custom_calls, 1);
  EXPECT_EQ(server->round(), 0);  // default aggregation was replaced
}

TEST(ExtensibilityTest, PerformanceDropCanRejectHarmfulGlobal) {
  // §3.4.1: each participant may choose the most suitable snapshot of the
  // global model. The client trains locally once, then receives a garbage
  // global; with reject_harmful_global it rolls back to its own snapshot.
  QueueChannel channel;
  ClientOptions options;
  options.perf_drop_threshold = 0.1;
  options.reject_harmful_global = true;
  options.train.local_steps = 40;
  options.train.batch_size = 8;
  options.train.lr = 0.3;
  auto client = MakeClient(1, &channel, options);

  // Round 0: a sane global; the client trains and records val accuracy.
  Model good = TestModel(42);
  client->HandleMessage(BroadcastTo(1, &good, 0));
  channel.Pop();
  ASSERT_GT(client->EvaluateLocalVal().accuracy, 0.8);
  const StateDict trained = client->model()->GetStateDict();

  // Round 1: a destroyed global model arrives.
  Model garbage = TestModel(43);
  for (auto& p : garbage.Params()) {
    for (int64_t i = 0; i < p.value->numel(); ++i) {
      p.value->at(i) = (i % 2 == 0) ? 50.0f : -50.0f;
    }
  }
  ClientOptions frozen = options;
  (void)frozen;
  // Stop local training this round so we observe the rejection directly.
  client->options().train.local_steps = 0;
  client->HandleMessage(BroadcastTo(1, &garbage, 1));
  channel.Pop();

  EXPECT_EQ(client->perf_drop_count(), 1);
  EXPECT_EQ(client->rejected_globals(), 1);
  // The client kept its own parameters, not the garbage.
  EXPECT_TRUE(client->model()->GetStateDict() == trained);
}

TEST(ExtensibilityTest, PerformanceDropWithoutRejectionKeepsGlobal) {
  QueueChannel channel;
  ClientOptions options;
  options.perf_drop_threshold = 0.1;
  options.reject_harmful_global = false;  // default: count only
  options.train.local_steps = 40;
  options.train.batch_size = 8;
  options.train.lr = 0.3;
  auto client = MakeClient(1, &channel, options);
  Model good = TestModel(42);
  client->HandleMessage(BroadcastTo(1, &good, 0));
  channel.Pop();

  Model garbage = TestModel(43);
  for (auto& p : garbage.Params()) {
    for (int64_t i = 0; i < p.value->numel(); ++i) p.value->at(i) = 50.0f;
  }
  client->options().train.local_steps = 0;
  client->HandleMessage(BroadcastTo(1, &garbage, 1));
  channel.Pop();
  EXPECT_EQ(client->perf_drop_count(), 1);
  EXPECT_EQ(client->rejected_globals(), 0);
  EXPECT_TRUE(client->model()->GetStateDict() == garbage.GetStateDict());
}

TEST(ExtensibilityTest, UnregisteringHandlerDisablesBehaviour) {
  QueueChannel channel;
  auto client = MakeClient(1, &channel);
  ASSERT_TRUE(client->registry().Unregister(events::kModelPara));
  Model global = TestModel();
  client->HandleMessage(BroadcastTo(1, &global, 0));
  EXPECT_TRUE(channel.Empty());  // no handler, message dropped
}


}  // namespace
}  // namespace fedscope
