// The threaded execution backend's determinism contract (DESIGN.md §12):
// under any worker count, a course must be bit-identical to the serial
// run — models, curves, tap sequences, and obs exports. The differential
// fuzz oracle (oracle 11) covers the lattice; these tests pin the
// contract on representative courses and the exec/ building blocks.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fedscope/core/fed_runner.h"
#include "fedscope/data/synthetic_cifar.h"
#include "fedscope/exec/buffering_channel.h"
#include "fedscope/exec/worker_pool.h"
#include "fedscope/nn/model_zoo.h"

namespace fedscope {
namespace {

TEST(WorkerPoolTest, RunsEveryTaskAndBlocksUntilDone) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<int> done(64, 0);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < done.size(); ++i) {
    tasks.push_back([&done, i] { done[i] = 1; });
  }
  pool.Run(&tasks);
  // Run is the barrier: every write is visible once it returns.
  for (int d : done) EXPECT_EQ(d, 1);
}

TEST(WorkerPoolTest, ReusableAcrossBatchesAndEmptyBatchIsNoop) {
  WorkerPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 3; ++i) tasks.push_back([&count] { ++count; });
    pool.Run(&tasks);
  }
  std::vector<std::function<void()>> empty;
  pool.Run(&empty);
  EXPECT_EQ(count.load(), 15);
}

TEST(WorkerPoolTest, SingleThreadPoolWorks) {
  WorkerPool pool(1);
  int sum = 0;
  std::vector<std::function<void()>> tasks;
  for (int i = 1; i <= 4; ++i) tasks.push_back([&sum, i] { sum += i; });
  pool.Run(&tasks);
  EXPECT_EQ(sum, 10);
}

TEST(WorkerPoolTest, CurrentIsScopedNestsAndIsNullInsideTasks) {
  WorkerPool outer(2);
  WorkerPool inner(3);
  EXPECT_EQ(WorkerPool::Current(), nullptr);
  {
    WorkerPool::ScopedCurrent outer_scope(&outer);
    EXPECT_EQ(WorkerPool::Current(), &outer);
    {
      WorkerPool::ScopedCurrent inner_scope(&inner);
      EXPECT_EQ(WorkerPool::Current(), &inner);
      {
        WorkerPool::ScopedCurrent none(nullptr);
        EXPECT_EQ(WorkerPool::Current(), nullptr);
      }
      EXPECT_EQ(WorkerPool::Current(), &inner);
    }
    EXPECT_EQ(WorkerPool::Current(), &outer);
    // The scope is the calling thread's alone: the pool's workers see none.
    std::vector<WorkerPool*> seen(8, &outer);
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < seen.size(); ++i) {
      tasks.push_back([&seen, i] { seen[i] = WorkerPool::Current(); });
    }
    outer.Run(&tasks);
    for (WorkerPool* pool : seen) EXPECT_EQ(pool, nullptr);
  }
  EXPECT_EQ(WorkerPool::Current(), nullptr);
}

TEST(BufferingChannelTest, PassthroughOutsideCaptureBufferInside) {
  QueueChannel inner;
  BufferingChannel port(&inner);
  Message m;
  m.msg_type = "direct";
  port.Send(m);
  EXPECT_EQ(inner.Size(), 1u);  // no capture window: forwarded

  std::vector<Message> sink;
  port.BeginCapture(&sink);
  m.msg_type = "buffered1";
  port.Send(m);
  m.msg_type = "buffered2";
  port.Send(m);
  port.EndCapture();
  EXPECT_EQ(inner.Size(), 1u);  // captured sends never reached the inner
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink[0].msg_type, "buffered1");
  EXPECT_EQ(sink[1].msg_type, "buffered2");

  m.msg_type = "direct2";
  port.Send(m);
  EXPECT_EQ(inner.Size(), 2u);  // window closed: passthrough again
}

// -- course-level bit-identity ----------------------------------------------

FedDataset SmallData(uint64_t seed = 2) {
  SyntheticCifarOptions options;
  options.num_clients = 8;
  options.pool_size = 400;
  options.alpha = 1.0;
  options.image_size = 8;
  options.server_test_size = 128;
  options.seed = seed;
  return MakeSyntheticCifar(options);
}

// The MLP expects flat input; flatten via a Flatten layer up front.
FedJob SmallJob(const FedDataset* data, uint64_t seed = 11) {
  Rng rng(seed);
  FedJob job;
  job.data = data;
  Model m;
  m.Add("flat", std::make_unique<Flatten>());
  Model mlp = MakeMlp({3 * 8 * 8, 32, 10}, &rng);
  for (int i = 0; i < mlp.num_layers(); ++i) {
    m.Add(mlp.layer_name(i), mlp.layer(i)->Clone());
  }
  job.init_model = std::move(m);
  job.server.concurrency = 4;
  job.server.max_rounds = 4;
  job.client.train.lr = 0.1;
  job.client.train.local_steps = 2;
  job.client.train.batch_size = 8;
  job.client.jitter_sigma = 0.1;
  job.seed = seed;
  return job;
}

FedJob ThreadedJob(const FedDataset* data, int threads, uint64_t seed = 11) {
  FedJob job = SmallJob(data, seed);
  job.exec.backend = ExecutionBackend::kThreaded;
  job.exec.num_threads = threads;
  return job;
}

void ExpectSameRun(RunResult& a, RunResult& b) {
  EXPECT_TRUE(a.final_model.GetStateDict() == b.final_model.GetStateDict());
  ASSERT_EQ(a.server.curve.size(), b.server.curve.size());
  for (size_t i = 0; i < a.server.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.server.curve[i].first, b.server.curve[i].first);
    EXPECT_DOUBLE_EQ(a.server.curve[i].second, b.server.curve[i].second);
  }
  EXPECT_EQ(a.server.rounds, b.server.rounds);
  EXPECT_EQ(a.server.staleness_log, b.server.staleness_log);
  EXPECT_EQ(a.client_test_accuracy, b.client_test_accuracy);
  EXPECT_EQ(a.client_test_loss, b.client_test_loss);
}

TEST(ParallelExecTest, ThreadedMatchesSerialBitIdentical) {
  FedDataset data = SmallData();
  RunResult serial = FedRunner(SmallJob(&data)).Run();
  for (int threads : {1, 2, 4}) {
    RunResult threaded = FedRunner(ThreadedJob(&data, threads)).Run();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameRun(serial, threaded);
  }
}

TEST(ParallelExecTest, ThreadedMatchesSerialWithZeroJitter) {
  // Zero jitter maximizes equal-virtual-time deliveries (whole cohorts
  // ready at once) — the widest batches the stage ever forms.
  FedDataset data = SmallData();
  auto job = [&data](int threads) {
    FedJob job = threads > 0 ? ThreadedJob(&data, threads) : SmallJob(&data);
    job.client.jitter_sigma = 0.0;
    job.server.concurrency = 8;
    return job;
  };
  RunResult serial = FedRunner(job(0)).Run();
  RunResult threaded = FedRunner(job(4)).Run();
  ExpectSameRun(serial, threaded);
}

TEST(ParallelExecTest, ThreadedMatchesSerialWithDecoratorsStacked) {
  // Full decorator stack: wire codec, top-k compression, a fault plan
  // that drops/duplicates/delays, and duplicate suppression. The fault
  // Judge consumes its rng in send order and the suppressor consumes its
  // state in pop order; canonical commit must preserve both.
  FedDataset data = SmallData();
  auto decorated = [&data](int threads) {
    FedJob job = threads > 0 ? ThreadedJob(&data, threads) : SmallJob(&data);
    job.server.max_rounds = 4;
    job.server.receive_deadline = 1.5;  // lossy sync needs the backstop
    job.client.compression = "topk";
    job.client.compression_keep_frac = 0.3;
    job.fault.dropout_frac = 0.2;
    job.fault.msg_loss_prob = 0.1;
    job.fault.msg_duplicate_prob = 0.2;
    job.fault.msg_delay_prob = 0.2;
    job.fault.msg_delay_max = 0.3;
    job.fault.seed = 99;
    job.suppress_duplicates = true;
    job.through_wire = true;
    return job;
  };
  RunResult serial = FedRunner(decorated(0)).Run();
  for (int threads : {2, 4}) {
    RunResult threaded = FedRunner(decorated(threads)).Run();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameRun(serial, threaded);
  }
}

TEST(ParallelExecTest, CrashDrillMatchesSerialUnderThreadedBackend) {
  // The kill must land between the same two deliveries regardless of
  // backend (the stage never batches across the crash boundary).
  FedDataset data = SmallData();
  auto crashing = [&data](int threads) {
    FedJob job = threads > 0 ? ThreadedJob(&data, threads) : SmallJob(&data);
    job.fault.server_crash_at_event = 17;
    return job;
  };
  RunResult serial = FedRunner(crashing(0)).Run();
  RunResult threaded = FedRunner(crashing(4)).Run();
  ExpectSameRun(serial, threaded);
}

// -- server evaluation fans out; client evaluation does not ----------------

// A GeneralTrainer whose Evaluate counts its calls, the calls made off the
// pump thread (inside pool tasks), and the calls that found a published
// pool, which client evaluation never may.
struct EvalProbe {
  std::thread::id pump = std::this_thread::get_id();
  std::atomic<int> calls{0};
  std::atomic<int> off_pump{0};
  std::atomic<int> pooled{0};
};

class PoolProbeTrainer : public GeneralTrainer {
 public:
  explicit PoolProbeTrainer(EvalProbe* probe) : probe_(probe) {}
  EvalResult Evaluate(Model* model, const Dataset& data) override {
    ++probe_->calls;
    if (std::this_thread::get_id() != probe_->pump) ++probe_->off_pump;
    if (WorkerPool::Current() != nullptr) ++probe_->pooled;
    return GeneralTrainer::Evaluate(model, data);
  }

 private:
  EvalProbe* probe_;
};

TEST(ParallelExecTest, ServerEvaluatorSeesCoursePoolClientsSeeNone) {
  FedDataset data = SmallData();
  for (int threads : {0, 2, 3}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    FedJob job = threads > 0 ? ThreadedJob(&data, threads) : SmallJob(&data);
    // Clients evaluate their validation split around every local training,
    // which the threaded backend runs in pool tasks; zero jitter lands
    // whole cohorts at one virtual instant, so the batches are wide.
    job.client.perf_drop_threshold = 1.0;
    job.client.jitter_sigma = 0.0;
    EvalProbe probe;
    job.trainer_factory = [&probe](int) {
      return std::make_unique<PoolProbeTrainer>(&probe);
    };
    std::vector<int> widths;  // server side: pump thread only
    job.evaluator = [&data, &widths](Model* model) {
      WorkerPool* pool = WorkerPool::Current();
      widths.push_back(pool == nullptr ? 0 : pool->num_threads());
      return EvaluateClassifier(model, data.server_test);
    };
    FedRunner(std::move(job)).Run();
    ASSERT_FALSE(widths.empty());
    for (int width : widths) EXPECT_EQ(width, threads);
    EXPECT_GT(probe.calls.load(), 0);
    if (threads > 0) EXPECT_GT(probe.off_pump.load(), 0);
    EXPECT_EQ(probe.pooled.load(), 0);
  }
}

// -- satellite: tap ordering under the threaded backend ---------------------

std::string Describe(const Message& m) {
  std::ostringstream out;
  out << m.msg_type << ":" << m.sender << "->" << m.receiver << "@" << m.state
      << " t=" << m.timestamp;
  return out.str();
}

struct TapLog {
  std::vector<std::string> sends;
  std::vector<std::string> deliveries;
};

TapLog RunWithTaps(FedJob job) {
  TapLog log;
  job.send_tap = [&log](const Message& m) { log.sends.push_back(Describe(m)); };
  job.delivery_tap = [&log](const Message& m) {
    log.deliveries.push_back(Describe(m));
  };
  FedRunner(std::move(job)).Run();
  return log;
}

TEST(ParallelExecTest, TapsFireAtCommitInCanonicalOrder) {
  // send_tap and delivery_tap must observe the exact serial sequences:
  // taps fire at commit, not while tasks run, so message-conservation
  // accounting is backend-independent.
  FedDataset data = SmallData();
  const TapLog serial = RunWithTaps(SmallJob(&data));
  for (int threads : {2, 4}) {
    const TapLog threaded = RunWithTaps(ThreadedJob(&data, threads));
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(serial.sends, threaded.sends);
    EXPECT_EQ(serial.deliveries, threaded.deliveries);
  }
}

// -- same-seed obs exports are bit-identical --------------------------------

struct ObsExports {
  std::string prometheus;
  std::string trace_json;
};

ObsExports RunWithObs(FedJob job) {
  MetricsRegistry metrics;
  Tracer tracer;
  job.obs.metrics = &metrics;
  job.obs.tracer = &tracer;
  FedRunner(std::move(job)).Run();
  return {metrics.PrometheusText(), tracer.ToChromeJson()};
}

TEST(ParallelExecTest, ObsExportsBitIdenticalToSerial) {
  // Per-task metric ops and trace events are buffered and replayed in
  // canonical order, so the full exports — including order-sensitive
  // queue-depth gauges and span sequences — match byte for byte.
  FedDataset data = SmallData();
  const ObsExports serial = RunWithObs(SmallJob(&data));
  for (int threads : {2, 4}) {
    const ObsExports threaded = RunWithObs(ThreadedJob(&data, threads));
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(serial.prometheus, threaded.prometheus);
    EXPECT_EQ(serial.trace_json, threaded.trace_json);
  }
}

}  // namespace
}  // namespace fedscope
