// Course benchmark binary: runs one workload's standalone FedRunner
// courses back to back for a wall-clock budget, checks every course's
// outputs, and prints the metrics as one JSON line (the last line of
// stdout).
//
//   coursebench --workload NAME --seed N --seconds S --trace 0|1
//               [--scratch DIR] [--trace-out FILE]
//   coursebench --self-test
//
// --trace 0 installs two hooks only (a timestamp at the first model_para
// delivery and one after each global evaluation) and reports the
// end-to-end metrics, scaled by the host's speed: before each course a
// fixed calibration kernel is timed, and every timing is divided by the
// kernel's fast-decile time over the run (in units of a reference
// kernel time). --trace 1 alternates untraced and traced courses;
// the traced ones wrap the public seams of FedJob (trainer and aggregator
// factories, evaluator, send/delivery taps, data provider) with spans and
// counters, and report per-layer metrics plus the tracing overhead. The
// spans of the last traced course are written as Chrome trace JSON to
// --trace-out. No timing is reported from a course that fails its check.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fedscope/comm/codec.h"
#include "fedscope/core/events.h"
#include "fedscope/obs/metrics.h"
#include "fedscope/util/logging.h"
#include "spans.h"
#include "workloads.h"

namespace coursebench {
namespace {

using namespace fedscope;

/// Captured sends replayed through the codec per message type.
constexpr size_t kReplayPerType = 32;
/// Fewest courses a --trace 0 run reports on (the course-level figures
/// are deciles over courses).
constexpr int kMinCourses = 10;
/// Fewest courses of each kind (untraced / traced) a --trace 1 run
/// reports on.
constexpr int kMinTracedCourses = 3;
/// Calibration kernels timed before each --trace 0 course.
constexpr int kCalibrationSamples = 10;
/// Timings are reported as if the calibration kernel's fast decile took
/// this long: on a host where it does, they read as wall-clock.
constexpr double kReferenceCalibrationMs = 1.0;
/// A run stops starting courses after this long, whatever it still lacks.
constexpr double kHardStopSeconds = 150.0;

// -- host stamp ---------------------------------------------------------------

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string HostJson() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream os;
  os << "{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"cpu_model\":" << JsonString(CpuModel())
     << ",\"build_type\":" << JsonString(COURSEBENCH_BUILD_TYPE)
     << ",\"compiler\":" << JsonString(compiler) << "}";
  return os.str();
}

/// Process peak resident set (VmHWM) in MiB; -1 when unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

// -- host speed ---------------------------------------------------------------

/// Times one fixed, cache-resident compute kernel (a 32x32 float matrix
/// product, repeated) in milliseconds. It shares no code with the
/// library, so its time follows only the speed the shared host gives this
/// process at the moment: between courses it is taken with no course
/// alive. On a 4-vCPU VM of a shared Xeon host, both it and the
/// workloads' fast deciles ran 15-40% slower in the host's slow phases.
double CalibrationMs() {
  constexpr int kN = 32;
  constexpr int kReps = 256;
  static float a[kN * kN];
  static float b[kN * kN];
  static float c[kN * kN];
  static volatile float sink = 0.0f;
  for (int i = 0; i < kN * kN; ++i) {
    a[i] = static_cast<float>(i % 7) * 0.125f;
    b[i] = static_cast<float>(i % 5) * 0.25f;
    c[i] = 0.0f;
  }
  const int64_t start = NowNs();
  for (int rep = 0; rep < kReps; ++rep) {
    for (int i = 0; i < kN; ++i) {
      for (int k = 0; k < kN; ++k) {
        const float v = a[i * kN + k];
        for (int j = 0; j < kN; ++j) c[i * kN + j] += v * b[k * kN + j];
      }
    }
  }
  const int64_t end = NowNs();
  sink = sink + c[kN + 1];
  return (end - start) * 1e-6;
}

// -- traced seams -------------------------------------------------------------

/// Counters the wrappers and taps of one traced course fill in.
struct LayerTally {
  std::atomic<int64_t> train_samples{0};
  int64_t events_sent = 0;
  int64_t events_delivered = 0;
  int64_t control_events = 0;
  int64_t client_deliveries = 0;
  int64_t messages_sent = 0;
  int64_t wire_bytes = 0;
  /// Per message type: sends seen and the first kReplayPerType of them.
  std::map<std::string, std::pair<int64_t, std::vector<Message>>> replay;
};

class TracedTrainer : public BaseTrainer {
 public:
  TracedTrainer(std::unique_ptr<BaseTrainer> inner, SpanRecorder* spans,
                LayerTally* tally)
      : inner_(std::move(inner)), spans_(spans), tally_(tally) {}

  void UpdateModel(Model* model, const StateDict& global_shared) override {
    ScopedSpan span(spans_, "nn.update_model");
    inner_->UpdateModel(model, global_shared);
  }
  TrainResult Train(Model* model, const Dataset& train,
                    const TrainConfig& config, Rng* rng) override {
    ScopedSpan span(spans_, "nn.train");
    TrainResult result = inner_->Train(model, train, config, rng);
    tally_->train_samples.fetch_add(result.num_samples,
                                    std::memory_order_relaxed);
    return result;
  }
  EvalResult Evaluate(Model* model, const Dataset& data) override {
    return inner_->Evaluate(model, data);
  }
  StateDict GetShareableState(Model* model,
                              const NameFilter& filter) override {
    return inner_->GetShareableState(model, filter);
  }
  void SaveState(Payload* p, const std::string& prefix) override {
    inner_->SaveState(p, prefix);
  }
  void LoadState(const Payload& p, const std::string& prefix,
                 const Model& reference) override {
    inner_->LoadState(p, prefix, reference);
  }

 private:
  std::unique_ptr<BaseTrainer> inner_;
  SpanRecorder* spans_;
  LayerTally* tally_;
};

class TracedAggregator : public Aggregator {
 public:
  TracedAggregator(std::unique_ptr<Aggregator> inner, SpanRecorder* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::string Name() const override { return inner_->Name(); }
  Result<StateDict> Aggregate(
      const StateDict& global,
      const std::vector<ClientUpdate>& updates) override {
    ScopedSpan span(spans_, "core.aggregate");
    return inner_->Aggregate(global, updates);
  }
  void SaveState(Payload* p, const std::string& prefix) const override {
    inner_->SaveState(p, prefix);
  }
  void LoadState(const Payload& p, const std::string& prefix) override {
    inner_->LoadState(p, prefix);
  }

 private:
  std::unique_ptr<Aggregator> inner_;
  SpanRecorder* spans_;
};

class TracedProvider : public ClientDataProvider {
 public:
  TracedProvider(const ClientDataProvider* inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  int num_clients() const override { return inner_->num_clients(); }
  int64_t TrainSize(int id) const override { return inner_->TrainSize(id); }
  SplitDataset MaterializeClient(int id) const override {
    ScopedSpan span(spans_, "data.materialize");
    return inner_->MaterializeClient(id);
  }
  const Dataset& server_test() const override {
    return inner_->server_test();
  }

 private:
  const ClientDataProvider* inner_;
  SpanRecorder* spans_;
};

bool SameMessage(const Message& a, const Message& b) {
  return a.sender == b.sender && a.receiver == b.receiver &&
         a.msg_type == b.msg_type && a.state == b.state &&
         a.timestamp == b.timestamp && a.payload == b.payload;
}

/// Replays the captured sends through the codec: per type, the mean
/// encode/decode time of the captured messages times the type's send
/// count. False when a decode differs from its original.
bool ReplayCodec(const LayerTally& tally, double* encode_s, double* decode_s) {
  *encode_s = 0.0;
  *decode_s = 0.0;
  for (const auto& [type, entry] : tally.replay) {
    const auto& [sent, captured] = entry;
    if (captured.empty()) continue;
    std::vector<std::vector<uint8_t>> encoded;
    encoded.reserve(captured.size());
    const int64_t t0 = NowNs();
    for (const Message& msg : captured) encoded.push_back(EncodeMessage(msg));
    const int64_t t1 = NowNs();
    std::vector<Result<Message>> decoded;
    decoded.reserve(captured.size());
    for (const auto& bytes : encoded) decoded.push_back(DecodeMessage(bytes));
    const int64_t t2 = NowNs();
    for (size_t i = 0; i < captured.size(); ++i) {
      if (!decoded[i].ok() || !SameMessage(decoded[i].value(), captured[i])) {
        return false;
      }
    }
    const double per_message = static_cast<double>(sent) / captured.size();
    *encode_s += (t1 - t0) * 1e-9 * per_message;
    *decode_s += (t2 - t1) * 1e-9 * per_message;
  }
  return true;
}

// -- one course ---------------------------------------------------------------

using Metrics = std::map<std::string, double>;

struct Course {
  std::string failure;  // empty: passed every check
  double setup_s = 0.0;
  double course_s = 0.0;
  double updates_per_s = 0.0;
  std::vector<double> round_ms;
  Metrics layers;  // traced courses only
  std::vector<Span> spans;
  // What every repetition of the seed must reproduce bit for bit.
  StateDict final_state;
  std::vector<std::pair<double, double>> curve;
  int rounds = 0;
};

bool Finite(const StateDict& state) {
  for (const auto& [name, t] : state) {
    for (int64_t i = 0; i < t.numel(); ++i) {
      if (!std::isfinite(t.at(i))) return false;
    }
  }
  return true;
}

Course RunCourse(const Workload& w, bool traced) {
  Course c;
  FedJob job = w.make_job();
  const int max_rounds = job.server.max_rounds;

  std::optional<SpanRecorder> recorder;
  SpanRecorder* spans = nullptr;
  LayerTally tally;
  MetricsRegistry registry;
  if (w.attach_metrics) job.obs.metrics = &registry;
  std::optional<TracedProvider> provider;

  // The two untraced hooks: the first model_para delivery, and every
  // global evaluation. The threaded backend calls the delivery tap when it
  // commits a batch, so there the stamp follows the first cohort's training.
  int64_t first_broadcast_ns = 0;
  std::vector<int64_t> eval_ns;
  const Dataset* test =
      job.provider != nullptr ? &job.provider->server_test()
                              : &job.data->server_test;
  if (traced) {
    recorder.emplace();
    spans = &*recorder;
    auto trainers = job.trainer_factory;
    job.trainer_factory = [trainers, spans, &tally](int id) {
      std::unique_ptr<BaseTrainer> inner =
          trainers ? trainers(id) : std::make_unique<GeneralTrainer>();
      return std::make_unique<TracedTrainer>(std::move(inner), spans, &tally);
    };
    auto aggregators = job.aggregator_factory;
    const double rho = job.staleness_rho;
    job.aggregator_factory = [aggregators, rho, spans] {
      std::unique_ptr<Aggregator> inner =
          aggregators ? aggregators()
                      : std::make_unique<FedAvgAggregator>(
                            FedAvgOptions{1.0, rho});
      return std::make_unique<TracedAggregator>(std::move(inner), spans);
    };
    if (job.provider != nullptr) {
      provider.emplace(job.provider, spans);
      job.provider = &*provider;
    }
    job.send_tap = [&tally](const Message& msg) {
      ++tally.events_sent;
      if (msg.sender == msg.receiver) return;  // self-addressed timers
      ++tally.messages_sent;
      tally.wire_bytes += static_cast<int64_t>(EncodedMessageSize(msg));
      auto& [count, captured] = tally.replay[msg.msg_type];
      ++count;
      if (captured.size() < kReplayPerType) captured.push_back(msg);
    };
  }
  job.delivery_tap = [&first_broadcast_ns, traced,
                      &tally](const Message& msg) {
    if (first_broadcast_ns == 0 && msg.msg_type == events::kModelPara) {
      first_broadcast_ns = NowNs();
    }
    if (!traced) return;
    ++tally.events_delivered;
    if (msg.msg_type == events::kJoinIn || msg.msg_type == events::kAssignId ||
        msg.msg_type == events::kFinish) {
      ++tally.control_events;
    }
    if (msg.receiver != kServerId && !IsAggregatorId(msg.receiver)) {
      ++tally.client_deliveries;
    }
  };
  job.evaluator = [test, spans, &eval_ns](Model* model) {
    EvalResult result;
    {
      ScopedSpan span(spans, "core.eval");
      result = EvaluateClassifier(model, *test);
    }
    eval_ns.push_back(NowNs());
    if (spans != nullptr) spans->set_round(static_cast<int>(eval_ns.size()));
    return result;
  };

  const int64_t start_ns = recorder ? recorder->spans()[0].start_ns : NowNs();
  FedRunner runner(std::move(job));
  const int64_t run_ns = NowNs();
  RunResult result = runner.Run();
  const int64_t end_ns = NowNs();
  if (recorder) recorder->EndRoot(end_ns);

  // -- correctness -----------------------------------------------------------
  c.final_state = result.final_model.GetStateDict();
  c.curve = result.server.curve;
  c.rounds = result.server.rounds;
  const ServerStats& stats = result.server;
  if (!Finite(c.final_state)) {
    c.failure = "final model is not finite";
  } else if (stats.rounds != max_rounds || stats.aborted) {
    c.failure = "completed " + std::to_string(stats.rounds) + " of " +
                std::to_string(max_rounds) + " rounds";
  } else if (stats.final_accuracy < w.accuracy_floor) {
    c.failure = "final accuracy " + std::to_string(stats.final_accuracy) +
                " below floor " + std::to_string(w.accuracy_floor);
  } else if (eval_ns.size() != static_cast<size_t>(max_rounds) ||
             first_broadcast_ns == 0) {
    c.failure = "expected one evaluation per round after a broadcast";
  }
  if (c.failure.empty() && w.expects_quarantine) {
    const std::set<int>& hostile = runner.fault_plan().hostile_clients();
    if (stats.quarantined.empty()) c.failure = "no client was quarantined";
    for (int id : stats.quarantined) {
      if (hostile.count(id) == 0) {
        c.failure = "benign client " + std::to_string(id) + " quarantined";
      }
    }
  }
  double encode_s = 0.0;
  double decode_s = 0.0;
  if (c.failure.empty() && traced &&
      !ReplayCodec(tally, &encode_s, &decode_s)) {
    c.failure = "codec replay decoded a message differently";
  }
  if (!c.failure.empty()) return c;

  // -- end-to-end timings ----------------------------------------------------
  int64_t aggregated = 0;
  for (int64_t n : stats.agg_count) aggregated += n;
  c.setup_s = (first_broadcast_ns - start_ns) * 1e-9;
  c.course_s = (end_ns - start_ns) * 1e-9;
  c.updates_per_s = aggregated / ((eval_ns.back() - first_broadcast_ns) * 1e-9);
  for (size_t i = 1; i < eval_ns.size(); ++i) {
    c.round_ms.push_back((eval_ns[i] - eval_ns[i - 1]) * 1e-6);
  }
  if (!traced) return c;

  // -- per-layer figures -----------------------------------------------------
  c.spans = recorder->spans();
  const std::vector<Span>& s = c.spans;
  Metrics& m = c.layers;
  const double train_s = BusySeconds(s, "nn.train");
  const int64_t samples = tally.train_samples.load();
  m["nn.train_s"] = train_s;
  m["nn.train_calls"] = static_cast<double>(CountOf(s, "nn.train"));
  m["nn.train_us_per_sample"] = samples > 0 ? train_s * 1e6 / samples : 0.0;
  m["nn.update_model_s"] = BusySeconds(s, "nn.update_model");
  m["core.eval_s"] = BusySeconds(s, "core.eval");
  m["core.eval_calls"] = static_cast<double>(CountOf(s, "core.eval"));
  m["core.aggregate_s"] = BusySeconds(s, "core.aggregate");
  m["core.aggregate_calls"] =
      static_cast<double>(CountOf(s, "core.aggregate"));
  m["core.updates_aggregated"] = static_cast<double>(aggregated);
  const int64_t judged = stats.updates_rejected + aggregated;
  m["core.guard_reject_frac"] =
      judged > 0 ? static_cast<double>(stats.updates_rejected) / judged : 0.0;
  m["core.quarantined"] = static_cast<double>(stats.quarantined.size());
  m["core.round_extensions"] = static_cast<double>(stats.round_extensions);
  m["core.snapshots_written"] =
      static_cast<double>(runner.snapshot_writer().snapshots_written());
  m["core.snapshot_bytes"] =
      static_cast<double>(runner.snapshot_writer().bytes_written());
  const double pump_self_s = SelfNs(s, run_ns, end_ns) * 1e-9;
  m["sim.events_sent"] = static_cast<double>(tally.events_sent);
  m["sim.events_delivered"] = static_cast<double>(tally.events_delivered);
  m["sim.control_events"] = static_cast<double>(tally.control_events);
  m["sim.pump_self_s"] = pump_self_s;
  m["sim.pump_ns_per_event"] =
      tally.events_delivered > 0 ? pump_self_s * 1e9 / tally.events_delivered
                                 : 0.0;
  m["exec.serial_frac"] =
      IdleFraction(s, "nn.train", first_broadcast_ns, eval_ns.back());
  m["exec.train_concurrency"] = Concurrency(s, "nn.train");
  m["data.materialize_s"] = BusySeconds(s, "data.materialize");
  m["data.materialize_calls"] =
      static_cast<double>(CountOf(s, "data.materialize"));
  const ClientCache* cache = runner.client_cache();
  const ClientCacheStats cs = cache != nullptr ? cache->stats()
                                               : ClientCacheStats{};
  m["cache.instantiations"] = static_cast<double>(cs.instantiations);
  m["cache.restores"] = static_cast<double>(cs.restores);
  m["cache.evictions"] = static_cast<double>(cs.evictions);
  m["cache.live_peak"] = static_cast<double>(cs.live_peak);
  m["cache.reuse_ratio"] =
      cache != nullptr && tally.client_deliveries > 0
          ? 1.0 - static_cast<double>(cs.instantiations) /
                      tally.client_deliveries
          : 0.0;
  m["comm.messages_sent"] = static_cast<double>(tally.messages_sent);
  m["comm.wire_bytes"] = static_cast<double>(tally.wire_bytes);
  m["comm.encode_s"] = encode_s;
  m["comm.decode_s"] = decode_s;
  return c;
}

// -- the run ------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".";
  std::string trace_out;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return args->self_test || have_workload;
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

/// Unit of every metric this binary reports; BENCHMARK.json lists the same.
const std::map<std::string, std::string>& Units() {
  static const std::map<std::string, std::string> units = {
      {"setup_s", "s"},
      {"round_ms_p10", "ms"},
      {"course_s_p10", "s"},
      {"updates_per_s_p90", "1/s"},
      {"peak_rss_mb", "MB"},
      {"nn.train_s", "s"},
      {"nn.train_calls", "count"},
      {"nn.train_us_per_sample", "us"},
      {"nn.update_model_s", "s"},
      {"core.eval_s", "s"},
      {"core.eval_calls", "count"},
      {"core.aggregate_s", "s"},
      {"core.aggregate_calls", "count"},
      {"core.updates_aggregated", "count"},
      {"core.guard_reject_frac", "ratio"},
      {"core.quarantined", "count"},
      {"core.round_extensions", "count"},
      {"core.snapshots_written", "count"},
      {"core.snapshot_bytes", "B"},
      {"sim.events_sent", "count"},
      {"sim.events_delivered", "count"},
      {"sim.control_events", "count"},
      {"sim.pump_self_s", "s"},
      {"sim.pump_ns_per_event", "ns"},
      {"exec.serial_frac", "ratio"},
      {"exec.train_concurrency", "ratio"},
      {"data.materialize_s", "s"},
      {"data.materialize_calls", "count"},
      {"cache.instantiations", "count"},
      {"cache.restores", "count"},
      {"cache.evictions", "count"},
      {"cache.live_peak", "count"},
      {"cache.reuse_ratio", "ratio"},
      {"comm.messages_sent", "count"},
      {"comm.wire_bytes", "B"},
      {"comm.encode_s", "s"},
      {"comm.decode_s", "s"},
      {"bench.trace_overhead_frac", "ratio"},
  };
  return units;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: coursebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scratch DIR] [--trace-out FILE]\n"
                 "       coursebench --self-test\n");
    return 2;
  }
  if (args.self_test) return SelfTest();
  Logging::set_min_level(LogLevel::kError);

  const std::string scratch =
      args.scratch + "/run-" + std::to_string(::getpid());
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, scratch, &w)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const std::string host = HostJson();
  std::printf("{\"host\":%s,\"workload\":%s,\"seed\":%llu,\"trace\":%d}\n",
              host.c_str(), JsonString(args.workload).c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);

  const int64_t start_ns = NowNs();
  const auto elapsed = [start_ns] { return (NowNs() - start_ns) * 1e-9; };
  std::vector<Course> untraced;
  std::vector<Course> traced;
  std::vector<double> round_ms;
  std::vector<double> calibration_ms;
  int attempted = 0;
  int failed = 0;
  std::optional<Course> reference;
  const auto enough = [&] {
    if (args.trace) {
      return static_cast<int>(untraced.size()) >= kMinTracedCourses &&
             static_cast<int>(traced.size()) >= kMinTracedCourses;
    }
    return static_cast<int>(untraced.size()) >= kMinCourses &&
           SamplesBelow(round_ms, 0.1) >= 10;
  };
  while ((elapsed() < args.seconds || !enough()) &&
         elapsed() < kHardStopSeconds) {
    // Traced runs alternate so both kinds see the same machine state.
    const bool trace_this = args.trace && attempted % 2 == 1;
    if (!args.trace) {
      for (int i = 0; i < kCalibrationSamples; ++i) {
        calibration_ms.push_back(CalibrationMs());
      }
    }
    Course c = RunCourse(w, trace_this);
    std::filesystem::remove_all(scratch);
    ++attempted;
    if (c.failure.empty() && reference &&
        (!(c.final_state == reference->final_state) ||
         c.curve != reference->curve || c.rounds != reference->rounds)) {
      c.failure = "course differs from the first repetition of the seed";
    }
    if (!c.failure.empty()) {
      ++failed;
      std::printf("course %d failed: %s\n", attempted, c.failure.c_str());
      break;
    }
    std::fprintf(stderr,
                 "course %d%s: setup %.4f s, course %.4f s, round p50 %.4f "
                 "ms, final accuracy %.4f\n",
                 attempted, trace_this ? " (traced)" : "", c.setup_s,
                 c.course_s, Percentile(c.round_ms, 0.5),
                 c.curve.empty() ? 0.0 : c.curve.back().second);
    if (!reference) reference = c;
    if (trace_this) {
      traced.push_back(std::move(c));
    } else {
      round_ms.insert(round_ms.end(), c.round_ms.begin(), c.round_ms.end());
      untraced.push_back(std::move(c));
    }
  }

  const auto percentile_of = [](const std::vector<Course>& courses,
                                double Course::*field, double q) {
    std::vector<double> v;
    for (const Course& c : courses) v.push_back(c.*field);
    return Percentile(v, q);
  };
  const auto median_of = [&](const std::vector<Course>& courses,
                             double Course::*field) {
    return percentile_of(courses, field, 0.5);
  };
  if (failed == 0 && !enough()) {
    std::fprintf(stderr, "stopped after %.0f s without enough courses\n",
                 kHardStopSeconds);
    return 1;
  }
  Metrics metrics;
  if (failed > 0) {
    // No timing from a run whose courses did not all pass.
  } else if (!args.trace) {
    // Fast deciles: the courses and rounds the host's other tenants
    // disturbed least, over the kernel's own fast decile.
    const double slowdown =
        Percentile(calibration_ms, 0.1) / kReferenceCalibrationMs;
    const double setup_s = median_of(untraced, &Course::setup_s);
    const double round_p10 = Percentile(round_ms, 0.1);
    const double course_p10 = percentile_of(untraced, &Course::course_s, 0.1);
    const double updates_p90 =
        percentile_of(untraced, &Course::updates_per_s, 0.9);
    metrics["setup_s"] = setup_s / slowdown;
    metrics["round_ms_p10"] = round_p10 / slowdown;
    metrics["course_s_p10"] = course_p10 / slowdown;
    metrics["updates_per_s_p90"] = updates_p90 * slowdown;
    metrics["peak_rss_mb"] = PeakRssMb();
    std::printf(
        "%zu courses, %zu round samples (%d below p10, %d beyond p90); "
        "calibration kernel p10 %.4f ms, median %.4f ms over %zu samples\n",
        untraced.size(), round_ms.size(), SamplesBelow(round_ms, 0.1),
        SamplesBeyond(round_ms, 0.9), Percentile(calibration_ms, 0.1),
        Median(calibration_ms), calibration_ms.size());
    std::printf(
        "wall clock, unscaled: setup median %.4f s; round p10 %.4f, p50 "
        "%.4f, p90 %.4f ms; course p10 %.4f, median %.4f s; updates/s p90 "
        "%.1f, median %.1f\n",
        setup_s, round_p10, Percentile(round_ms, 0.5),
        Percentile(round_ms, 0.9), course_p10,
        median_of(untraced, &Course::course_s), updates_p90,
        median_of(untraced, &Course::updates_per_s));
  } else {
    for (const auto& [name, value] : traced.front().layers) {
      std::vector<double> v;
      for (const Course& c : traced) v.push_back(c.layers.at(name));
      metrics[name] = Median(v);
    }
    metrics["bench.trace_overhead_frac"] =
        median_of(traced, &Course::course_s) /
            median_of(untraced, &Course::course_s) -
        1.0;
    std::printf("%zu untraced and %zu traced courses\n", untraced.size(),
                traced.size());
    if (!args.trace_out.empty()) {
      const std::string meta = "{\"host\":" + host + ",\"workload\":" +
                               JsonString(args.workload) + ",\"seed\":" +
                               std::to_string(args.seed) + "}";
      if (!WriteChromeTrace(args.trace_out, traced.back().spans, meta)) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
        return 1;
      }
    }
  }

  std::string json = "{\"correct\":";
  json += failed == 0 ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(attempted) +
          ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    json += (first ? "" : ",") + JsonString(name) + ":{\"value\":" +
            Num(value) + ",\"unit\":" + JsonString(Units().at(name)) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace coursebench

int main(int argc, char** argv) { return coursebench::Main(argc, argv); }
