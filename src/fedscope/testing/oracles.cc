#include "fedscope/testing/oracles.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fedscope/comm/socket_transport.h"
#include "fedscope/core/client_range.h"
#include "fedscope/core/distributed.h"
#include "fedscope/core/events.h"
#include "fedscope/personalization/fedbn.h"
#include "fedscope/util/rng.h"

namespace fedscope {
namespace testing {
namespace {

bool Finite(double v) { return std::isfinite(v); }

bool StateDictsBitEqual(const StateDict& a, const StateDict& b,
                        std::string* detail) {
  if (a.size() != b.size()) {
    *detail = "parameter count differs";
    return false;
  }
  for (const auto& [name, tensor] : a) {
    const auto it = b.find(name);
    if (it == b.end()) {
      *detail = "missing parameter " + name;
      return false;
    }
    if (tensor.shape() != it->second.shape()) {
      *detail = "shape mismatch on " + name;
      return false;
    }
    for (int64_t k = 0; k < tensor.numel(); ++k) {
      // Bitwise comparison through memcmp semantics: NaN != NaN under
      // operator== would hide a NaN-poisoned model from the oracle.
      const float x = tensor.at(k);
      const float y = it->second.at(k);
      if (std::memcmp(&x, &y, sizeof(float)) != 0) {
        std::ostringstream out;
        out << name << "[" << k << "]: " << x << " vs " << y;
        *detail = out.str();
        return false;
      }
    }
  }
  return true;
}

void Check(std::vector<Violation>* v, bool ok, const std::string& oracle,
           const std::string& detail) {
  if (!ok) v->push_back({oracle, detail});
}

bool StateDictFinite(const StateDict& sd, std::string* detail) {
  for (const auto& [name, tensor] : sd) {
    for (int64_t k = 0; k < tensor.numel(); ++k) {
      if (!std::isfinite(tensor.at(k))) {
        *detail = name + "[" + std::to_string(k) + "] is non-finite";
        return false;
      }
    }
  }
  return true;
}

bool PayloadHasNonFiniteTensor(const Payload& payload) {
  for (const auto& [name, tensor] : payload.tensors()) {
    for (int64_t k = 0; k < tensor.numel(); ++k) {
      if (!std::isfinite(tensor.at(k))) return true;
    }
  }
  return false;
}

template <typename T>
std::string Vs(const char* what, T expected, T observed) {
  std::ostringstream out;
  out << what << ": expected " << expected << ", observed " << observed;
  return out.str();
}

/// Drops the fs_virtual_* series (and their TYPE headers) from a
/// Prometheus exposition — the client-cache gauges, the only lines the
/// cache capacity may change.
std::string StripVirtualSeries(const std::string& text) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("fs_virtual_") != std::string::npos) continue;
    out << line << "\n";
  }
  return out.str();
}

/// Series a pre-live subset changes by construction, dropped by name
/// from a Prometheus exposition: the join_in and assign_id per-type
/// series, whose counts follow how the joins split,
/// and the two totals those counts feed — delivered messages and the
/// queue-depth high-water mark (the join phase queues one message per
/// join). The delivered total is checked exactly instead, net of joins
/// and acks.
std::string StripJoinSeries(const std::string& text) {
  static const char* const kDropped[] = {
      "type=\"join_in\"", "type=\"assign_id\"",
      "fs_course_messages_delivered", "fs_sim_queue_depth_peak"};
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    bool keep = true;
    for (const char* dropped : kDropped) {
      if (line.find(dropped) != std::string::npos) keep = false;
    }
    if (keep) out << line << "\n";
  }
  return out.str();
}

/// Join messages a population of `population` sends when `live` (ascending)
/// are live at Run(): one per live client plus one per maximal run of
/// non-live ids.
int64_t ExpectedJoins(const std::vector<int>& live, int population) {
  int64_t joins = 0;
  int next = 1;
  for (int id : live) {
    if (next < id) ++joins;
    ++joins;
    next = id + 1;
  }
  if (next <= population) ++joins;
  return joins;
}

/// The seeded pre-live subsets of the sweep: one client, and a scattered
/// handful (up to four distinct ids).
std::vector<std::vector<int>> PreliveSubsets(const CourseSpec& spec) {
  const int population = spec.EffectiveClients();
  Rng rng = Rng(spec.seed).Fork(0x9e11);
  std::vector<std::vector<int>> subsets;
  subsets.push_back({static_cast<int>(rng.UniformInt(1, population))});
  std::vector<int> handful;
  for (int64_t idx : rng.SampleWithoutReplacement(
           population, std::min(population, 4))) {
    handful.push_back(static_cast<int>(idx) + 1);
  }
  subsets.push_back(std::move(handful));
  return subsets;
}

}  // namespace

int AutoCacheCapacity(const CourseSpec& spec) {
  int cohort = spec.concurrency;
  if (spec.strategy == "sync_overselect") {
    cohort =
        static_cast<int>(std::ceil(cohort * (1.0 + spec.overselect_frac)));
  }
  return cohort + 2;
}

std::string FormatViolations(const std::vector<Violation>& violations) {
  std::ostringstream out;
  for (const Violation& v : violations) {
    out << "  [" << v.oracle << "] " << v.detail << "\n";
  }
  return out.str();
}

CourseObservation RunInstrumentedCourse(const CourseSpec& spec,
                                        int64_t crash_at_event,
                                        int exec_threads, int cache_capacity,
                                        std::string* metrics_export,
                                        const std::vector<int>& prelive) {
  auto fixture = MakeCourseFixture(spec);
  FedJob job = fixture->MakeJob();
  job.fault.server_crash_at_event = crash_at_event;
  if (exec_threads > 0) {
    job.exec.backend = ExecutionBackend::kThreaded;
    job.exec.num_threads = exec_threads;
  }
  job.client_cache_capacity = cache_capacity;

  CourseObservation obs;
  MetricsRegistry metrics;
  if (metrics_export != nullptr) job.obs.metrics = &metrics;
  if (spec.Hierarchical()) {
    // Flat courses keep the all-null ObsContext (byte-identity with the
    // uninstrumented build); hierarchical oracles need the per-round
    // contributor record to check weight conservation across failovers.
    job.obs.course_log = &obs.course_log;
  }
  double last_delivery_time = -1.0;
  // Oracle 14 reconciles delivered poison against ingress rejections; the
  // scan only runs for hostile specs, and reads the live server through the
  // runner so the crash drill's server replacement cannot dangle it.
  const bool hostile_watch = spec.Hostile();
  FedRunner* live_runner = nullptr;
  job.send_tap = [&obs](const Message& msg) {
    ++obs.sent;
    if (msg.msg_type == events::kJoinIn && !IsRangeMessage(msg)) {
      obs.own_joins.push_back(msg.sender);
    }
  };
  job.delivery_tap = [&obs, &last_delivery_time, hostile_watch,
                      &live_runner](const Message& msg) {
    ++obs.delivered;
    if (msg.msg_type == events::kJoinIn) ++obs.joins_delivered;
    if (msg.msg_type == events::kAssignId) ++obs.acks_delivered;
    if (msg.timestamp < last_delivery_time && obs.time_regression.empty()) {
      std::ostringstream out;
      out << "delivery #" << obs.delivered << " (" << msg.msg_type << " "
          << msg.sender << "->" << msg.receiver << ") at t=" << msg.timestamp
          << " after t=" << last_delivery_time;
      obs.time_regression = out.str();
    }
    last_delivery_time = std::max(last_delivery_time, msg.timestamp);
    if (hostile_watch && msg.msg_type == events::kModelUpdate &&
        live_runner != nullptr && !live_runner->server()->finished() &&
        PayloadHasNonFiniteTensor(msg.payload)) {
      ++obs.nonfinite_updates_delivered;
    }
  };

  FedRunner runner(std::move(job));
  live_runner = &runner;
  for (int id : prelive) runner.client(id);
  obs.result = runner.Run();
  obs.finished = runner.server()->finished();
  obs.suppressed = runner.duplicates_suppressed();
  obs.recoveries = runner.recoveries();
  obs.fault = runner.fault_plan().counters();
  obs.hostile = runner.fault_plan().hostile_clients();
  obs.aggregators_killed = runner.aggregators_killed();
  for (const auto& agg : runner.aggregators()) {
    obs.promotions += agg->promotions();
    obs.partials_forwarded += agg->partials_forwarded();
  }
  obs.cache = runner.client_cache()->stats();
  if (metrics_export != nullptr) *metrics_export = metrics.PrometheusText();
  std::sort(obs.own_joins.begin(), obs.own_joins.end());
  return obs;
}

bool DistributedEligible(const CourseSpec& spec) {
  return spec.population == 0 && spec.topology_shards == 0 &&
         spec.strategy == "sync_vanilla" &&
         spec.concurrency == spec.num_clients &&
         spec.receive_deadline == 0.0 && !spec.suppress_duplicates &&
         spec.fault_dropout_frac == 0.0 && spec.fault_crash_prob == 0.0 &&
         spec.fault_straggler_frac == 0.0 && spec.fault_msg_loss_prob == 0.0 &&
         spec.fault_msg_duplicate_prob == 0.0 &&
         spec.fault_msg_delay_prob == 0.0 && spec.hostile_frac == 0.0;
}

namespace {

/// Runs the spec's course over loopback TCP with the exact worker wiring
/// FedRunner uses (same client seeds, same factories) and returns the
/// server stats. Requires DistributedEligible(spec).
ServerStats RunDistributedCourse(const CourseSpec& spec, Status* status) {
  auto fixture = MakeCourseFixture(spec);
  FedJob job = fixture->MakeJob();
  const int n = spec.num_clients;

  auto listener = TcpListener::Bind(0);
  if (!listener.ok()) {
    *status = listener.status();
    return {};
  }
  const int port = listener->port();

  ServerOptions server_options = job.server;
  server_options.expected_clients = n;
  if (server_options.seed == 0) server_options.seed = job.seed;
  if (!job.aggregator_factory) {
    job.aggregator_factory = [&spec]() { return MakeSpecAggregator(spec); };
  }
  DistributedServerHost host(server_options, job.init_model,
                             job.aggregator_factory(),
                             std::move(listener.value()));
  const Dataset* server_test = &fixture->data.server_test;
  host.server()->set_evaluator([server_test](Model* model) {
    return EvaluateClassifier(model, *server_test);
  });

  ServerStats stats;
  std::thread server_thread([&] { stats = host.Run(); });

  if (job.fleet.empty()) job.fleet.assign(n, DeviceProfile{});
  if (!job.trainer_factory) {
    job.trainer_factory = [](int) { return std::make_unique<GeneralTrainer>(); };
  }
  Rng seeder(job.seed);
  std::vector<std::thread> client_threads;
  std::vector<Status> client_status(n);
  for (int id = 1; id <= n; ++id) {
    client_threads.emplace_back([&, id] {
      ClientOptions options = job.client;
      options.device = job.fleet[id - 1];
      options.seed = seeder.Fork(static_cast<uint64_t>(id)).Next();
      if (job.client_customizer) job.client_customizer(id, &options);
      DistributedClientHost client_host(
          id, std::move(options), job.init_model,
          fixture->data.clients[id - 1], job.trainer_factory(id), "127.0.0.1",
          port);
      client_status[id - 1] = client_host.Run();
    });
  }
  for (auto& t : client_threads) t.join();
  server_thread.join();

  *status = Status::Ok();
  for (const Status& s : client_status) {
    if (!s.ok()) *status = s;
  }
  return stats;
}

}  // namespace

std::vector<Violation> CheckAggregateWeightConservation(
    const CourseSpec& spec) {
  std::vector<Violation> v;
  Rng rng(spec.seed ^ 0xa99ull);

  StateDict global;
  StateDict delta;
  for (const char* name : {"fc.weight", "fc.bias"}) {
    Tensor g({3, 2});
    Tensor d({3, 2});
    for (int64_t k = 0; k < g.numel(); ++k) {
      g.at(k) = static_cast<float>(rng.Uniform(-1.0, 1.0));
      d.at(k) = static_cast<float>(rng.Uniform(-0.5, 0.5));
    }
    global.emplace(name, std::move(g));
    delta.emplace(name, std::move(d));
  }

  // Identical deltas, equal local steps, varying sample counts and
  // staleness: normalized weights must sum to one, so the aggregate is
  // exactly global + delta (FedNova's tau_eff rescaling cancels too).
  std::vector<ClientUpdate> updates;
  const int k = 3;
  for (int i = 0; i < k; ++i) {
    ClientUpdate u;
    u.client_id = i + 1;
    u.staleness = i;
    u.num_samples = static_cast<double>(rng.UniformInt(2, 40));
    u.local_steps = 2;
    u.delta = delta;
    updates.push_back(std::move(u));
  }

  auto aggregator = MakeSpecAggregator(spec);
  const Result<StateDict> aggregated = aggregator->Aggregate(global, updates);
  if (!aggregated.ok()) {
    v.push_back({"aggregate_weight_conservation",
                 "aggregation of a benign cohort failed: " +
                     aggregated.status().ToString()});
    return v;
  }
  const StateDict& next = *aggregated;
  for (const auto& [name, tensor] : next) {
    const Tensor& g = global.at(name);
    const Tensor& d = delta.at(name);
    for (int64_t idx = 0; idx < tensor.numel(); ++idx) {
      const double expected = static_cast<double>(g.at(idx)) + d.at(idx);
      const double observed = tensor.at(idx);
      if (!Finite(observed) || std::abs(observed - expected) > 1e-4) {
        std::ostringstream out;
        out << spec.aggregator << " " << name << "[" << idx
            << "]: expected global+delta=" << expected << ", got " << observed;
        v.push_back({"aggregate_weight_conservation", out.str()});
        return v;  // one coordinate is enough evidence
      }
    }
  }
  return v;
}

std::vector<Violation> CheckCourse(const CourseSpec& spec,
                                   const OracleOptions& options) {
  std::vector<Violation> v;

  // -- oracle 1+2+3: one instrumented run ----------------------------------
  // (non-const: Model::GetStateDict is a mutating accessor)
  CourseObservation a = RunInstrumentedCourse(spec, -1, options.exec_threads);

  Check(&v, a.finished, "termination",
        "course neither finished nor aborted (stalled event graph)");
  const ServerStats& stats = a.result.server;
  Check(&v, stats.rounds <= spec.max_rounds, "stats_sanity",
        Vs("rounds > max_rounds", spec.max_rounds, stats.rounds));
  Check(&v, stats.rounds > 0 || stats.aborted || spec.max_rounds == 0,
        "stats_sanity", "zero rounds without an abort");
  for (const auto& [t, acc] : stats.curve) {
    Check(&v, Finite(acc) && acc >= 0.0 && acc <= 1.0, "stats_sanity",
          Vs("curve accuracy out of [0,1]", 0.0, acc));
    Check(&v, Finite(t) && t >= 0.0, "time_monotonicity",
          Vs("negative/NaN curve time", 0.0, t));
  }
  for (size_t i = 1; i < stats.curve.size(); ++i) {
    Check(&v, stats.curve[i].first >= stats.curve[i - 1].first,
          "time_monotonicity",
          Vs("curve time regressed", stats.curve[i - 1].first,
             stats.curve[i].first));
  }
  for (int staleness : stats.staleness_log) {
    Check(&v, staleness >= 0 && staleness <= spec.staleness_tolerance,
          "stats_sanity",
          Vs("aggregated staleness outside tolerance", spec.staleness_tolerance,
             staleness));
  }
  for (double acc : a.result.client_test_accuracy) {
    Check(&v, Finite(acc) && acc >= 0.0 && acc <= 1.0, "stats_sanity",
          Vs("client accuracy out of [0,1]", 0.0, acc));
  }
  Check(&v, a.time_regression.empty(), "time_monotonicity", a.time_regression);

  // aggregator_dropped is deliberately absent from `vanished`: messages
  // addressed to a crashed aggregator are dispatched by the pump (the
  // delivery tap sees them) and then eaten by the dead endpoint, so at
  // pump level they are delivered, not lost in transit.
  const int64_t vanished =
      a.fault.dropout_suppressed + a.fault.crashes + a.fault.lost;
  Check(&v, a.delivered == a.sent - vanished + a.fault.duplicated - a.suppressed,
        "message_conservation",
        Vs("delivered != sent - dropped + duplicated - suppressed",
           a.sent - vanished + a.fault.duplicated - a.suppressed, a.delivered));
  if (spec.suppress_duplicates) {
    Check(&v, a.suppressed == a.fault.duplicated, "message_conservation",
          Vs("suppressed != fault-duplicated", a.fault.duplicated,
             a.suppressed));
  } else {
    Check(&v, a.suppressed == 0, "message_conservation",
          Vs("suppression off but deliveries suppressed", int64_t{0},
             a.suppressed));
  }

  // -- oracle 4: same-seed bit-reproducibility ------------------------------
  CourseObservation b = RunInstrumentedCourse(spec, -1, options.exec_threads);
  std::string detail;
  Check(&v,
        StateDictsBitEqual(a.result.final_model.GetStateDict(),
                           b.result.final_model.GetStateDict(), &detail),
        "reproducibility", "same-seed final models differ: " + detail);
  Check(&v, a.result.server.curve == b.result.server.curve, "reproducibility",
        "same-seed accuracy curves differ");
  Check(&v, a.sent == b.sent && a.delivered == b.delivered, "reproducibility",
        Vs("same-seed message counts differ", a.sent, b.sent) + " / " +
            Vs("delivered", a.delivered, b.delivered));
  Check(&v,
        a.result.client_test_accuracy == b.result.client_test_accuracy,
        "reproducibility", "same-seed client accuracies differ");

  // -- oracle 5: through_wire equivalence -----------------------------------
  CourseSpec wired = spec;
  wired.through_wire = !spec.through_wire;
  CourseObservation w = RunInstrumentedCourse(wired, -1, options.exec_threads);
  Check(&v,
        StateDictsBitEqual(a.result.final_model.GetStateDict(),
                           w.result.final_model.GetStateDict(), &detail),
        "through_wire", "codec round-trip changed the final model: " + detail);
  Check(&v, a.result.server.curve == w.result.server.curve, "through_wire",
        "codec round-trip changed the accuracy curve");
  Check(&v, a.sent == w.sent && a.delivered == w.delivered, "through_wire",
        Vs("codec round-trip changed message counts", a.sent, w.sent));

  // -- oracle 6: aggregate-weight conservation ------------------------------
  for (Violation& violation : CheckAggregateWeightConservation(spec)) {
    v.push_back(std::move(violation));
  }

  // -- oracle 7: standalone-vs-distributed differential ---------------------
  if (options.run_distributed && DistributedEligible(spec)) {
    Status status = Status::Ok();
    const ServerStats dist = RunDistributedCourse(spec, &status);
    Check(&v, status.ok(), "distributed_differential",
          "distributed run failed: " + status.ToString());
    if (status.ok()) {
      Check(&v, dist.rounds == stats.rounds, "distributed_differential",
            Vs("round count differs", stats.rounds, dist.rounds));
      Check(&v, dist.curve.size() == stats.curve.size(),
            "distributed_differential",
            Vs("curve length differs", stats.curve.size(), dist.curve.size()));
      // Arrival order changes float summation order, so accuracies agree
      // only approximately (the structure above must agree exactly).
      Check(&v, std::abs(dist.final_accuracy - stats.final_accuracy) < 0.25,
            "distributed_differential",
            Vs("final accuracy diverged", stats.final_accuracy,
               dist.final_accuracy));
    }
  }

  // -- oracle 8: crash-resume bit-identity ----------------------------------
  // Kill the server between two deliveries at the spec's crash_frac point,
  // restore a freshly built server from a wire-codec-serialized snapshot
  // (exactly what a restarted process reads from disk), and require the
  // resumed course to be indistinguishable from the uninterrupted run: any
  // divergence means some server state escaped the snapshot schema.
  if (a.delivered > 0) {
    const int64_t crash_at = std::min<int64_t>(
        a.delivered - 1,
        static_cast<int64_t>(spec.crash_frac *
                             static_cast<double>(a.delivered)));
    CourseObservation c = RunInstrumentedCourse(spec, crash_at, options.exec_threads);
    Check(&v, c.recoveries == 1, "crash_resume",
          Vs("server restores performed", int64_t{1}, c.recoveries));
    Check(&v,
          StateDictsBitEqual(a.result.final_model.GetStateDict(),
                             c.result.final_model.GetStateDict(), &detail),
          "crash_resume", "crash-resume changed the final model: " + detail);
    Check(&v, a.result.server.curve == c.result.server.curve, "crash_resume",
          "crash-resume changed the accuracy curve");
    Check(&v, a.sent == c.sent && a.delivered == c.delivered, "crash_resume",
          Vs("crash-resume changed sent", a.sent, c.sent) + " / " +
              Vs("delivered", a.delivered, c.delivered));
    Check(&v, a.result.client_test_accuracy == c.result.client_test_accuracy,
          "crash_resume", "crash-resume changed client accuracies");
    Check(&v,
          a.result.server.rounds == c.result.server.rounds &&
              a.result.server.staleness_log == c.result.server.staleness_log,
          "crash_resume", "crash-resume changed the round structure");
  }

  // -- oracle 9: flat-vs-sharded equivalence --------------------------------
  // FedAvg pre-aggregation is exact in real arithmetic: Σ_s (N_s/N)(Σ_i
  // n_i δ_i / N_s) == Σ_i (n_i/N) δ_i. The flat twin (same spec, topology
  // axis zeroed) must therefore produce the same round structure and the
  // same per-client aggregation counts; accuracies agree only to float
  // reassociation tolerance.
  // Hostile specs are excluded: the hostile draws consume the plan's rng in
  // send order, and the sharded and flat message sequences differ, so the
  // two runs are attacked differently (and a flat root replaces rejected
  // senders where an edge only covers them) — no equivalence to check.
  if (spec.Hierarchical() && spec.topology_kill_shard < 0 && !spec.Hostile()) {
    CourseSpec flat_spec = spec;
    flat_spec.topology_shards = 0;
    flat_spec = CourseGen::Clamp(std::move(flat_spec));
    CourseObservation f = RunInstrumentedCourse(flat_spec, -1, options.exec_threads);
    Check(&v, f.finished, "sharding_equivalence", "flat twin stalled");
    Check(&v, f.result.server.rounds == stats.rounds, "sharding_equivalence",
          Vs("flat twin round count differs", stats.rounds,
             f.result.server.rounds));
    Check(&v, f.result.server.curve.size() == stats.curve.size(),
          "sharding_equivalence",
          Vs("flat twin curve length differs", stats.curve.size(),
             f.result.server.curve.size()));
    Check(&v, f.result.server.agg_count == stats.agg_count,
          "sharding_equivalence",
          "flat twin per-client aggregation counts differ");
    Check(&v,
          std::abs(f.result.server.final_accuracy - stats.final_accuracy) <
              0.1,
          "sharding_equivalence",
          Vs("flat twin final accuracy diverged", f.result.server.final_accuracy,
             stats.final_accuracy));
    Check(&v, stats.shard_failovers == 0, "sharding_equivalence",
          Vs("failover without a kill schedule", int64_t{0},
             stats.shard_failovers));
  }

  // -- oracle 10: aggregator failover ---------------------------------------
  if (spec.Hierarchical()) {
    // Weight conservation across the failover boundary: a client may train
    // twice (original broadcast + post-promotion re-broadcast) but only one
    // of its updates may reach aggregation per round.
    for (const CourseRoundRecord& r : a.course_log.rounds()) {
      std::set<int> distinct(r.contributors.begin(), r.contributors.end());
      Check(&v, distinct.size() == r.contributors.size(),
            "aggregator_failover",
            "round " + std::to_string(r.round) +
                " aggregated a client twice (" +
                std::to_string(r.contributors.size()) + " contributions, " +
                std::to_string(distinct.size()) + " distinct)");
      for (int id : r.contributors) {
        Check(&v, id >= 1 && id <= spec.EffectiveClients(),
              "aggregator_failover",
              Vs("contributor id out of fleet range", spec.EffectiveClients(),
                 id));
      }
    }
    if (spec.topology_kill_shard >= 0) {
      Check(&v, a.aggregators_killed >= 1, "aggregator_failover",
            Vs("kill scheduled but no aggregator died", int64_t{1},
               a.aggregators_killed));
      Check(&v, a.promotions >= 1, "aggregator_failover",
            Vs("no standby promoted after the kill", int64_t{1},
               a.promotions));
      Check(&v, stats.shard_failovers >= 1, "aggregator_failover",
            Vs("root acknowledged no failover", int64_t{1},
               stats.shard_failovers));
      Check(&v, !stats.aborted, "aggregator_failover",
            "course aborted instead of failing over");
    }
  }

  // -- oracle 11: serial-vs-threaded differential ---------------------------
  // The threaded backend commits parallel client work in canonical order
  // (DESIGN.md §12), so at every worker count the course must reproduce
  // the base run bit for bit — models, curve, counters, round structure.
  for (int threads : options.parallel_threads) {
    CourseObservation p = RunInstrumentedCourse(spec, -1, threads);
    const std::string tag = "threads=" + std::to_string(threads) + ": ";
    Check(&v, p.finished == a.finished, "parallel_differential",
          tag + "termination differs");
    Check(&v,
          StateDictsBitEqual(a.result.final_model.GetStateDict(),
                             p.result.final_model.GetStateDict(), &detail),
          "parallel_differential",
          tag + "threaded backend changed the final model: " + detail);
    Check(&v, a.result.server.curve == p.result.server.curve,
          "parallel_differential",
          tag + "threaded backend changed the accuracy curve");
    Check(&v, a.sent == p.sent && a.delivered == p.delivered,
          "parallel_differential",
          tag + Vs("message counts differ (sent)", a.sent, p.sent) + " / " +
              Vs("delivered", a.delivered, p.delivered));
    Check(&v, a.suppressed == p.suppressed, "parallel_differential",
          tag + Vs("suppressed differs", a.suppressed, p.suppressed));
    Check(&v,
          a.fault.dropout_suppressed == p.fault.dropout_suppressed &&
              a.fault.crashes == p.fault.crashes &&
              a.fault.lost == p.fault.lost &&
              a.fault.duplicated == p.fault.duplicated &&
              a.fault.delayed == p.fault.delayed &&
              a.fault.aggregator_dropped == p.fault.aggregator_dropped,
          "parallel_differential",
          tag + "fault-plan counters differ (fault rng consumed off-order)");
    Check(&v, a.result.client_test_accuracy == p.result.client_test_accuracy,
          "parallel_differential",
          tag + "threaded backend changed client accuracies");
    Check(&v,
          a.result.server.rounds == p.result.server.rounds &&
              a.result.server.staleness_log == p.result.server.staleness_log &&
              a.result.server.agg_count == p.result.server.agg_count,
          "parallel_differential",
          tag + "threaded backend changed the round structure");
  }

  // -- oracle 12: client-cache capacity sweep -------------------------------
  // Every course holds its clients behind a ClientCache (DESIGN.md §13),
  // and capacity is a pure performance knob: the auto (cohort-derived) and
  // the pathological capacity-1 caches must reproduce the no-evict
  // reference (capacity = population) bit for bit. Every run attaches a
  // metrics registry so the full obs exposition is compared too, up to the
  // fs_virtual_* cache gauges, which count the capacity's own work.
  {
    const int population = spec.EffectiveClients();
    std::string ref_metrics;
    CourseObservation e = RunInstrumentedCourse(
        spec, -1, options.exec_threads, population, &ref_metrics);
    ref_metrics = StripVirtualSeries(ref_metrics);
    const int auto_capacity = AutoCacheCapacity(spec);
    for (const int capacity : {auto_capacity, 1}) {
      const std::string tag = "capacity " + std::to_string(capacity) + ": ";
      std::string metrics;
      CourseObservation vv = RunInstrumentedCourse(
          spec, -1, options.exec_threads, capacity, &metrics);
      Check(&v, vv.finished == e.finished, "cache_capacity_sweep",
            tag + "termination differs");
      Check(&v,
            StateDictsBitEqual(e.result.final_model.GetStateDict(),
                               vv.result.final_model.GetStateDict(), &detail),
            "cache_capacity_sweep", tag + "final model differs: " + detail);
      Check(&v, e.result.server.curve == vv.result.server.curve,
            "cache_capacity_sweep", tag + "accuracy curve differs");
      Check(&v, e.sent == vv.sent && e.delivered == vv.delivered,
            "cache_capacity_sweep",
            tag + Vs("message counts differ (sent)", e.sent, vv.sent) +
                " / " + Vs("delivered", e.delivered, vv.delivered));
      Check(&v, e.suppressed == vv.suppressed, "cache_capacity_sweep",
            tag + Vs("suppressed differs", e.suppressed, vv.suppressed));
      Check(&v,
            e.fault.dropout_suppressed == vv.fault.dropout_suppressed &&
                e.fault.crashes == vv.fault.crashes &&
                e.fault.lost == vv.fault.lost &&
                e.fault.duplicated == vv.fault.duplicated &&
                e.fault.delayed == vv.fault.delayed &&
                e.fault.aggregator_dropped == vv.fault.aggregator_dropped,
            "cache_capacity_sweep",
            tag + "fault-plan counters differ (fault rng consumed off-order)");
      Check(&v,
            e.result.client_test_accuracy == vv.result.client_test_accuracy,
            "cache_capacity_sweep", tag + "client accuracies differ");
      Check(&v,
            e.result.server.rounds == vv.result.server.rounds &&
                e.result.server.staleness_log ==
                    vv.result.server.staleness_log &&
                e.result.server.agg_count == vv.result.server.agg_count,
            "cache_capacity_sweep", tag + "round structure differs");
      Check(&v, StripVirtualSeries(metrics) == ref_metrics,
            "cache_capacity_sweep",
            tag + "metrics exposition differs beyond the fs_virtual_ gauges");
      // Get runs before Trim, so one client beyond capacity may coexist.
      const int64_t bound = std::min(capacity + 1, population);
      Check(&v, vv.cache.live_peak >= 1 && vv.cache.live_peak <= bound,
            "cache_capacity_sweep",
            tag + Vs("peak live clients outside [1, capacity + 1]", bound,
                     vv.cache.live_peak));
    }

    // Pre-live subset sweep: clients made live before Run() send their own
    // join_in and split the range joins around them. Per-id and range
    // joins must announce the same population, so the course may differ
    // from the reference only in its join_in / assign_id traffic — whose
    // count is pinned exactly: one join per live client plus one per run
    // of descriptors, each acked once.
    Check(&v,
          e.joins_delivered == ExpectedJoins(e.own_joins, population) &&
              e.acks_delivered == e.joins_delivered,
          "prelive_join_sweep",
          Vs("reference join_in deliveries",
             ExpectedJoins(e.own_joins, population), e.joins_delivered) +
              " / " + Vs("assign_id", e.joins_delivered, e.acks_delivered));
    const std::string ref_join_free = StripJoinSeries(ref_metrics);
    for (const std::vector<int>& prelive : PreliveSubsets(spec)) {
      std::string tag = "prelive {";
      for (int id : prelive) tag += " " + std::to_string(id);
      tag += " }: ";
      std::string metrics;
      CourseObservation pl =
          RunInstrumentedCourse(spec, -1, options.exec_threads, population,
                                &metrics, prelive);
      // Every pre-live client speaks for itself (capacity = population,
      // so none was evicted before Run()).
      for (int id : prelive) {
        Check(&v,
              std::binary_search(pl.own_joins.begin(), pl.own_joins.end(),
                                 id),
              "prelive_join_sweep",
              tag + "client " + std::to_string(id) +
                  " did not send its own join_in");
      }
      const int64_t joins = ExpectedJoins(pl.own_joins, population);
      Check(&v, pl.joins_delivered == joins && pl.acks_delivered == joins,
            "prelive_join_sweep",
            tag + Vs("join_in deliveries", joins, pl.joins_delivered) +
                " / " + Vs("assign_id", joins, pl.acks_delivered));
      Check(&v, pl.finished == e.finished, "prelive_join_sweep",
            tag + "termination differs");
      Check(&v,
            StateDictsBitEqual(e.result.final_model.GetStateDict(),
                               pl.result.final_model.GetStateDict(), &detail),
            "prelive_join_sweep", tag + "final model differs: " + detail);
      Check(&v, e.result.server.curve == pl.result.server.curve,
            "prelive_join_sweep", tag + "accuracy curve differs");
      Check(&v,
            e.result.client_test_accuracy == pl.result.client_test_accuracy,
            "prelive_join_sweep", tag + "client accuracies differ");
      Check(&v,
            e.result.server.rounds == pl.result.server.rounds &&
                e.result.server.staleness_log ==
                    pl.result.server.staleness_log &&
                e.result.server.agg_count == pl.result.server.agg_count,
            "prelive_join_sweep", tag + "round structure differs");
      // Joins and acks are never faulted, so sends and deliveries net of
      // the join phase must match the reference exactly.
      const int64_t ref_join_phase = e.joins_delivered + e.acks_delivered;
      const int64_t join_phase = pl.joins_delivered + pl.acks_delivered;
      Check(&v,
            e.sent - ref_join_phase == pl.sent - join_phase &&
                e.delivered - ref_join_phase == pl.delivered - join_phase,
            "prelive_join_sweep",
            tag + Vs("sends net of joins and acks", e.sent - ref_join_phase,
                     pl.sent - join_phase) +
                " / " +
                Vs("deliveries net of joins and acks",
                   e.delivered - ref_join_phase, pl.delivered - join_phase));
      Check(&v, e.suppressed == pl.suppressed, "prelive_join_sweep",
            tag + Vs("suppressed differs", e.suppressed, pl.suppressed));
      Check(&v,
            e.fault.dropout_suppressed == pl.fault.dropout_suppressed &&
                e.fault.crashes == pl.fault.crashes &&
                e.fault.lost == pl.fault.lost &&
                e.fault.duplicated == pl.fault.duplicated &&
                e.fault.delayed == pl.fault.delayed &&
                e.fault.aggregator_dropped == pl.fault.aggregator_dropped,
            "prelive_join_sweep", tag + "fault-plan counters differ");
      Check(&v,
            StripJoinSeries(StripVirtualSeries(metrics)) == ref_join_free,
            "prelive_join_sweep",
            tag + "metrics exposition differs beyond the join series");
    }

    // Crash drill at the auto capacity — oracle 8 with evictions: the
    // cache survives the server kill, and the resumed course must still
    // match the uninterrupted no-evict run bit for bit.
    if (e.delivered > 0) {
      const int64_t crash_at = std::min<int64_t>(
          e.delivered - 1,
          static_cast<int64_t>(spec.crash_frac *
                               static_cast<double>(e.delivered)));
      CourseObservation vc = RunInstrumentedCourse(
          spec, crash_at, options.exec_threads, auto_capacity);
      Check(&v, vc.recoveries == 1, "cache_capacity_sweep",
            Vs("crash drill server restores performed", int64_t{1},
               vc.recoveries));
      Check(&v,
            StateDictsBitEqual(e.result.final_model.GetStateDict(),
                               vc.result.final_model.GetStateDict(), &detail),
            "cache_capacity_sweep",
            "crash-resume at auto capacity changed the final model: " +
                detail);
      Check(&v, e.result.server.curve == vc.result.server.curve,
            "cache_capacity_sweep",
            "crash-resume at auto capacity changed the accuracy curve");
      Check(&v, e.sent == vc.sent && e.delivered == vc.delivered,
            "cache_capacity_sweep",
            Vs("crash-resume at auto capacity changed sent", e.sent,
               vc.sent) +
                " / " + Vs("delivered", e.delivered, vc.delivered));
      Check(&v,
            e.result.client_test_accuracy == vc.result.client_test_accuracy,
            "cache_capacity_sweep",
            "crash-resume at auto capacity changed client accuracies");
    }
  }

  // -- oracle 13: guard transparency ----------------------------------------
  // A pure-screening ingress guard (no norm bound) over a benign course
  // inspects every update and rejects none; it must be bit-invisible. The
  // norm-bound/clip knobs are active interventions and are normalized out
  // of both twins — transparency is a claim about screening only.
  if (!spec.Hostile()) {
    CourseSpec on = spec;
    on.guard = true;
    on.guard_l2 = 0.0;
    on.guard_clip = false;
    on.guard_k = 3;
    CourseSpec off = on;
    off.guard = false;
    std::string on_metrics;
    std::string off_metrics;
    CourseObservation gon = RunInstrumentedCourse(
        on, -1, options.exec_threads, /*cache_capacity=*/0, &on_metrics);
    CourseObservation goff = RunInstrumentedCourse(
        off, -1, options.exec_threads, /*cache_capacity=*/0, &off_metrics);
    Check(&v, gon.finished == goff.finished, "guard_transparency",
          "guard toggle changed termination");
    Check(&v,
          StateDictsBitEqual(gon.result.final_model.GetStateDict(),
                             goff.result.final_model.GetStateDict(), &detail),
          "guard_transparency",
          "benign guard changed the final model: " + detail);
    Check(&v, gon.result.server.curve == goff.result.server.curve,
          "guard_transparency", "benign guard changed the accuracy curve");
    Check(&v, gon.sent == goff.sent && gon.delivered == goff.delivered,
          "guard_transparency",
          Vs("benign guard changed message counts (sent)", goff.sent,
             gon.sent) +
              " / " + Vs("delivered", goff.delivered, gon.delivered));
    Check(&v, gon.result.client_test_accuracy ==
                  goff.result.client_test_accuracy,
          "guard_transparency", "benign guard changed client accuracies");
    Check(&v,
          gon.result.server.rounds == goff.result.server.rounds &&
              gon.result.server.staleness_log ==
                  goff.result.server.staleness_log &&
              gon.result.server.agg_count == goff.result.server.agg_count,
          "guard_transparency", "benign guard changed the round structure");
    Check(&v, on_metrics == off_metrics, "guard_transparency",
          "benign guard changed the metrics exposition");
    Check(&v,
          gon.result.server.updates_rejected == 0 &&
              gon.result.server.updates_clipped == 0 &&
              gon.result.server.quarantined.empty(),
          "guard_transparency",
          "benign guard rejected, clipped, or quarantined");
  }

  // -- oracle 14: Byzantine tolerance ---------------------------------------
  // Under a minority of plan-hostile clients and an active guard, the
  // course completes, the shared model stays finite, honest clients are
  // never quarantined, and every non-finite update delivered while the
  // course was live was rejected at ingress. (Sign-flip/scale attacks
  // inside the norm bound are the robust aggregator's job; finiteness of
  // the final model is what witnesses that they stayed outvoted.)
  if (spec.Hostile()) {
    // Clean completion is owed only once the guard has rejected something:
    // the plan draws hostile *clients*, but heavy benign faults
    // (crash/loss/dropout) can silence the fleet before any hostile member
    // lands in a cohort — such a run is bit-identical to its benign twin,
    // and an abort there is a benign-fault outcome this oracle has no
    // business blaming on the adversary. Accepted mutations (sign-flip or
    // scale inside the norm bound) are counted like honest updates and
    // cannot stall a round either, so rejections are the exact signal that
    // hostility touched liveness — the same condition that arms the
    // server's starved-round restaff escape, making this check the mirror
    // of that guarantee. Finiteness, quarantine soundness, and the
    // delivered-vs-rejected reconciliation below still bind
    // unconditionally.
    if (stats.updates_rejected > 0) {
      Check(&v, a.finished && !stats.aborted, "byzantine_tolerance",
            "hostile course did not complete cleanly");
    }
    Check(&v,
          StateDictFinite(a.result.final_model.GetStateDict(), &detail),
          "byzantine_tolerance",
          "poison reached the final model: " + detail);
    for (int id : stats.quarantined) {
      Check(&v, a.hostile.count(id) > 0, "byzantine_tolerance",
            "honest client " + std::to_string(id) + " was quarantined");
    }
    const std::set<int> distinct_quarantined(stats.quarantined.begin(),
                                             stats.quarantined.end());
    Check(&v, distinct_quarantined.size() == stats.quarantined.size(),
          "byzantine_tolerance", "a client was quarantined twice");
    if (spec.topology_kill_shard < 0) {
      // With a kill schedule a poisoned update can be eaten by the dead
      // aggregator incarnation before any guard sees it, so the exact
      // reconciliation only holds without one.
      Check(&v, a.nonfinite_updates_delivered <= stats.updates_rejected,
            "byzantine_tolerance",
            Vs("non-finite updates delivered vs rejected at ingress",
               stats.updates_rejected, a.nonfinite_updates_delivered));
    }
  }

  return v;
}

}  // namespace testing
}  // namespace fedscope
