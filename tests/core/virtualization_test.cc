// Client cache (DESIGN.md §13): the population exists as descriptors, a
// bounded ClientCache materializes clients on demand, and the course is
// bit-identical at every capacity to the no-evict run (capacity =
// population). These tests pin the memory bound (under virtualize, peak
// live clients stays within the cohort-derived capacity, never the
// population) and the reclaim/restore identity (an evicted client
// re-derives its exact Rng stream and state).

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "fedscope/comm/codec.h"
#include "fedscope/core/client_cache.h"
#include "fedscope/core/client_range.h"
#include "fedscope/core/events.h"
#include "fedscope/core/fed_runner.h"
#include "fedscope/testing/course_gen.h"
#include "fedscope/testing/oracles.h"
#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

using testing::AutoCacheCapacity;
using testing::CourseGen;
using testing::CourseObservation;
using testing::CourseSpec;
using testing::MakeCourseFixture;
using testing::RunInstrumentedCourse;

/// Bit-exact state-dict comparison (operator== would conflate 0.0/-0.0).
bool BitEqual(const StateDict& a, const StateDict& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, tensor] : a) {
    auto it = b.find(name);
    if (it == b.end()) return false;
    if (tensor.shape() != it->second.shape()) return false;
    for (int64_t k = 0; k < tensor.numel(); ++k) {
      const float x = tensor.at(k);
      const float y = it->second.at(k);
      if (std::memcmp(&x, &y, sizeof(float)) != 0) return false;
    }
  }
  return true;
}

/// A population well above the cohort so the cache must evict and restore.
CourseSpec BaseSpec() {
  CourseSpec spec;
  spec.num_clients = 6;
  spec.population = 24;
  spec.concurrency = 4;
  spec.max_rounds = 3;
  return CourseGen::Clamp(spec);
}

/// The auto cache capacity FedRunner derives — cohort (concurrency,
/// inflated by over-selection) plus replacement slack — plus the
/// one-client transient a delivery to a non-live client creates before
/// Trim runs.
int CohortBound(const CourseSpec& spec) { return AutoCacheCapacity(spec) + 1; }

/// The no-evict reference: a cache as large as the population.
CourseObservation RunNoEvict(const CourseSpec& spec) {
  return RunInstrumentedCourse(spec, -1, /*exec_threads=*/0,
                               spec.EffectiveClients());
}

class VirtualizationTest : public ::testing::Test {
 protected:
  void SetUp() override { Logging::set_min_level(LogLevel::kWarning); }
  void TearDown() override { Logging::set_min_level(LogLevel::kInfo); }
};

// ---------------------------------------------------------------------------
// Peak live clients is O(cohort), not O(population)
// ---------------------------------------------------------------------------

struct StrategyCase {
  const char* name;
  const char* strategy;
  int topology_shards;
  int exec_threads;
};

TEST_F(VirtualizationTest, LivePeakBoundedByCohortAcrossCourseShapes) {
  const StrategyCase cases[] = {
      {"sync", "sync_vanilla", 0, 0},
      {"overselect", "sync_overselect", 0, 0},
      {"async_time", "async_time", 0, 0},
      {"sharded", "sync_vanilla", 2, 0},
      {"threaded", "sync_vanilla", 0, 2},
  };
  for (const auto& c : cases) {
    CourseSpec spec = BaseSpec();
    spec.strategy = c.strategy;
    spec.topology_shards = c.topology_shards;
    spec = CourseGen::Clamp(spec);
    ASSERT_GT(spec.EffectiveClients(), CohortBound(spec)) << c.name;

    // The oracle's auto capacity is the one FedRunner picks under
    // virtualize.
    auto fixture = MakeCourseFixture(spec);
    FedJob job = fixture->MakeJob();
    job.virtualize = true;
    EXPECT_EQ(FedRunner(std::move(job)).client_cache()->capacity(),
              AutoCacheCapacity(spec))
        << c.name;

    const CourseObservation obs = RunInstrumentedCourse(
        spec, /*crash_at_event=*/-1, c.exec_threads, AutoCacheCapacity(spec));
    EXPECT_TRUE(obs.finished) << c.name;
    EXPECT_GE(obs.cache.live_peak, 1) << c.name;
    EXPECT_LE(obs.cache.live_peak, CohortBound(spec)) << c.name;
    EXPECT_LT(obs.cache.live_peak, spec.EffectiveClients()) << c.name;
    // The deployment eval touches every participant one at a time, so the
    // whole population was instantiated without ever being live at once.
    EXPECT_GE(obs.cache.instantiations, spec.EffectiveClients()) << c.name;
    EXPECT_GT(obs.cache.evictions, 0) << c.name;
    // Instantiations (fresh + restores) minus evictions is what's live.
    EXPECT_EQ(obs.cache.instantiations - obs.cache.evictions, obs.cache.live)
        << c.name;
  }
}

// ---------------------------------------------------------------------------
// Auto capacity == no-evict capacity, bit for bit (the direct form of
// oracle 12)
// ---------------------------------------------------------------------------

TEST_F(VirtualizationTest, VirtualizedCourseBitIdenticalToEager) {
  const CourseSpec spec = BaseSpec();
  CourseObservation no_evict = RunNoEvict(spec);
  CourseObservation virt = RunInstrumentedCourse(spec, -1, /*exec_threads=*/0,
                                                 AutoCacheCapacity(spec));
  EXPECT_EQ(no_evict.cache.evictions, 0);
  EXPECT_GT(virt.cache.evictions, 0);
  EXPECT_EQ(no_evict.finished, virt.finished);
  EXPECT_TRUE(BitEqual(no_evict.result.final_model.GetStateDict(),
                       virt.result.final_model.GetStateDict()));
  EXPECT_EQ(no_evict.result.server.curve, virt.result.server.curve);
  EXPECT_EQ(no_evict.result.client_test_accuracy,
            virt.result.client_test_accuracy);
  EXPECT_EQ(no_evict.sent, virt.sent);
  EXPECT_EQ(no_evict.delivered, virt.delivered);
}

TEST_F(VirtualizationTest, ThreadedVirtualizedCourseBitIdenticalToSerialEager) {
  const CourseSpec spec = BaseSpec();
  CourseObservation no_evict = RunNoEvict(spec);
  CourseObservation virt = RunInstrumentedCourse(spec, -1, /*exec_threads=*/3,
                                                 AutoCacheCapacity(spec));
  EXPECT_EQ(no_evict.finished, virt.finished);
  EXPECT_TRUE(BitEqual(no_evict.result.final_model.GetStateDict(),
                       virt.result.final_model.GetStateDict()));
  EXPECT_EQ(no_evict.result.server.curve, virt.result.server.curve);
  EXPECT_EQ(no_evict.result.client_test_accuracy,
            virt.result.client_test_accuracy);
  EXPECT_EQ(no_evict.sent, virt.sent);
  EXPECT_EQ(no_evict.delivered, virt.delivered);
}

// ---------------------------------------------------------------------------
// Eviction + re-instantiation re-derives the identical Rng stream / state
// ---------------------------------------------------------------------------

TEST_F(VirtualizationTest, CapacityOneEvictionRestoresIdenticalState) {
  const CourseSpec spec = BaseSpec();
  CourseObservation no_evict = RunNoEvict(spec);

  auto fixture = MakeCourseFixture(spec);
  FedJob job = fixture->MakeJob();
  job.client_cache_capacity = 1;  // every delivery evicts the previous client
  FedRunner runner(std::move(job));
  RunResult result = runner.Run();

  // Capacity is a pure performance knob: the pathological capacity-1 cache
  // still reproduces the no-evict course bit for bit.
  EXPECT_TRUE(BitEqual(no_evict.result.final_model.GetStateDict(),
                       result.final_model.GetStateDict()));
  EXPECT_EQ(no_evict.result.server.curve, result.server.curve);
  EXPECT_EQ(no_evict.result.client_test_accuracy, result.client_test_accuracy);

  const ClientCacheStats& stats = runner.client_cache()->stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_GT(stats.restores, 0);
  // Get() runs before Trim(), so at most capacity + 1 clients coexist.
  EXPECT_LE(stats.live_peak, 2);

  // Evicting a trained client and re-instantiating it must re-derive the
  // exact post-course state: rng stream position, clocks, counters, model.
  Payload before;
  runner.client(1)->ExportResume(&before);
  runner.client(2);  // evicts client 1
  Payload after;
  runner.client(1)->ExportResume(&after);
  EXPECT_EQ(EncodePayload(before), EncodePayload(after));
}

// ---------------------------------------------------------------------------
// One range-addressed finish reaches exactly the members
// ---------------------------------------------------------------------------

TEST_F(VirtualizationTest, RangeFinishMarksExactlyTheMembers) {
  // A guarded course with NaN-poisoning clients quarantines some of them.
  // The course ends with one finish covering the remaining members: each
  // live member handles its own copy (OnFinish), each non-live member is
  // marked finished in the cache, and no quarantined client is either.
  CourseSpec spec = BaseSpec();
  spec.max_rounds = 6;
  spec.hostile_frac = 0.25;
  spec.hostile_mode = "nan";
  spec.guard = true;
  spec.guard_k = 1;
  spec = CourseGen::Clamp(spec);
  auto fixture = MakeCourseFixture(spec);
  FedJob job = fixture->MakeJob();
  job.virtualize = true;
  job.deploy_eval = false;
  std::vector<Message> finishes;
  job.delivery_tap = [&finishes](const Message& msg) {
    if (msg.msg_type == events::kFinish && !IsAggregatorId(msg.receiver)) {
      finishes.push_back(msg);
    }
  };
  FedRunner runner(std::move(job));
  const RunResult result = runner.Run();
  ASSERT_TRUE(runner.server()->finished());
  const std::set<int> quarantined(result.server.quarantined.begin(),
                                  result.server.quarantined.end());
  ASSERT_FALSE(quarantined.empty());

  ASSERT_EQ(finishes.size(), 1u);
  const ClientRange members = ClientRange::Of(finishes[0]);
  const int population = spec.EffectiveClients();
  for (int id = 1; id <= population; ++id) {
    EXPECT_EQ(members.Contains(id), quarantined.count(id) == 0)
        << "client " << id;
  }

  // Live clients first: reading them evicts no one.
  const std::vector<int> live = runner.client_cache()->LiveIds();
  ASSERT_FALSE(live.empty());
  for (int id : live) {
    EXPECT_EQ(runner.client(id)->finished(), members.Contains(id))
        << "live client " << id;
  }
  // Every other client restores its finished state from the cache.
  for (int id = 1; id <= population; ++id) {
    EXPECT_EQ(runner.client(id)->finished(), members.Contains(id))
        << "client " << id;
  }
}

}  // namespace
}  // namespace fedscope
