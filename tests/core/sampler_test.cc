#include "fedscope/core/sampler.h"

#include <gtest/gtest.h>

#include "fedscope/core/client_id_set.h"

#include <algorithm>
#include <map>
#include <set>

namespace fedscope {
namespace {

std::vector<int> Ids(int n) {
  std::vector<int> ids(n);
  for (int i = 0; i < n; ++i) ids[i] = i + 1;  // 1-based client ids
  return ids;
}

TEST(UniformSamplerTest, DistinctAndWithinCandidates) {
  UniformSampler sampler;
  Rng rng(1);
  auto picked = sampler.Sample(Ids(20), 8, &rng);
  EXPECT_EQ(picked.size(), 8u);
  std::set<int> seen(picked.begin(), picked.end());
  EXPECT_EQ(seen.size(), 8u);
  for (int id : picked) {
    EXPECT_GE(id, 1);
    EXPECT_LE(id, 20);
  }
}

TEST(UniformSamplerTest, KLargerThanPoolReturnsAll) {
  UniformSampler sampler;
  Rng rng(2);
  auto picked = sampler.Sample(Ids(3), 10, &rng);
  EXPECT_EQ(picked.size(), 3u);
}

TEST(UniformSamplerTest, EmptyPool) {
  UniformSampler sampler;
  Rng rng(3);
  EXPECT_TRUE(sampler.Sample({}, 5, &rng).empty());
}

TEST(UniformSamplerTest, ApproximatelyUniform) {
  UniformSampler sampler;
  Rng rng(4);
  std::map<int, int> counts;
  for (int t = 0; t < 4000; ++t) {
    for (int id : sampler.Sample(Ids(10), 2, &rng)) ++counts[id];
  }
  for (const auto& [id, count] : counts) {
    EXPECT_NEAR(count / 8000.0, 0.1, 0.02) << id;
  }
}

TEST(ResponsivenessSamplerTest, FavorsFastClients) {
  // Scores indexed by id-1: client 1 is 10x faster than the rest.
  std::vector<double> scores = {10.0, 1.0, 1.0, 1.0};
  ResponsivenessSampler sampler(scores);
  Rng rng(5);
  int fast_picks = 0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    auto picked = sampler.Sample(Ids(4), 1, &rng);
    if (picked[0] == 1) ++fast_picks;
  }
  // p(client 1) = 10/13 ~ 0.77.
  EXPECT_NEAR(static_cast<double>(fast_picks) / trials, 10.0 / 13.0, 0.05);
}

TEST(ResponsivenessSamplerTest, NegativeExponentFavorsSlowClients) {
  // Fairness mode (p ~ 1/score): the slow client is picked most often.
  std::vector<double> scores = {10.0, 1.0, 10.0, 10.0};
  ResponsivenessSampler sampler(scores, -1.0);
  Rng rng(55);
  int slow_picks = 0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    if (sampler.Sample(Ids(4), 1, &rng)[0] == 2) ++slow_picks;
  }
  // p(client 2) = 1 / (0.1 * 3 + 1) = 0.769.
  EXPECT_NEAR(static_cast<double>(slow_picks) / trials, 1.0 / 1.3, 0.05);
}

TEST(MakeSamplerTest, InverseResponsivenessFactory) {
  auto sampler = MakeSampler("responsiveness_inv", {1.0, 2.0}, 1);
  EXPECT_EQ(sampler->Name(), "responsiveness");
}

TEST(ResponsivenessSamplerTest, WithoutReplacement) {
  ResponsivenessSampler sampler({5.0, 1.0, 1.0});
  Rng rng(6);
  auto picked = sampler.Sample(Ids(3), 3, &rng);
  std::set<int> seen(picked.begin(), picked.end());
  EXPECT_EQ(seen.size(), 3u);
}

TEST(GroupSamplerTest, SamplesWithinOneGroupPerCall) {
  GroupSampler sampler({{1, 2, 3}, {4, 5, 6}});
  Rng rng(7);
  auto first = sampler.Sample(Ids(6), 3, &rng);
  std::set<int> s1(first.begin(), first.end());
  // All three came from the same group.
  const bool all_g0 = s1.count(1) + s1.count(2) + s1.count(3) == 3;
  const bool all_g1 = s1.count(4) + s1.count(5) + s1.count(6) == 3;
  EXPECT_TRUE(all_g0 || all_g1);
  // Next call rotates to the other group.
  auto second = sampler.Sample(Ids(6), 3, &rng);
  std::set<int> s2(second.begin(), second.end());
  const bool second_g0 = s2.count(1) + s2.count(2) + s2.count(3) == 3;
  EXPECT_NE(all_g0, second_g0);
}

TEST(GroupSamplerTest, FallsBackAcrossGroups) {
  GroupSampler sampler({{1, 2}, {3, 4}});
  Rng rng(8);
  // Requesting more than one group holds spills into the next.
  auto picked = sampler.Sample(Ids(4), 4, &rng);
  std::set<int> seen(picked.begin(), picked.end());
  EXPECT_EQ(seen.size(), 4u);
}

TEST(GroupSamplerTest, RespectsCandidateSet) {
  GroupSampler sampler({{1, 2, 3}, {4, 5, 6}});
  Rng rng(9);
  // Only clients 5 and 6 are idle.
  auto picked = sampler.Sample({5, 6}, 2, &rng);
  std::set<int> seen(picked.begin(), picked.end());
  EXPECT_TRUE(seen.count(5));
  EXPECT_TRUE(seen.count(6));
}

TEST(MakeSamplerTest, FactoryBuildsAllKinds) {
  std::vector<double> scores = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(MakeSampler("uniform", scores, 2)->Name(), "uniform");
  EXPECT_EQ(MakeSampler("responsiveness", scores, 2)->Name(),
            "responsiveness");
  EXPECT_EQ(MakeSampler("group", scores, 2)->Name(), "group");
}

TEST(MakeSamplerTest, UnknownNameDies) {
  EXPECT_DEATH(MakeSampler("bogus", {}, 1), "");
}

TEST(MakeSamplerTest, GroupFactoryGroupsBySpeed) {
  // Clients 1..4 with scores 4,3,2,1 -> group 0 = {1,2}, group 1 = {3,4}.
  auto sampler = MakeSampler("group", {4.0, 3.0, 2.0, 1.0}, 2);
  Rng rng(10);
  auto picked = sampler->Sample(Ids(4), 2, &rng);
  std::set<int> seen(picked.begin(), picked.end());
  const bool fast_group = seen.count(1) && seen.count(2);
  const bool slow_group = seen.count(3) && seen.count(4);
  EXPECT_TRUE(fast_group || slow_group);
}

// ---------------------------------------------------------------------------
// Cross-device scale (DESIGN.md §13): sparse sampling and CandidateView
// ---------------------------------------------------------------------------

/// The dense partial-Fisher-Yates Rng::SampleWithoutReplacement runs below
/// its sparse-path threshold, reproduced as the reference the O(k)-memory
/// sparse branch must match draw for draw.
std::vector<int64_t> DenseReference(int64_t n, int64_t k, Rng* rng) {
  std::vector<int64_t> pool(n);
  for (int64_t i = 0; i < n; ++i) pool[i] = i;
  const int64_t take = std::min(k, n);
  for (int64_t i = 0; i < take; ++i) {
    std::swap(pool[i], pool[rng->UniformInt(i, n - 1)]);
  }
  pool.resize(take);
  return pool;
}

TEST(SamplerScaleTest, SparseSampleWithoutReplacementMatchesDense) {
  // 100k ids trips the sparse branch; it must consume the identical rng
  // sequence and return the identical indices.
  for (const int64_t k : {int64_t{1}, int64_t{50}, int64_t{1000}}) {
    Rng sparse_rng(42);
    Rng dense_rng(42);
    const auto sparse = sparse_rng.SampleWithoutReplacement(100000, k);
    const auto dense = DenseReference(100000, k, &dense_rng);
    EXPECT_EQ(sparse, dense) << "k=" << k;
    EXPECT_EQ(sparse_rng.SaveState(), dense_rng.SaveState()) << "k=" << k;
  }
}

TEST(SamplerScaleTest, CandidateViewIndexesAroundExclusions) {
  const CandidateView view(10, {2, 5, 9});
  const std::vector<int> want = {1, 3, 4, 6, 7, 8, 10};
  ASSERT_EQ(view.size(), static_cast<int>(want.size()));
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(view.IdAt(static_cast<int>(i)), want[i]) << i;
  }
  EXPECT_EQ(view.Materialize(), want);
}

TEST(SamplerScaleTest, SampleIdsMatchesMaterializedEnumeration) {
  // The implicit-view draw must be bit-identical to enumerating 100k ids
  // and sampling the vector — same cohort, same rng consumption.
  std::vector<int> excluded;
  for (int id = 1000; id <= 100000; id += 997) excluded.push_back(id);
  const CandidateView view(100000, excluded);
  UniformSampler sampler;
  Rng sparse_rng(7);
  Rng dense_rng(7);
  const auto via_view = sampler.SampleIds(view, 64, &sparse_rng);
  const auto via_vector = sampler.Sample(view.Materialize(), 64, &dense_rng);
  EXPECT_EQ(via_view, via_vector);
  EXPECT_EQ(sparse_rng.SaveState(), dense_rng.SaveState());
}

TEST(SamplerScaleTest, HundredThousandIdDrawIsDeterministic) {
  const CandidateView view(100000, {});
  UniformSampler sampler;
  Rng a(11);
  Rng b(11);
  const auto first = sampler.SampleIds(view, 128, &a);
  const auto second = sampler.SampleIds(view, 128, &b);
  EXPECT_EQ(first, second);
  std::set<int> seen(first.begin(), first.end());
  EXPECT_EQ(seen.size(), 128u);
  for (int id : first) {
    EXPECT_GE(id, 1);
    EXPECT_LE(id, 100000);
  }
}

TEST(SamplerScaleTest, CohortEqualsPopulationReturnsEveryone) {
  const CandidateView view(100000, {});
  UniformSampler sampler;
  Rng rng(13);
  const auto picked = sampler.SampleIds(view, 100000, &rng);
  EXPECT_EQ(picked.size(), 100000u);
  std::set<int> seen(picked.begin(), picked.end());
  EXPECT_EQ(seen.size(), 100000u);
}

TEST(SamplerScaleTest, PopulationOfOne) {
  const CandidateView view(1, {});
  UniformSampler sampler;
  Rng rng(14);
  EXPECT_EQ(sampler.SampleIds(view, 1, &rng), std::vector<int>{1});
  // Over-asking caps at the population, like the vector path.
  Rng rng2(15);
  EXPECT_EQ(sampler.SampleIds(view, 5, &rng2), std::vector<int>{1});
  // A fully excluded population yields an empty cohort.
  const CandidateView empty(1, {1});
  Rng rng3(16);
  EXPECT_TRUE(sampler.SampleIds(empty, 1, &rng3).empty());
}

TEST(ClientIdSetTest, AscendingMembersAndGapsAcrossWords) {
  ClientIdSet set;
  EXPECT_EQ(set.size(), 0);
  EXPECT_TRUE(set.Gaps().empty());
  for (int id : {130, 1, 64, 63, 2, 65}) EXPECT_TRUE(set.Insert(id));
  EXPECT_FALSE(set.Insert(64));
  EXPECT_EQ(set.size(), 6);
  EXPECT_EQ(set.bound(), 130);
  std::vector<int> members;
  set.ForEach([&](int id) { members.push_back(id); });
  EXPECT_EQ(members, (std::vector<int>{1, 2, 63, 64, 65, 130}));
  EXPECT_TRUE(set.Contains(63));
  EXPECT_FALSE(set.Contains(3));
  EXPECT_FALSE(set.Contains(0));
  EXPECT_FALSE(set.Contains(131));

  // Erasing the largest id keeps the range: it becomes a gap.
  EXPECT_TRUE(set.Erase(130));
  EXPECT_FALSE(set.Erase(130));
  EXPECT_EQ(set.bound(), 130);
  const std::vector<int> gaps = set.Gaps();
  ASSERT_EQ(gaps.size(), 130u - 5u);
  EXPECT_EQ(gaps.front(), 3);
  EXPECT_EQ(gaps.back(), 130);
  EXPECT_TRUE(std::is_sorted(gaps.begin(), gaps.end()));
  for (int id : gaps) EXPECT_FALSE(set.Contains(id));

  // The complement is exactly the member list: the CandidateView over
  // [1, bound()] minus the gaps materializes the members.
  EXPECT_EQ(CandidateView(set.bound(), gaps).Materialize(),
            (std::vector<int>{1, 2, 63, 64, 65}));
}

}  // namespace
}  // namespace fedscope
