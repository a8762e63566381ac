// The benchmark's own tests: the generator is deterministic per seed, the digest file
// covers every pool, and each workload exercises the path it claims. Each workload test
// runs exactly one deck round (seconds = 0).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "specs.h"
#include "workloads.h"

namespace planbench {
namespace {

std::vector<size_t> Deal(std::vector<int> weights, std::uint64_t seed, int n) {
  Deck deck(std::move(weights), seed);
  std::vector<size_t> cards;
  for (int i = 0; i < n; ++i) cards.push_back(deck.Next());
  return cards;
}

const DigestTable& Digests() {
  static const DigestTable* table = new DigestTable(LoadDigests(PLANBENCH_DIGESTS));
  return *table;
}

WorkloadResult RunOneRound(const std::string& workload, bool trace = false) {
  RunOptions options;
  options.workload = workload;
  options.seed = 7;
  options.seconds = 0.0;
  options.setup_reps = 1;
  options.trace = trace;
  options.digests = &Digests();
  return RunWorkload(options);
}

std::vector<int> ServeWeights() {
  std::vector<int> weights;
  for (const ServeSpec& spec : ServePool()) weights.push_back(spec.weight);
  return weights;
}

TEST(Generator, SameSeedSameSequence) {
  EXPECT_EQ(Deal(ServeWeights(), 42, 500), Deal(ServeWeights(), 42, 500));
  EXPECT_EQ(Deal({1, 1, 1, 1}, 3, 50), Deal({1, 1, 1, 1}, 3, 50));
}

TEST(Generator, DifferentSeedsDrawDifferentMixes) {
  const std::vector<size_t> a = Deal(ServeWeights(), 1, 500);
  const std::vector<size_t> b = Deal(ServeWeights(), 2, 500);
  EXPECT_NE(a, b);
  // Different orders, and (through the partial last round) different multisets.
  std::multiset<size_t> head_a(a.begin(), a.begin() + 30);
  std::multiset<size_t> head_b(b.begin(), b.begin() + 30);
  EXPECT_NE(head_a, head_b);
}

TEST(Generator, EveryRoundHoldsTheWholePoolByWeight) {
  const std::vector<int> weights = ServeWeights();
  int round = 0;
  for (int w : weights) round += w;
  Deck deck(weights, 9);
  for (int r = 0; r < 3; ++r) {
    std::vector<int> seen(weights.size(), 0);
    for (int i = 0; i < round; ++i) ++seen[deck.Next()];
    EXPECT_EQ(seen, weights);
    EXPECT_EQ(deck.rounds_done(), r + 1);
  }
}

TEST(Digests, CoverEveryPoolKeyOfEveryWorkload) {
  std::set<std::string> keys;
  for (const ColdSpec& spec : ColdPool()) keys.insert(spec.key);
  for (const LadderSpec& spec : LadderPool()) {
    for (const Rung& rung : LadderRungs(spec, 2, 1)) keys.insert(rung.key);
  }
  for (const ServeSpec& spec : ServePool()) keys.insert(spec.key);
  for (const std::string& key : keys) {
    EXPECT_EQ(Digests().count(key), 1u) << key;
  }
  EXPECT_EQ(keys.size(), Digests().size());
}

TEST(Workloads, ColdPlanOnlyMisses) {
  const WorkloadResult r = RunOneRound("cold_plan");
  EXPECT_EQ(r.loop.failed, 0) << (r.failures.empty() ? "" : r.failures[0]);
  const std::int64_t requests = static_cast<std::int64_t>(r.loop.latencies_ms.size());
  EXPECT_EQ(requests, static_cast<std::int64_t>(ColdPool().size()));
  EXPECT_EQ(r.cache.hits, 0);
  EXPECT_EQ(r.cache.coalesced, 0);
  EXPECT_EQ(r.cache.misses, requests);
  EXPECT_EQ(r.searches, requests);
  EXPECT_GT(r.plan_comm_seconds, 0.0);
}

TEST(Workloads, ReplanLadderRepairsReusesAndRefuses) {
  const WorkloadResult r = RunOneRound("replan_ladder");
  EXPECT_EQ(r.loop.failed, 0) << (r.failures.empty() ? "" : r.failures[0]);
  EXPECT_GT(r.step_table_hits, 0u);
  EXPECT_EQ(r.cache.hits, 0);
  EXPECT_GT(r.plan_mem_overhead_seconds, 0.0);
  for (const LadderSpec& spec : LadderPool()) {
    const std::string prefix = LadderKeyPrefix(spec);
    auto has_prefix = [&](const std::set<std::string>& keys) {
      auto it = keys.lower_bound(prefix);
      return it != keys.end() && it->compare(0, prefix.size(), prefix) == 0;
    };
    EXPECT_TRUE(has_prefix(r.scheduled_keys)) << spec.model << ": no MemorySchedule";
    EXPECT_TRUE(has_prefix(r.exhausted_keys)) << spec.model << ": no kResourceExhausted";
    EXPECT_EQ(r.exhausted_keys.count(prefix + "below-floor"), 1u) << spec.model;
  }
}

TEST(Workloads, WarmServeOnlyHits) {
  const WorkloadResult r = RunOneRound("warm_serve");
  EXPECT_EQ(r.loop.failed, 0) << (r.failures.empty() ? "" : r.failures[0]);
  const std::int64_t requests = static_cast<std::int64_t>(r.loop.latencies_ms.size());
  EXPECT_GT(requests, 0);
  EXPECT_EQ(r.cache.misses, 0);
  EXPECT_EQ(r.cache.hits, requests);
  EXPECT_EQ(r.searches, 0);
}

TEST(Workloads, TracedRunRecordsLoopAndReexecutedSpans) {
  const WorkloadResult r = RunOneRound("warm_serve", /*trace=*/true);
  EXPECT_EQ(r.loop.failed, 0) << (r.failures.empty() ? "" : r.failures[0]);
  EXPECT_FALSE(r.untraced_loop.latencies_ms.empty());
  std::set<std::string> loop_spans;
  std::set<std::string> reexecuted;
  for (const Span& span : r.trace.spans()) {
    (span.reexecuted ? reexecuted : loop_spans).insert(span.name);
    EXPECT_LE(span.start_s, span.end_s);
  }
  EXPECT_EQ(loop_spans, (std::set<std::string>{"request", "serve.parse",
                                               "serve.plan_service", "serve.render"}));
  EXPECT_EQ(reexecuted,
            (std::set<std::string>{"models.build", "session.hit", "partition.validate",
                                   "partition.plan_json"}));
  const auto self = r.trace.WeightedSelfSeconds();
  EXPECT_GT(self.at("serve.render"), 0.0);
}

}  // namespace
}  // namespace planbench
