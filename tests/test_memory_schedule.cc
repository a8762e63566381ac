// Unified memory planner tests: liveness edge cases (in-place alias chains,
// zero-consumer outputs, resident model state), the repair pass's prefix-greedy
// schedule, the analytic-vs-simulated overhead bounds, budget-ladder monotonicity
// (tighter budget => equal-or-higher offload cost), the tofu.plan.v4 round trip, and
// the session-level end-to-end path, and a differential check of the incremental
// repair pass against today's rebuild-per-mark algorithm on four model families.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "tofu/core/session.h"
#include "tofu/memory/liveness.h"
#include "tofu/memory/repair.h"
#include "tofu/memory/schedule.h"
#include "tofu/memory/sim_replay.h"
#include "tofu/models/mlp.h"
#include "tofu/models/rnn.h"
#include "tofu/models/transformer.h"
#include "tofu/models/wresnet.h"
#include "tofu/partition/plan_io.h"
#include "tofu/partition/recursive.h"
#include "tofu/util/strings.h"

namespace tofu {
namespace {

ModelGraph MidMlp() {
  MlpConfig config;
  config.layer_sizes = {512, 512, 512, 256};
  config.batch = 64;
  return BuildMlp(config);
}

// ScheduledPeakShardBytes of MidMlp @8 repaired halfway between floor and peak.
constexpr std::int64_t kMidMlpHalfwayPeak = 676616;

// x,w resident state; m = matmul(x,w); r = relu(m); acc = add(r,m) in-place on r.
// Every tensor is [8,8] fp32 = 256 bytes; one worker, so shards are full tensors.
struct TinyGraph {
  Graph graph;
  TensorId x, w, m, r, acc;
  OpId relu_op;
  PartitionPlan plan;  // trivial 1-worker plan

  TinyGraph() {
    x = graph.AddInput("x", {8, 8});
    w = graph.AddParam("w", {8, 8});
    m = graph.AddOp("matmul", {}, {x, w}, "m");
    r = graph.AddOp("relu", {}, {m}, "r");
    relu_op = graph.num_ops() - 1;
    acc = graph.AddOp("add", {}, {r, m}, "acc");
    graph.op(graph.num_ops() - 1).inplace_input = 0;  // acc reuses r's buffer
  }
};

TEST(Liveness, InPlaceAliasChainSharesOneBuffer) {
  TinyGraph t;
  const LivenessAnalysis liveness = AnalyzeLiveness(t.graph, t.plan);
  // acc's output extends r's buffer: the chain root is r, not a fresh allocation.
  EXPECT_EQ(liveness.buffer[static_cast<size_t>(t.acc)], t.r);
  EXPECT_TRUE(liveness.IsRoot(t.r));
  EXPECT_FALSE(liveness.IsRoot(t.acc));
  // The buffer is allocated where the chain root is produced (the relu).
  EXPECT_EQ(liveness.alloc_at[static_cast<size_t>(t.r)], t.relu_op);
}

TEST(Liveness, ZeroConsumerOutputLivesToTheEnd) {
  TinyGraph t;
  const LivenessAnalysis liveness = AnalyzeLiveness(t.graph, t.plan);
  // Nobody reads acc, so its buffer (rooted at r) is never freed.
  EXPECT_EQ(liveness.free_at[static_cast<size_t>(t.r)], liveness.num_ops);
  // m's last consumer is the in-place add; it is freed right after.
  EXPECT_LT(liveness.free_at[static_cast<size_t>(t.m)], liveness.num_ops);
}

TEST(Liveness, ModelStateStaysResident) {
  TinyGraph t;
  const LivenessAnalysis liveness = AnalyzeLiveness(t.graph, t.plan);
  EXPECT_TRUE(liveness.IsModelState(t.x));
  EXPECT_TRUE(liveness.IsModelState(t.w));
  EXPECT_FALSE(liveness.IsModelState(t.r));
  // Peak: at the relu, x + w + m + r are all live (the add keeps m alive and extends
  // r's buffer in place): 4 x 256 bytes. The alias does NOT add a fifth buffer.
  EXPECT_EQ(LivenessPeakShardBytes(t.graph, t.plan), 4 * 256);
  // The schedule-independent bound has no reuse credit and stays above the peak.
  EXPECT_GE(AllResidentShardBytes(t.graph, t.plan),
            LivenessPeakShardBytes(t.graph, t.plan));
}

TEST(Schedule, SwappedModelStateChargedOnlyAtTouchingOps) {
  TinyGraph t;
  MemorySchedule schedule;
  MemoryDecision d;
  d.tensor = t.w;
  d.residency = Residency::kSwap;
  d.bytes = 256.0;
  schedule.decisions.push_back(d);
  // With w offloaded it is only device-resident while the matmul reads it, so the
  // relu-time peak drops from x+w+m+r to x+m+r.
  EXPECT_EQ(ScheduledPeakShardBytes(t.graph, t.plan, schedule), 3 * 256);
  // An empty schedule reproduces the plain liveness sweep exactly.
  EXPECT_EQ(ScheduledPeakShardBytes(t.graph, t.plan, MemorySchedule{}),
            LivenessPeakShardBytes(t.graph, t.plan));
}

// Plans loaded over a socket are untrusted, so a schedule may repeat a decision, name
// an alias instead of its chain root, or list a kResident decision. None of these may
// move the peak: the messy schedule prices exactly like the repair pass's own.
TEST(Schedule, DuplicateAliasAndResidentDecisionsChangeNothing) {
  ModelGraph model = MidMlp();
  PartitionPlan plan = RecursivePartition(model.graph, 8);
  const LivenessAnalysis live = AnalyzeLiveness(model.graph, plan);
  const std::int64_t baseline = LivenessPeakShardBytes(model.graph, plan);
  const std::int64_t floor = MinAchievablePeakBytes(model.graph, plan);
  const RepairResult repair =
      BuildRepairSchedule(model.graph, plan, floor + (baseline - floor) / 2,
                          MemoryPolicy::kAuto, MemoryPricing{});
  ASSERT_TRUE(repair.feasible);
  const MemorySchedule& clean = *repair.schedule;
  ASSERT_FALSE(clean.decisions.empty());

  std::vector<bool> decided(static_cast<size_t>(model.graph.num_tensors()), false);
  for (const MemoryDecision& d : clean.decisions) {
    decided[static_cast<size_t>(d.tensor)] = true;
  }
  MemorySchedule messy = clean;
  messy.decisions.insert(messy.decisions.end(), clean.decisions.begin(),
                         clean.decisions.end());
  // An alias whose root the pass kept resident, and a kResident decision on a
  // produced root the pass kept resident -- each chosen so that really offloading its
  // root would lower the peak, so a profile that honoured either decision shows it.
  auto offloading_lowers_peak = [&](TensorId root) {
    MemorySchedule more = clean;
    MemoryDecision d;
    d.tensor = root;
    d.residency = Residency::kSwap;
    more.decisions.push_back(d);
    return ScheduledPeakShardBytes(model.graph, plan, more) <
           clean.scheduled_peak_bytes;
  };
  TensorId alias = -1;
  TensorId resident_root = -1;
  for (TensorId t = 0; t < model.graph.num_tensors(); ++t) {
    const TensorId root = live.buffer[static_cast<size_t>(t)];
    if (decided[static_cast<size_t>(root)]) continue;
    if (alias < 0 && !live.IsRoot(t) && offloading_lowers_peak(root)) alias = t;
    if (resident_root < 0 && live.IsRoot(t) && !live.IsModelState(t) &&
        offloading_lowers_peak(t)) {
      resident_root = t;
    }
  }
  ASSERT_GE(alias, 0);
  ASSERT_GE(resident_root, 0);
  MemoryDecision d;
  d.tensor = alias;
  d.residency = Residency::kSwap;
  messy.decisions.push_back(d);
  d.tensor = resident_root;
  d.residency = Residency::kResident;
  messy.decisions.push_back(d);
  // Ids outside the graph are ignored as well.
  d.residency = Residency::kSwap;
  d.tensor = -3;
  messy.decisions.push_back(d);
  d.tensor = model.graph.num_tensors();
  messy.decisions.push_back(d);

  EXPECT_EQ(ScheduledPeakShardBytes(model.graph, plan, messy),
            clean.scheduled_peak_bytes);
  EXPECT_EQ(ScheduledPeakShardBytes(model.graph, plan, clean),
            clean.scheduled_peak_bytes);
  // Pinned from the rebuild-per-mark implementation this profile replaced.
  EXPECT_EQ(clean.scheduled_peak_bytes, kMidMlpHalfwayPeak);
}

TEST(Repair, MakesInfeasibleBudgetFeasible) {
  ModelGraph model = MidMlp();
  PartitionPlan plan = RecursivePartition(model.graph, 8);
  const std::int64_t baseline = LivenessPeakShardBytes(model.graph, plan);
  const std::int64_t floor = MinAchievablePeakBytes(model.graph, plan);
  ASSERT_LT(floor, baseline);
  const std::int64_t budget = floor + (baseline - floor) / 2;

  const RepairResult repair = BuildRepairSchedule(model.graph, plan, budget,
                                                 MemoryPolicy::kAuto, MemoryPricing{});
  ASSERT_TRUE(repair.feasible);
  ASSERT_NE(repair.schedule, nullptr);
  EXPECT_FALSE(repair.schedule->decisions.empty());
  EXPECT_EQ(repair.schedule->baseline_peak_bytes, baseline);
  EXPECT_LE(repair.schedule->scheduled_peak_bytes, budget);
  // The stored peak is exactly what re-evaluating the schedule yields.
  EXPECT_EQ(ScheduledPeakShardBytes(model.graph, plan, *repair.schedule),
            repair.schedule->scheduled_peak_bytes);
  // Decisions are sorted by tensor id and each carries a positive price.
  for (size_t i = 0; i < repair.schedule->decisions.size(); ++i) {
    const MemoryDecision& decision = repair.schedule->decisions[i];
    EXPECT_NE(decision.residency, Residency::kResident);
    EXPECT_GT(decision.bytes, 0.0);
    EXPECT_GT(decision.overhead_seconds, 0.0);
    if (i > 0) {
      EXPECT_LT(repair.schedule->decisions[i - 1].tensor, decision.tensor);
    }
  }
}

TEST(Repair, BudgetBelowFloorStaysInfeasibleAndReportsTheFloor) {
  ModelGraph model = MidMlp();
  PartitionPlan plan = RecursivePartition(model.graph, 8);
  const std::int64_t floor = MinAchievablePeakBytes(model.graph, plan);
  const RepairResult repair = BuildRepairSchedule(model.graph, plan, floor - 1,
                                                 MemoryPolicy::kAuto, MemoryPricing{});
  EXPECT_FALSE(repair.feasible);
  EXPECT_EQ(repair.min_achievable_peak_bytes, floor);
  // kNone never repairs, even when a schedule could fit.
  const RepairResult none = BuildRepairSchedule(
      model.graph, plan, LivenessPeakShardBytes(model.graph, plan) - 1,
      MemoryPolicy::kNone, MemoryPricing{});
  EXPECT_FALSE(none.feasible);
}

TEST(Repair, AnalyticVsSimulatedWithinTwoX) {
  ModelGraph model = MidMlp();
  PartitionPlan plan = RecursivePartition(model.graph, 8);
  const std::int64_t baseline = LivenessPeakShardBytes(model.graph, plan);
  const std::int64_t floor = MinAchievablePeakBytes(model.graph, plan);
  const MemoryPricing pricing;
  for (MemoryPolicy policy : {MemoryPolicy::kAuto, MemoryPolicy::kSwapOnly,
                              MemoryPolicy::kRecomputeOnly}) {
    const RepairResult repair = BuildRepairSchedule(
        model.graph, plan, floor + (baseline - floor) / 2, policy, pricing);
    if (!repair.feasible) {
      continue;  // a restricted policy may not reach the budget; kAuto must
    }
    const double analytic = repair.schedule->AnalyticOverheadSeconds();
    const double simulated =
        SimulateScheduleSeconds(model.graph, plan, *repair.schedule, pricing);
    ASSERT_GT(analytic, 0.0) << MemoryPolicyName(policy);
    EXPECT_GE(simulated, analytic * (1.0 - 1e-9)) << MemoryPolicyName(policy);
    EXPECT_LE(simulated, 2.0 * analytic * (1.0 + 1e-9)) << MemoryPolicyName(policy);
  }
}

TEST(Repair, BudgetLadderIsMonotone) {
  ModelGraph model = MidMlp();
  PartitionPlan plan = RecursivePartition(model.graph, 8);
  const std::int64_t baseline = LivenessPeakShardBytes(model.graph, plan);
  const std::int64_t floor = MinAchievablePeakBytes(model.graph, plan);
  double previous_overhead = -1.0;
  size_t previous_decisions = 0;
  // Descend from just-infeasible to the floor: each tighter budget must mark a
  // superset of the looser budget's decisions (prefix of one sorted candidate list),
  // so overhead and decision count never decrease.
  for (int i = 0; i <= 8; ++i) {
    const std::int64_t budget = baseline - 1 - ((baseline - 1 - floor) * i) / 8;
    const RepairResult repair = BuildRepairSchedule(model.graph, plan, budget,
                                                   MemoryPolicy::kAuto, MemoryPricing{});
    ASSERT_TRUE(repair.feasible) << "budget " << budget;
    const double overhead =
        repair.schedule->swap_seconds + repair.schedule->recompute_seconds;
    EXPECT_GE(overhead, previous_overhead) << "budget " << budget;
    EXPECT_GE(repair.schedule->decisions.size(), previous_decisions);
    previous_overhead = overhead;
    previous_decisions = repair.schedule->decisions.size();
  }
}

TEST(PlanIo, ScheduleRoundTripsThroughV4) {
  ModelGraph model = MidMlp();
  PartitionPlan plan = RecursivePartition(model.graph, 8);
  const std::int64_t baseline = LivenessPeakShardBytes(model.graph, plan);
  const RepairResult repair = BuildRepairSchedule(
      model.graph, plan, MinAchievablePeakBytes(model.graph, plan) + 1,
      MemoryPolicy::kAuto, MemoryPricing{});
  ASSERT_TRUE(repair.feasible);
  plan.memory_schedule = repair.schedule;
  plan.memory_budget_bytes = repair.schedule->budget_bytes;
  ASSERT_LT(repair.schedule->scheduled_peak_bytes, baseline);

  const std::string json = PlanToJson(plan);
  EXPECT_NE(json.find(kPlanJsonSchemaV4), std::string::npos);
  Result<PartitionPlan> loaded = PlanFromJson(json);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(ValidatePlanForGraph(model.graph, *loaded).ok());
  ASSERT_NE(loaded->memory_schedule, nullptr);
  const MemorySchedule& a = *plan.memory_schedule;
  const MemorySchedule& b = *loaded->memory_schedule;
  EXPECT_EQ(a.budget_bytes, b.budget_bytes);
  EXPECT_EQ(a.baseline_peak_bytes, b.baseline_peak_bytes);
  EXPECT_EQ(a.scheduled_peak_bytes, b.scheduled_peak_bytes);
  EXPECT_EQ(a.swap_bytes, b.swap_bytes);            // %.17g: bit-identical doubles
  EXPECT_EQ(a.swap_seconds, b.swap_seconds);
  EXPECT_EQ(a.recompute_seconds, b.recompute_seconds);
  EXPECT_EQ(a.host_bandwidth, b.host_bandwidth);
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].tensor, b.decisions[i].tensor);
    EXPECT_EQ(a.decisions[i].residency, b.decisions[i].residency);
    EXPECT_EQ(a.decisions[i].bytes, b.decisions[i].bytes);
    EXPECT_EQ(a.decisions[i].overhead_seconds, b.decisions[i].overhead_seconds);
  }
  // And the reloaded plan re-serializes byte-identically.
  EXPECT_EQ(PlanToJson(*loaded), json);
}

TEST(PlanIo, ScheduleFreePlansKeepTheirOldSchema) {
  ModelGraph model = MidMlp();
  PartitionPlan plan = RecursivePartition(model.graph, 8);
  const std::string json = PlanToJson(plan);
  EXPECT_NE(json.find(kPlanJsonSchema), std::string::npos);
  EXPECT_EQ(json.find("memory_schedule"), std::string::npos);
}

TEST(Session, RepairedBudgetReturnsScheduleWithBoundedOverhead) {
  ModelGraph model = MidMlp();
  Session session(DeviceTopology::FromCluster(K80Cluster()));
  PartitionRequest request;
  request.graph = &model.graph;

  Result<PartitionResponse> unconstrained = session.Partition(request);
  ASSERT_TRUE(unconstrained.ok());
  ASSERT_EQ(unconstrained->plan.memory_schedule, nullptr);
  const std::int64_t floor =
      MinAchievablePeakBytes(model.graph, unconstrained->plan);

  PartitionRequest tight = request;
  tight.memory_budget_bytes = floor + (unconstrained->peak_shard_bytes - floor) / 2;
  Result<PartitionResponse> repaired = session.Partition(tight);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  ASSERT_NE(repaired->plan.memory_schedule, nullptr);
  EXPECT_LE(repaired->peak_shard_bytes, tight.memory_budget_bytes);
  EXPECT_TRUE(repaired->plan.memory_feasible);
  const double analytic = repaired->memory_overhead_seconds;
  const double simulated = repaired->simulated_memory_seconds;
  ASSERT_GT(analytic, 0.0);
  EXPECT_GE(simulated, analytic * (1.0 - 1e-9));
  EXPECT_LE(simulated, 2.0 * analytic * (1.0 + 1e-9));

  // The same budget under kNone restores the pre-repair refusal, and the message
  // quotes the floor no schedule can beat.
  PartitionRequest no_repair = tight;
  no_repair.options.memory_policy = MemoryPolicy::kNone;
  Result<PartitionResponse> refused = session.Partition(no_repair);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.status().message().find("minimum achievable peak"),
            std::string::npos)
      << refused.status().ToString();
}

TEST(Session, MemoryFrontierIsMonotone) {
  ModelGraph model = MidMlp();
  Session session(DeviceTopology::FromCluster(K80Cluster()));
  PartitionRequest request;
  request.graph = &model.graph;
  Result<PartitionResponse> unconstrained = session.Partition(request);
  ASSERT_TRUE(unconstrained.ok());
  const std::int64_t peak = unconstrained->peak_shard_bytes;
  const std::int64_t floor =
      MinAchievablePeakBytes(model.graph, unconstrained->plan);

  // Budgets from roomy to below the floor: the all-resident regime, the repair
  // regime, and one genuinely infeasible row.
  std::vector<std::int64_t> budgets;
  for (int i = 0; i <= 4; ++i) {
    budgets.push_back(peak + 1 - ((peak + 1 - floor) * i) / 4);
  }
  budgets.push_back(floor / 2);
  Result<std::vector<FrontierPoint>> frontier =
      session.MemoryFrontier(request, budgets);
  ASSERT_TRUE(frontier.ok()) << frontier.status().ToString();
  ASSERT_EQ(frontier->size(), budgets.size());
  EXPECT_TRUE(frontier->front().feasible);
  EXPECT_EQ(frontier->front().memory_overhead_seconds, 0.0);
  EXPECT_FALSE(frontier->back().feasible);
  double previous_overhead = -1.0;
  for (size_t i = 0; i + 1 < frontier->size(); ++i) {
    const FrontierPoint& point = (*frontier)[i];
    ASSERT_TRUE(point.feasible) << "budget " << point.budget_bytes;
    EXPECT_LE(point.peak_shard_bytes, point.budget_bytes);
    // Tighter budget => equal-or-higher offload cost (prefix-greedy supersets).
    EXPECT_GE(point.memory_overhead_seconds, previous_overhead);
    previous_overhead = point.memory_overhead_seconds;
  }
}

// The rebuild-from-scratch peak sweep the incremental PeakProfile replaced, kept as
// the differential reference: per-op alloc/free lists for resident buffers, and a
// whole-graph alias scan per offloaded root.
std::int64_t ReferenceScheduledPeak(const Graph& graph, const PartitionPlan& plan,
                                    const MemorySchedule& schedule) {
  const LivenessAnalysis live = AnalyzeLiveness(graph, plan);
  const int num_tensors = graph.num_tensors();
  const int num_ops = live.num_ops;
  std::vector<bool> offloaded(static_cast<size_t>(num_tensors), false);
  for (const MemoryDecision& d : schedule.decisions) {
    if (d.residency != Residency::kResident && d.tensor >= 0 &&
        d.tensor < num_tensors) {
      offloaded[static_cast<size_t>(d.tensor)] = true;
    }
  }
  std::vector<std::vector<TensorId>> alloc_list(static_cast<size_t>(num_ops));
  std::vector<std::vector<TensorId>> free_list(static_cast<size_t>(num_ops));
  std::vector<std::int64_t> transient(static_cast<size_t>(num_ops), 0);
  std::int64_t resident = 0;
  for (TensorId b = 0; b < num_tensors; ++b) {
    if (!live.IsRoot(b)) continue;
    const size_t bi = static_cast<size_t>(b);
    if (!offloaded[bi]) {
      if (live.IsModelState(b)) {
        resident += live.buf_bytes[bi];
        continue;
      }
      alloc_list[static_cast<size_t>(live.alloc_at[bi])].push_back(b);
      if (live.free_at[bi] < num_ops) {
        free_list[static_cast<size_t>(live.free_at[bi])].push_back(b);
      }
      continue;
    }
    std::vector<bool> charged(static_cast<size_t>(num_ops), false);
    if (live.alloc_at[bi] >= 0) charged[static_cast<size_t>(live.alloc_at[bi])] = true;
    for (TensorId t = 0; t < num_tensors; ++t) {
      if (live.buffer[static_cast<size_t>(t)] != b) continue;
      for (OpId c : graph.tensor(t).consumers) charged[static_cast<size_t>(c)] = true;
    }
    for (OpId k = 0; k < num_ops; ++k) {
      if (charged[static_cast<size_t>(k)]) {
        transient[static_cast<size_t>(k)] += live.buf_bytes[bi];
      }
    }
  }
  std::int64_t current = resident;
  std::int64_t peak = current;
  for (OpId k = 0; k < num_ops; ++k) {
    for (TensorId b : alloc_list[static_cast<size_t>(k)]) {
      current += live.buf_bytes[static_cast<size_t>(b)];
    }
    peak = std::max(peak, current + transient[static_cast<size_t>(k)]);
    for (TensorId b : free_list[static_cast<size_t>(k)]) {
      current -= live.buf_bytes[static_cast<size_t>(b)];
    }
  }
  return peak;
}

bool SameDecision(const MemoryDecision& a, const MemoryDecision& b) {
  return a.tensor == b.tensor && a.residency == b.residency && a.bytes == b.bytes &&
         a.overhead_seconds == b.overhead_seconds;
}

// Runs the incremental repair pass at ~8 budgets from just below the liveness peak
// down to floor - 1 under every trading policy, against today's algorithm: mark one
// more candidate of the pass's sorted list, rebuild the schedule from scratch, and
// re-evaluate ScheduledPeakShardBytes, stopping at the first prefix that fits.
void ExpectRepairMatchesRebuildPerMark(const ModelGraph& model) {
  const Graph& graph = model.graph;
  const PartitionPlan plan = RecursivePartition(graph, 8);
  const std::int64_t baseline = LivenessPeakShardBytes(graph, plan);
  const std::int64_t floor = MinAchievablePeakBytes(graph, plan);
  ASSERT_LT(floor, baseline);
  EXPECT_EQ(baseline, ReferenceScheduledPeak(graph, plan, MemorySchedule{}));
  const MemoryPricing pricing;
  for (MemoryPolicy policy : {MemoryPolicy::kAuto, MemoryPolicy::kSwapOnly,
                              MemoryPolicy::kRecomputeOnly}) {
    SCOPED_TRACE(MemoryPolicyName(policy));
    // The pass's candidate list: below every floor it marks all of them, and its
    // sort key (overhead per byte, overhead, tensor id) recovers their order.
    const RepairResult all =
        BuildRepairSchedule(graph, plan, floor - 1, policy, pricing);
    ASSERT_FALSE(all.feasible);
    std::vector<MemoryDecision> order = all.schedule->decisions;
    std::sort(order.begin(), order.end(),
              [](const MemoryDecision& a, const MemoryDecision& b) {
                const double ra = a.overhead_seconds / a.bytes;
                const double rb = b.overhead_seconds / b.bytes;
                if (ra != rb) return ra < rb;
                if (a.overhead_seconds != b.overhead_seconds) {
                  return a.overhead_seconds < b.overhead_seconds;
                }
                return a.tensor < b.tensor;
              });
    auto prefix_schedule = [&](size_t k) {
      MemorySchedule schedule;
      schedule.decisions.assign(order.begin(), order.begin() + static_cast<long>(k));
      return schedule;
    };
    // Peak after marking each prefix, every one from a schedule rebuilt from scratch.
    std::vector<std::int64_t> prefix_peak = {baseline};
    for (size_t k = 1; k <= order.size(); ++k) {
      prefix_peak.push_back(ScheduledPeakShardBytes(graph, plan, prefix_schedule(k)));
    }
    EXPECT_EQ(prefix_peak.back(), all.min_achievable_peak_bytes);
    EXPECT_EQ(prefix_peak.back(),
              ReferenceScheduledPeak(graph, plan, prefix_schedule(order.size())));

    for (int i = 0; i < 8; ++i) {
      const std::int64_t budget = baseline - 1 - ((baseline - floor) * i) / 7;
      SCOPED_TRACE("budget " + std::to_string(budget));
      size_t k = 0;
      while (prefix_peak[k] > budget && k < order.size()) ++k;
      const std::int64_t expected_peak = prefix_peak[k];

      const RepairResult repair =
          BuildRepairSchedule(graph, plan, budget, policy, pricing);
      ASSERT_NE(repair.schedule, nullptr);
      const MemorySchedule& got = *repair.schedule;
      EXPECT_EQ(repair.feasible, expected_peak <= budget);
      EXPECT_EQ(got.scheduled_peak_bytes, expected_peak);
      EXPECT_EQ(repair.min_achievable_peak_bytes, expected_peak);
      EXPECT_EQ(expected_peak, ReferenceScheduledPeak(graph, plan, prefix_schedule(k)));
      std::vector<MemoryDecision> expected(order.begin(),
                                           order.begin() + static_cast<long>(k));
      std::sort(expected.begin(), expected.end(),
                [](const MemoryDecision& a, const MemoryDecision& b) {
                  return a.tensor < b.tensor;
                });
      ASSERT_EQ(got.decisions.size(), expected.size());
      for (size_t j = 0; j < expected.size(); ++j) {
        EXPECT_TRUE(SameDecision(got.decisions[j], expected[j])) << "decision " << j;
      }
      // Minimal: the marked prefix fits and the one a mark shorter does not.
      if (repair.feasible && k > 0) {
        EXPECT_GT(ScheduledPeakShardBytes(graph, plan, prefix_schedule(k - 1)), budget);
      }
    }
  }
}

TEST(RepairDifferential, MidMlp) { ExpectRepairMatchesRebuildPerMark(MidMlp()); }

TEST(RepairDifferential, Transformer2) {
  TransformerConfig config;
  config.layers = 2;
  ExpectRepairMatchesRebuildPerMark(BuildTransformer(config));
}

TEST(RepairDifferential, WResNet50W4) {
  WResNetConfig config;
  config.layers = 50;
  config.width = 4;
  ExpectRepairMatchesRebuildPerMark(BuildWResNet(config));
}

TEST(RepairDifferential, Rnn2x512) {
  RnnConfig config;
  config.layers = 2;
  config.hidden = 512;
  config.timesteps = 4;
  ExpectRepairMatchesRebuildPerMark(BuildRnn(config));
}

// The model the repair pass used to spend seconds per budgeted request on. Checks
// results only: a mid budget gets a repaired plan that fits, and half the floor gets
// kResourceExhausted quoting the same floor MinAchievablePeakBytes computes.
TEST(Session, LargeRnnBudgetsRepairOrQuoteTheFloor) {
  RnnConfig config;
  config.layers = 4;
  config.hidden = 2048;
  config.timesteps = 10;
  ModelGraph model = BuildRnn(config);
  Session session(DeviceTopology::FromCluster(K80Cluster()));
  PartitionRequest request;
  request.graph = &model.graph;
  Result<PartitionResponse> unconstrained = session.Partition(request);
  ASSERT_TRUE(unconstrained.ok()) << unconstrained.status().ToString();
  const std::int64_t peak = unconstrained->peak_shard_bytes;
  const std::int64_t floor = MinAchievablePeakBytes(model.graph, unconstrained->plan);
  ASSERT_LT(floor, peak);

  PartitionRequest mid = request;
  mid.memory_budget_bytes = floor + (peak - floor) / 2;
  Result<PartitionResponse> repaired = session.Partition(mid);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  ASSERT_NE(repaired->plan.memory_schedule, nullptr);
  EXPECT_LE(repaired->plan.memory_schedule->scheduled_peak_bytes,
            mid.memory_budget_bytes);
  EXPECT_LE(repaired->peak_shard_bytes, mid.memory_budget_bytes);

  PartitionRequest starved = request;
  starved.memory_budget_bytes = floor / 2;
  Result<PartitionResponse> refused = session.Partition(starved);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.status().message().find(
                "minimum achievable peak with every buffer swapped or recomputed: " +
                HumanBytes(static_cast<double>(floor))),
            std::string::npos)
      << refused.status().ToString();
}

}  // namespace
}  // namespace tofu
