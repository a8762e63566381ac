#include "tofu/memory/repair.h"

#include <algorithm>
#include <vector>

#include "tofu/sim/lowering.h"
#include "tofu/util/strings.h"

namespace tofu {

const char* MemoryPolicyName(MemoryPolicy policy) {
  switch (policy) {
    case MemoryPolicy::kAuto:
      return "auto";
    case MemoryPolicy::kNone:
      return "none";
    case MemoryPolicy::kSwapOnly:
      return "swap";
    case MemoryPolicy::kRecomputeOnly:
      return "recompute";
  }
  return "?";
}

Result<MemoryPolicy> MemoryPolicyFromName(const std::string& name) {
  if (name == "auto") {
    return MemoryPolicy::kAuto;
  }
  if (name == "none") {
    return MemoryPolicy::kNone;
  }
  if (name == "swap") {
    return MemoryPolicy::kSwapOnly;
  }
  if (name == "recompute") {
    return MemoryPolicy::kRecomputeOnly;
  }
  return Status(StatusCode::kInvalidArgument,
                "unknown memory policy '" + name +
                    "' (expected auto|none|swap|recompute)");
}

std::string MemoryPricing::Fingerprint() const {
  return StrFormat("mbw=%.17g;", HostBandwidth());
}

namespace {

// One shard-kernel run of `op` under `plan`, priced by sim/lowering.cc's recipe at
// the balanced work fraction so recompute pricing matches what the event simulator
// charges for the re-run.
double RecomputeShardSeconds(const Graph& graph, const PartitionPlan& plan,
                             const OpNode& op, const ClusterSpec& cluster) {
  const double work_fraction = 1.0 / static_cast<double>(std::max(1, plan.num_workers));
  const Shape out_shape =
      plan.steps.empty() ? graph.tensor(op.output).shape : plan.ShardShape(graph, op.output);
  return ShardKernelSeconds(graph, op, cluster, work_fraction, EfficiencyRows(op, out_shape));
}

struct Candidate {
  TensorId root = 0;
  Residency residency = Residency::kSwap;
  double bytes = 0.0;
  double overhead_seconds = 0.0;
};

MemorySchedule BuildSchedule(const std::vector<Candidate>& marked,
                             std::int64_t budget_bytes, std::int64_t baseline_peak,
                             double host_bandwidth) {
  MemorySchedule schedule;
  schedule.budget_bytes = budget_bytes;
  schedule.baseline_peak_bytes = baseline_peak;
  schedule.host_bandwidth = host_bandwidth;
  for (const Candidate& c : marked) {
    MemoryDecision d;
    d.tensor = c.root;
    d.residency = c.residency;
    d.bytes = c.bytes;
    d.overhead_seconds = c.overhead_seconds;
    schedule.decisions.push_back(d);
    if (c.residency == Residency::kSwap) {
      schedule.swap_bytes += 2.0 * c.bytes;
      schedule.swap_seconds += c.overhead_seconds;
    } else {
      schedule.recompute_seconds += c.overhead_seconds;
    }
  }
  std::sort(schedule.decisions.begin(), schedule.decisions.end(),
            [](const MemoryDecision& a, const MemoryDecision& b) {
              return a.tensor < b.tensor;
            });
  return schedule;
}

}  // namespace

RepairResult BuildRepairSchedule(const Graph& graph, const PartitionPlan& plan,
                                 std::int64_t budget_bytes, MemoryPolicy policy,
                                 const MemoryPricing& pricing) {
  RepairResult result;
  if (policy == MemoryPolicy::kNone) {
    return result;
  }
  const LivenessAnalysis live = AnalyzeLiveness(graph, plan);
  PeakProfile profile(graph, live);
  const std::int64_t baseline_peak = profile.Peak();
  const double host_bw = pricing.HostBandwidth();
  const int num_tensors = graph.num_tensors();

  // Which roots head an in-place alias chain with more than one member: a single
  // producer re-run cannot reconstruct the accumulated state, so they are swap-only.
  std::vector<bool> aliased(static_cast<size_t>(num_tensors), false);
  for (TensorId t = 0; t < num_tensors; ++t) {
    if (live.buffer[static_cast<size_t>(t)] != t) {
      aliased[static_cast<size_t>(live.buffer[static_cast<size_t>(t)])] = true;
    }
  }

  std::vector<Candidate> candidates;
  for (TensorId b = 0; b < num_tensors; ++b) {
    if (!live.IsRoot(b) || live.buf_bytes[static_cast<size_t>(b)] <= 0) {
      continue;
    }
    const double bytes = static_cast<double>(live.buf_bytes[static_cast<size_t>(b)]);
    const double swap_seconds =
        2.0 * (pricing.cluster.link_latency_s + bytes / host_bw);
    const bool can_swap = policy != MemoryPolicy::kRecomputeOnly;
    const bool can_recompute = policy != MemoryPolicy::kSwapOnly &&
                               !live.IsModelState(b) &&
                               !aliased[static_cast<size_t>(b)];
    Candidate c;
    c.root = b;
    c.bytes = bytes;
    if (can_recompute) {
      c.residency = Residency::kRecompute;
      c.overhead_seconds = RecomputeShardSeconds(
          graph, plan, graph.op(graph.tensor(b).producer), pricing.cluster);
    }
    if (can_swap && (!can_recompute || swap_seconds < c.overhead_seconds)) {
      c.residency = Residency::kSwap;
      c.overhead_seconds = swap_seconds;
    }
    if (!can_swap && !can_recompute) {
      continue;  // e.g. model state under kRecomputeOnly: must stay resident
    }
    candidates.push_back(c);
  }

  // Cheapest relief first: overhead per byte released, deterministic tie-breaks.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              const double ra = a.overhead_seconds / a.bytes;
              const double rb = b.overhead_seconds / b.bytes;
              if (ra != rb) {
                return ra < rb;
              }
              if (a.overhead_seconds != b.overhead_seconds) {
                return a.overhead_seconds < b.overhead_seconds;
              }
              return a.root < b.root;
            });

  // Mark the shortest prefix that fits (none when plain liveness already fits; an
  // empty schedule documents that). Peaks only fall along the prefix.
  size_t marked = 0;
  std::int64_t peak = baseline_peak;
  while (peak > budget_bytes && marked < candidates.size()) {
    profile.Offload(candidates[marked++].root);
    peak = profile.Peak();
  }
  candidates.resize(marked);
  MemorySchedule schedule =
      BuildSchedule(candidates, budget_bytes, baseline_peak, host_bw);
  schedule.scheduled_peak_bytes = peak;
  result.feasible = peak <= budget_bytes;
  result.min_achievable_peak_bytes = peak;
  result.schedule = std::make_shared<const MemorySchedule>(std::move(schedule));
  return result;
}

std::int64_t MinAchievablePeakBytes(const Graph& graph, const PartitionPlan& plan) {
  const LivenessAnalysis live = AnalyzeLiveness(graph, plan);
  PeakProfile profile(graph, live);
  for (TensorId b = 0; b < graph.num_tensors(); ++b) {
    profile.Offload(b);
  }
  return profile.Peak();
}

}  // namespace tofu
