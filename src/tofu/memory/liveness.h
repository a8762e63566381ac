// Liveness-aware residency analysis for a partitioned graph, behind the MemoryModel
// interface every layer consults. Moved here from partition/plan.cc so the search, the
// session's feasibility verdict, the schedule repair pass, and the simulator all share
// one buffer model:
//
//   - model state (inputs, weights, optimizer history -- every producer-less tensor)
//     stays resident for the whole iteration;
//   - a produced tensor's buffer is allocated when its producer runs and freed after
//     its last consumer (a produced tensor nobody reads lives to the end);
//   - in-place outputs (OpNode::inplace_input) extend their input's buffer instead of
//     allocating a new one, so an alias chain is one buffer rooted at its first tensor.
#ifndef TOFU_MEMORY_LIVENESS_H_
#define TOFU_MEMORY_LIVENESS_H_

#include <cstdint>
#include <vector>

#include "tofu/graph/graph.h"
#include "tofu/partition/plan.h"

namespace tofu {

// The per-buffer facts the peak sweep, the schedule repair pass, and the replay
// simulator all need. Indexed by TensorId; non-root entries carry zero bytes and are
// accounted under their chain root.
struct LivenessAnalysis {
  // Alias-chain root per tensor (buffer[t] == t for roots).
  std::vector<TensorId> buffer;
  // Shard bytes per buffer root (aliases share storage; max over chain members).
  std::vector<std::int64_t> buf_bytes;
  // Op that allocates the buffer, or -1 for resident model state (producer-less root).
  std::vector<int> alloc_at;
  // Last op that reads any alias (num_ops = lives to the end of the iteration).
  std::vector<int> free_at;
  int num_ops = 0;

  bool IsRoot(TensorId t) const { return buffer[static_cast<size_t>(t)] == t; }
  // Resident model state: never freed, charged for the whole iteration.
  bool IsModelState(TensorId root) const {
    return alloc_at[static_cast<size_t>(root)] < 0;
  }
};

// Resolves alias chains and computes every buffer's bytes and lifetime under `plan`'s
// final tilings. Op ids are a topological order, so one forward pass suffices.
LivenessAnalysis AnalyzeLiveness(const Graph& graph, const PartitionPlan& plan);

// Per-worker residency upper bound: every tensor's final shard resident at once, no
// liveness or buffer-reuse credit. Schedule-independent, hence conservative.
std::int64_t AllResidentShardBytes(const Graph& graph, const PartitionPlan& plan);

// Liveness-aware per-worker peak for a program-order schedule with everything
// resident. Always <= AllResidentShardBytes; this is what the session's budget check
// and feasibility verdict use. Defined in schedule.cc on the shared PeakProfile.
std::int64_t LivenessPeakShardBytes(const Graph& graph, const PartitionPlan& plan);

// The interface the planner layers program against. The default model is the liveness
// sweep above; ScheduledMemoryModel (memory/schedule.h) prices plans that carry a
// MemorySchedule.
class MemoryModel {
 public:
  virtual ~MemoryModel() = default;
  // Per-worker peak resident bytes of `plan` on `graph`.
  virtual std::int64_t PeakShardBytes(const Graph& graph,
                                      const PartitionPlan& plan) const = 0;
  // Schedule-independent upper bound (everything resident at once).
  virtual std::int64_t AllResidentBytes(const Graph& graph,
                                        const PartitionPlan& plan) const = 0;
};

class LivenessMemoryModel final : public MemoryModel {
 public:
  std::int64_t PeakShardBytes(const Graph& graph,
                              const PartitionPlan& plan) const override {
    return LivenessPeakShardBytes(graph, plan);
  }
  std::int64_t AllResidentBytes(const Graph& graph,
                                const PartitionPlan& plan) const override {
    return AllResidentShardBytes(graph, plan);
  }
};

// Process-wide default (stateless, hence shareable).
const MemoryModel& DefaultMemoryModel();

}  // namespace tofu

#endif  // TOFU_MEMORY_LIVENESS_H_
