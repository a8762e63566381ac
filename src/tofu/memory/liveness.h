// Liveness-aware residency analysis for a partitioned graph: the one buffer model the
// search, the session's feasibility verdict, the schedule repair pass, the hybrid stage
// accounting, and the simulator share:
//
//   - model state (inputs, weights, optimizer history -- every producer-less tensor
//     some op reads) stays resident for the whole iteration;
//   - a produced tensor's buffer is allocated when its producer runs and freed after
//     its last consumer (a produced tensor nobody reads lives to the end);
//   - in-place outputs (OpNode::inplace_input) extend their input's buffer instead of
//     allocating a new one, so an alias chain is one buffer rooted at its first tensor.
//
// An optional op mask restricts the analysis to the ops one worker runs (a pipeline
// stage, pipeline/compose.h). An op outside the mask does not run on this worker, so a
// tensor no running op produces or reads is not materialized, a buffer whose producer
// runs elsewhere is resident for the whole pass (it arrives before the pass and its
// gradient hand-off pins it), and a buffer produced here that no running op reads
// lives to the end (pinned until it is handed off).
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
  // Op that allocates the buffer, or -1 for resident model state (a root whose
  // producer does not run here: producer-less, or off the op mask).
  std::vector<int> alloc_at;
  // Last running op that reads any alias (num_ops = lives to the end of the iteration).
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
// `op_runs` (indexed by OpId, nonzero = runs here) is the op mask; empty means every
// op runs. Buffers that are not materialized carry zero bytes.
LivenessAnalysis AnalyzeLiveness(const Graph& graph, const PartitionPlan& plan,
                                 const std::vector<char>& op_runs = {});

// Per-worker residency upper bound: every tensor's final shard resident at once, no
// liveness or buffer-reuse credit. Schedule-independent, hence conservative.
std::int64_t AllResidentShardBytes(const Graph& graph, const PartitionPlan& plan);

// Liveness-aware per-worker peak for a program-order schedule with everything
// resident. Always <= AllResidentShardBytes; this is what the session's budget check
// and feasibility verdict use. Defined in schedule.cc on the shared PeakProfile.
std::int64_t LivenessPeakShardBytes(const Graph& graph, const PartitionPlan& plan);

}  // namespace tofu

#endif  // TOFU_MEMORY_LIVENESS_H_
