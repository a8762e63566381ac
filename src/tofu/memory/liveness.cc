#include "tofu/memory/liveness.h"

#include <algorithm>

#include "tofu/util/logging.h"

namespace tofu {

LivenessAnalysis AnalyzeLiveness(const Graph& graph, const PartitionPlan& plan,
                                 const std::vector<char>& op_runs) {
  const int num_tensors = graph.num_tensors();
  TOFU_CHECK(op_runs.empty() || op_runs.size() == static_cast<size_t>(graph.num_ops()));
  auto runs = [&](OpId o) {
    return o != kNoOp && (op_runs.empty() || op_runs[static_cast<size_t>(o)] != 0);
  };
  LivenessAnalysis live;
  live.num_ops = graph.num_ops();

  // Resolve in-place alias chains to one buffer per chain. Op ids are a topological
  // order (AddOp appends and inputs must already exist), so one forward pass suffices.
  live.buffer.resize(static_cast<size_t>(num_tensors));
  for (TensorId t = 0; t < num_tensors; ++t) {
    live.buffer[static_cast<size_t>(t)] = t;
  }
  for (const OpNode& op : graph.ops()) {
    if (op.inplace_input >= 0 &&
        op.inplace_input < static_cast<int>(op.inputs.size())) {
      live.buffer[static_cast<size_t>(op.output)] =
          live.buffer[static_cast<size_t>(
              op.inputs[static_cast<size_t>(op.inplace_input)])];
    }
  }

  // Per buffer: shard bytes (aliases share storage; take the max member for safety),
  // allocation time (-1 = resident for the whole pass: a root whose producer does not
  // run here), and the last running op that reads any alias of it (num_ops = lives to
  // the end of the iteration). Tensors no running op produces or reads are skipped.
  live.buf_bytes.assign(static_cast<size_t>(num_tensors), 0);
  live.alloc_at.assign(static_cast<size_t>(num_tensors), -1);
  live.free_at.assign(static_cast<size_t>(num_tensors), -1);
  for (TensorId t = 0; t < num_tensors; ++t) {
    const TensorNode& node = graph.tensor(t);
    const TensorId b = live.buffer[static_cast<size_t>(t)];
    const bool produced_here = runs(node.producer);
    int last_use = -1;
    for (OpId c : node.consumers) {
      if (runs(c)) {
        last_use = std::max(last_use, static_cast<int>(c));
      }
    }
    if (!produced_here && last_use < 0) {
      continue;
    }
    live.buf_bytes[static_cast<size_t>(b)] =
        std::max(live.buf_bytes[static_cast<size_t>(b)], plan.ShardBytes(graph, t));
    if (t == b) {
      live.alloc_at[static_cast<size_t>(b)] = produced_here ? node.producer : -1;
    }
    if (last_use < 0) {
      last_use = live.num_ops;  // produced here, read by nobody here: pinned to the end
    }
    live.free_at[static_cast<size_t>(b)] =
        std::max(live.free_at[static_cast<size_t>(b)], last_use);
  }
  return live;
}

std::int64_t AllResidentShardBytes(const Graph& graph, const PartitionPlan& plan) {
  std::int64_t total = 0;
  for (const TensorNode& t : graph.tensors()) {
    total += plan.ShardBytes(graph, t.id);
  }
  return total;
}

}  // namespace tofu
