#include "tofu/memory/liveness.h"

#include <algorithm>

namespace tofu {

LivenessAnalysis AnalyzeLiveness(const Graph& graph, const PartitionPlan& plan) {
  const int num_tensors = graph.num_tensors();
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
  // allocation time (-1 = resident model state, a producer-less root), and the last op
  // that reads any alias of it (num_ops = lives to the end of the iteration).
  live.buf_bytes.assign(static_cast<size_t>(num_tensors), 0);
  live.alloc_at.assign(static_cast<size_t>(num_tensors), -1);
  live.free_at.assign(static_cast<size_t>(num_tensors), -1);
  for (TensorId t = 0; t < num_tensors; ++t) {
    const TensorNode& node = graph.tensor(t);
    const TensorId b = live.buffer[static_cast<size_t>(t)];
    live.buf_bytes[static_cast<size_t>(b)] =
        std::max(live.buf_bytes[static_cast<size_t>(b)], plan.ShardBytes(graph, t));
    if (t == b) {
      live.alloc_at[static_cast<size_t>(b)] =
          node.producer == kNoOp ? -1 : node.producer;
    }
    const int last_use = node.consumers.empty()
                             ? (node.producer == kNoOp ? -1 : live.num_ops)
                             : *std::max_element(node.consumers.begin(),
                                                 node.consumers.end());
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

const MemoryModel& DefaultMemoryModel() {
  static const LivenessMemoryModel model;
  return model;
}

}  // namespace tofu
