#include "tofu/memory/schedule.h"

#include <algorithm>

namespace tofu {

const char* ResidencyName(Residency residency) {
  switch (residency) {
    case Residency::kResident:
      return "resident";
    case Residency::kRecompute:
      return "recompute";
    case Residency::kSwap:
      return "swap";
  }
  return "?";
}

PeakProfile::PeakProfile(const Graph& graph, const LivenessAnalysis& live)
    : graph_(graph), live_(live) {
  const int num_tensors = static_cast<int>(live.buffer.size());
  const int num_ops = live.num_ops;
  next_alias_.assign(static_cast<size_t>(num_tensors), -1);
  std::vector<TensorId> last_alias(static_cast<size_t>(num_tensors), -1);
  // A buffer is charged from its producer (outputs coexist with still-live inputs)
  // through its last consumer: a difference array, prefix-summed below.
  charge_.assign(static_cast<size_t>(num_ops) + 1, 0);
  for (TensorId t = 0; t < num_tensors; ++t) {
    const TensorId b = live.buffer[static_cast<size_t>(t)];
    // A root precedes its aliases (an in-place output is created after its input).
    if (t != b) {
      next_alias_[static_cast<size_t>(last_alias[static_cast<size_t>(b)])] = t;
      last_alias[static_cast<size_t>(b)] = t;
      continue;
    }
    last_alias[static_cast<size_t>(b)] = b;
    const std::int64_t bytes = live.buf_bytes[static_cast<size_t>(b)];
    if (live.IsModelState(b)) {
      base_ += bytes;
      continue;
    }
    charge_[static_cast<size_t>(live.alloc_at[static_cast<size_t>(b)])] += bytes;
    charge_[static_cast<size_t>(
                std::min(live.free_at[static_cast<size_t>(b)], num_ops - 1)) +
            1] -= bytes;
  }
  for (int k = 1; k < num_ops; ++k) {
    charge_[static_cast<size_t>(k)] += charge_[static_cast<size_t>(k) - 1];
  }
  charge_.pop_back();
  offloaded_.assign(static_cast<size_t>(num_tensors), false);
  touched_by_.assign(static_cast<size_t>(num_ops), -1);
}

void PeakProfile::Offload(TensorId root) {
  if (root < 0 || root >= static_cast<TensorId>(offloaded_.size()) ||
      !live_.IsRoot(root) || offloaded_[static_cast<size_t>(root)]) {
    return;
  }
  offloaded_[static_cast<size_t>(root)] = true;
  const int num_ops = live_.num_ops;
  const std::int64_t bytes = live_.buf_bytes[static_cast<size_t>(root)];
  const int alloc = live_.alloc_at[static_cast<size_t>(root)];
  if (live_.IsModelState(root)) {
    base_ -= bytes;
  } else {
    const int last = std::min(live_.free_at[static_cast<size_t>(root)], num_ops - 1);
    for (int k = alloc; k <= last; ++k) {
      charge_[static_cast<size_t>(k)] -= bytes;
    }
  }
  // Between touches the buffer lives on the host (kSwap) or not at all (kRecompute).
  auto touch = [&](int k) {
    if (k >= 0 && k < num_ops && touched_by_[static_cast<size_t>(k)] != root) {
      touched_by_[static_cast<size_t>(k)] = root;
      charge_[static_cast<size_t>(k)] += bytes;
    }
  };
  touch(alloc);
  for (TensorId t = root; t >= 0; t = next_alias_[static_cast<size_t>(t)]) {
    for (OpId c : graph_.tensor(t).consumers) {
      touch(c);
    }
  }
}

std::int64_t PeakProfile::Peak() const {
  std::int64_t peak = base_;
  for (std::int64_t c : charge_) {
    peak = std::max(peak, base_ + c);
  }
  return peak;
}

std::int64_t LivenessPeakShardBytes(const Graph& graph, const PartitionPlan& plan) {
  const LivenessAnalysis live = AnalyzeLiveness(graph, plan);
  return PeakProfile(graph, live).Peak();
}

std::int64_t ScheduledPeakShardBytes(const Graph& graph, const PartitionPlan& plan,
                                     const MemorySchedule& schedule) {
  const LivenessAnalysis live = AnalyzeLiveness(graph, plan);
  PeakProfile profile(graph, live);
  for (const MemoryDecision& d : schedule.decisions) {
    if (d.residency != Residency::kResident) {
      profile.Offload(d.tensor);
    }
  }
  return profile.Peak();
}

}  // namespace tofu
