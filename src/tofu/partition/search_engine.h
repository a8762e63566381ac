// Shared frontier-DP search engine behind RunStepDp and RunFlatDp.
//
// Both searches have the same skeleton: walk macro groups in program order keeping a
// frontier of "live" slots (slots touched by both processed and unprocessed groups);
// a DP state assigns every frontier slot one of a small set of options (a storage cut
// for the per-step DP, a full multi-step tiling for the flat DP); entering slots branch
// every state on their options, each group charges a cost that depends only on its
// touched slots' options, and leaving slots are projected out keeping the cheapest
// state per residue.
//
// The engine owns that skeleton once, with two representation choices that make it fast:
//   * states are packed integer keys -- each live slot contributes ceil(log2(#options))
//     bits, concatenated in frontier order into fixed-width uint64_t words interned in a
//     flat arena (no per-state heap strings, no hashing on the charge path);
//   * in table mode, each group's cost becomes one dense table precomputed per group
//     (one evaluation per combination of its touched slots' options); charging a state
//     is a shift/mask field extraction plus one array load.
//
// Unbudgeted table-mode searches additionally take a DENSE LATTICE fast path: without
// budget pruning the frontier is exactly the cross product of the live slots' options,
// so the engine drops the packed keys entirely and keeps one flat cost array whose axes
// are the live slots in branch order (newest axis fastest). Branching is a contiguous
// broadcast, charging is a table gather plus a contiguous vector add the compiler
// auto-vectorizes, and projection is a strict-less min-reduce along one axis -- all
// provably bit-identical to the sparse path (same accumulation order, same tie-breaks;
// docs/search.md, "Big-graph, many-worker search"). The same path hoists every group's
// cost-table fill up front, which enables dominated-option pruning and table reuse
// across searches (GroupCostTables below).
#ifndef TOFU_PARTITION_SEARCH_ENGINE_H_
#define TOFU_PARTITION_SEARCH_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tofu/partition/search_stats.h"

namespace tofu {

// Engine-facing shape of one search: per-slot option counts and, per group in
// processing order, the sorted unique slots whose options the group's cost reads.
struct SearchSpace {
  std::vector<int> slot_num_options;          // per slot; every entry >= 1
  std::vector<std::vector<int>> group_slots;  // per group: sorted, unique slot indices
  // Optional memory model: slot_option_bytes[s][o] is the resident bytes one worker
  // group keeps when slot s takes option o. Empty disables byte tracking; when present
  // the outer size must match slot_num_options and each inner size the slot's count.
  // Byte totals are separable per slot, which is what makes admissible pruning cheap:
  // a state's lower bound is its accumulated bytes plus every undecided slot's cheapest
  // option.
  std::vector<std::vector<double>> slot_option_bytes;
};

// Per-group dense cost tables of one table-mode search, shareable across searches of
// the same space (the values depend only on the group cost function, never on budgets
// or bandwidths). groups[g] is null for groups that charged through the
// per-state memo (or were never reached); non-null entries hold exactly the group's
// mixed-radix cell values in the engine's canonical enumeration order. Immutable once
// published -- safe to share across threads and cache entries.
struct GroupCostTables {
  std::vector<std::shared_ptr<const std::vector<double>>> groups;
};

struct SearchEngineOptions {
  // Safety cap on simultaneous DP states (frontier blow-up on non-chain graphs). When
  // exceeded the search degrades to a beam keeping the cheapest quarter of the cap;
  // SearchStats::exact turns false.
  std::int64_t max_states = 1 << 22;
  // Dominated-option pruning (dense-lattice searches only): after the hoisted table
  // fills, option o of slot s is dropped when some option o' < o is pointwise no more
  // expensive in EVERY group table touching s and (when slot_option_bytes is present)
  // no heavier. Every frontier state using o is then beaten by its o'-sibling on both
  // cost and bytes under every completion, so pruning provably never changes the
  // returned plan, including ties (o' < o keeps the canonical lowest-index winner).
  // Pruned states are counted in SearchStats::dominated_pruned_states; table fills
  // still run in full first, so states_explored / cost_table_entries are unchanged.
  bool prune_dominated = true;
  // Optional tables from a previous search of the same space (incremental
  // re-planning). A group's table is imported instead of refilled when the group is
  // charged in table mode and the cell count matches; imported cells are counted in
  // SearchStats::reused_table_entries (and still in states_explored, so results are
  // byte-identical to a cold search).
  std::shared_ptr<const GroupCostTables> reuse_tables;
  // Per-worker-group resident-byte budget. > 0 (together with a populated
  // SearchSpace::slot_option_bytes) turns on memory-constrained search: states whose
  // byte lower bound exceeds the budget are pruned at branch time, equal-cost merges
  // and the final argmin prefer lighter states, and Result::feasible reports whether
  // any assignment fits at all. <= 0 keeps the search bit-identical to the
  // unconstrained engine (no byte tracking, original tie-breaks).
  double memory_budget = 0.0;
};

class SearchEngine {
 public:
  // Table mode: called once per combination of group `g`'s touched-slot options while
  // precomputing the group's cost table. `options[i]` is the option index of
  // SearchSpace::group_slots[g][i].
  using GroupCostFn = std::function<double(int group, const int* options)>;

  // Streamed mode: called once per (group, state) -- preserving searches whose measured
  // cost is intentionally per-state, like the flat DP's joint enumeration. Returns
  // false to abort the whole search (deadline exceeded).
  using StateCostFn = std::function<bool(int group, const int* options, double* cost)>;

  // Optional bulk table fill: writes group `g`'s whole dense cost table (`num_cells`
  // doubles) in the engine's canonical mixed-radix enumeration order -- combination
  // (o_0,...,o_{k-1}) of SearchSpace::group_slots[g] at index sum(o_i * stride_i),
  // last touched slot fastest (stride 1). MUST produce exactly the values cell-by-cell
  // calls of the GroupCostFn would; it exists purely so a caller can hoist per-cell
  // dispatch out of the hottest loop of the search (one function call per table
  // instead of one per cell). The engine still uses the GroupCostFn for memo-charged
  // groups.
  using GroupFillFn = std::function<void(int group, double* cells, std::int64_t num_cells)>;

  struct Result {
    bool completed = true;          // false only when a streamed search aborted
    // False when a memory budget excluded every assignment (the lightest possible
    // choice per slot already overflows); slot_option is then all zeros and no cost
    // callback ran. Always true without a budget.
    bool feasible = true;
    double best_cost = 0.0;
    // Chosen option index per slot; slots no group touches default to option 0.
    std::vector<int> slot_option;
    // Byte-tracking results (0 without a budget): the chosen assignment's resident
    // bytes, and the lower bound over ALL assignments (sum of each slot's cheapest
    // option) -- what an infeasible search proves cannot be beaten.
    double best_bytes = 0.0;
    double min_possible_bytes = 0.0;
    // Every dense cost table this search consumed (filled or imported); null in
    // streamed mode. What a step-table cache stores for the next search of this space.
    std::shared_ptr<const GroupCostTables> tables;
    SearchStats stats;
  };

  SearchEngine(SearchSpace space, SearchEngineOptions options);
  ~SearchEngine();

  Result Run(const GroupCostFn& cost_fn);
  // As Run, with bulk table fills delegated to `fill_fn` (see GroupFillFn's contract).
  Result Run(const GroupCostFn& cost_fn, const GroupFillFn& fill_fn);
  Result RunStreamed(const StateCostFn& cost_fn);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tofu

#endif  // TOFU_PARTITION_SEARCH_ENGINE_H_
