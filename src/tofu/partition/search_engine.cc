#include "tofu/partition/search_engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

#include "tofu/util/logging.h"

namespace tofu {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Bits needed to store option indices 0..n-1 (0 bits for single-option slots).
int BitsFor(int num_options) {
  int bits = 0;
  while ((1 << bits) < num_options) {
    ++bits;
  }
  return bits;
}

// Field accessors over a W-word packed key. Fields may straddle a word boundary;
// WriteField assumes the target bits are zero (keys are always built from zeroed words).
inline std::uint64_t ExtractField(const std::uint64_t* key, int offset, int bits) {
  if (bits == 0) {
    return 0;
  }
  const int word = offset >> 6;
  const int bit = offset & 63;
  std::uint64_t v = key[word] >> bit;
  if (bit + bits > 64) {
    v |= key[word + 1] << (64 - bit);
  }
  return v & ((std::uint64_t{1} << bits) - 1);
}

inline void WriteField(std::uint64_t* key, int offset, int bits, std::uint64_t value) {
  if (bits == 0) {
    return;
  }
  const int word = offset >> 6;
  const int bit = offset & 63;
  key[word] |= value << bit;
  if (bit + bits > 64) {
    key[word + 1] |= value >> (64 - bit);
  }
}

std::uint64_t HashKey(const std::uint64_t* key, int words) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (int w = 0; w < words; ++w) {
    std::uint64_t x = key[w] + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    h ^= (x ^ (x >> 31)) + (h << 6) + (h >> 2);
  }
  return h;
}

// Struct-of-arrays state set: W words of packed key, cost, and backpointer per state
// (plus accumulated resident bytes when a memory budget is active). All keys in one set
// share the same field layout (the current frontier).
struct StateArena {
  int words = 1;
  bool track_bytes = false;
  std::vector<std::uint64_t> keys;  // size() == count * words
  std::vector<double> cost;
  std::vector<double> bytes;  // populated only when track_bytes
  std::vector<std::int32_t> rec;

  std::int64_t count() const { return static_cast<std::int64_t>(cost.size()); }
  const std::uint64_t* key(std::int64_t i) const {
    return keys.data() + static_cast<size_t>(i) * static_cast<size_t>(words);
  }
  std::uint64_t* key(std::int64_t i) {
    return keys.data() + static_cast<size_t>(i) * static_cast<size_t>(words);
  }
  void Resize(std::int64_t n) {
    keys.assign(static_cast<size_t>(n) * static_cast<size_t>(words), 0);
    cost.resize(static_cast<size_t>(n));
    if (track_bytes) {
      bytes.resize(static_cast<size_t>(n));
    }
    rec.resize(static_cast<size_t>(n));
  }
  // Keeps the first n states as-is (Resize would zero the keys).
  void Shrink(std::int64_t n) {
    keys.resize(static_cast<size_t>(n) * static_cast<size_t>(words));
    cost.resize(static_cast<size_t>(n));
    if (track_bytes) {
      bytes.resize(static_cast<size_t>(n));
    }
    rec.resize(static_cast<size_t>(n));
  }
};

// Backpointer record: fixes one slot's option; chained per state.
struct Rec {
  std::int32_t parent;
  std::int32_t slot;
  std::int32_t option;
};

struct FrontierField {
  int slot;
  int offset;  // bit offset within the packed key
  int bits;
};

// Saturating product guard for the static (unpruned) frontier-width precomputation.
constexpr std::int64_t kWidthSat = std::numeric_limits<std::int64_t>::max() / 2;

inline std::int64_t SatMul(std::int64_t a, int b) {
  if (a > kWidthSat / b) {
    return kWidthSat;
  }
  return a * static_cast<std::int64_t>(b);
}

}  // namespace

struct SearchEngine::Impl {
  SearchSpace space;
  SearchEngineOptions options;
  std::vector<int> slot_bits;
  int words = 1;  // per-key words, sized for the widest frontier the schedule reaches

  Impl(SearchSpace s, SearchEngineOptions o)
      : space(std::move(s)), options(o) {
    const int num_slots = static_cast<int>(space.slot_num_options.size());
    slot_bits.resize(static_cast<size_t>(num_slots));
    for (int s2 = 0; s2 < num_slots; ++s2) {
      TOFU_CHECK_GE(space.slot_num_options[static_cast<size_t>(s2)], 1);
      slot_bits[static_cast<size_t>(s2)] =
          BitsFor(space.slot_num_options[static_cast<size_t>(s2)]);
    }
    ComputeSchedule();
  }

  std::vector<int> first, last;  // per slot: first/last group touching it (-1 if none)
  // Static schedule facts for the dense-lattice fast path: the UNPRUNED frontier width
  // right after each group's entering slots branch (saturated), its maximum, and
  // whether every group's full option product fits the table policy at that width.
  std::vector<std::int64_t> width_after_branch;
  std::int64_t max_static_width = 1;
  bool all_groups_table_static = true;
  bool options_fit_u8 = true;  // dense projections record winners as uint8 coordinates

  void ComputeSchedule() {
    const int num_slots = static_cast<int>(space.slot_num_options.size());
    const int num_groups = static_cast<int>(space.group_slots.size());
    first.assign(static_cast<size_t>(num_slots), -1);
    last.assign(static_cast<size_t>(num_slots), -1);
    for (int g = 0; g < num_groups; ++g) {
      for (int s : space.group_slots[static_cast<size_t>(g)]) {
        if (first[static_cast<size_t>(s)] < 0) {
          first[static_cast<size_t>(s)] = g;
        }
        last[static_cast<size_t>(s)] = g;
      }
    }
    for (int n : space.slot_num_options) {
      options_fit_u8 = options_fit_u8 && n <= 256;
    }
    // Widest simultaneous frontier over the whole schedule, both in bits (for the
    // packed-key word count) and in states (for dense-lattice eligibility). Without a
    // budget and without beam degradation the live state set is exactly the cross
    // product of the live slots' options, so these static widths equal the sparse
    // path's dynamic states.count() at every group -- which is what lets the dense
    // path reproduce its table-vs-memo policy and counters exactly.
    width_after_branch.assign(static_cast<size_t>(num_groups), 1);
    int width = 0;
    int max_width = 0;
    std::int64_t states = 1;
    for (int g = 0; g < num_groups; ++g) {
      std::int64_t cells = 1;
      for (int s : space.group_slots[static_cast<size_t>(g)]) {
        cells = SatMul(cells, space.slot_num_options[static_cast<size_t>(s)]);
        if (first[static_cast<size_t>(s)] == g) {
          width += slot_bits[static_cast<size_t>(s)];
          states = SatMul(states, space.slot_num_options[static_cast<size_t>(s)]);
        }
      }
      max_width = std::max(max_width, width);
      width_after_branch[static_cast<size_t>(g)] = states;
      max_static_width = std::max(max_static_width, states);
      // Mirror of the sparse path's table policy (cells <= max(live states, 4096)):
      // a group that would fall back to the per-state memo disables the dense path.
      if (cells > std::max<std::int64_t>(states, 4096)) {
        all_groups_table_static = false;
      }
      for (int s : space.group_slots[static_cast<size_t>(g)]) {
        if (last[static_cast<size_t>(s)] == g) {
          width -= slot_bits[static_cast<size_t>(s)];
          states /= space.slot_num_options[static_cast<size_t>(s)];
        }
      }
    }
    words = std::max(1, (max_width + 63) / 64);
  }

  Result RunImpl(const GroupCostFn* table_fn, const GroupFillFn* fill_fn,
                 const StateCostFn* stream_fn);
  Result RunDense(const GroupCostFn& table_fn, const GroupFillFn* fill_fn);
  std::shared_ptr<GroupCostTables> FillOrImportAllTables(
      const GroupCostFn& table_fn, const GroupFillFn* fill_fn,
      std::vector<std::vector<std::int64_t>>* strides, Result* result);
  std::shared_ptr<const std::vector<double>> ImportOrFillTable(
      int g, std::int64_t cells, const GroupCostFn& table_fn, const GroupFillFn* fill_fn,
      Result* result) const;
};

SearchEngine::SearchEngine(SearchSpace space, SearchEngineOptions options)
    : impl_(std::make_unique<Impl>(std::move(space), options)) {}

SearchEngine::~SearchEngine() = default;

SearchEngine::Result SearchEngine::Run(const GroupCostFn& cost_fn) {
  return impl_->RunImpl(&cost_fn, nullptr, nullptr);
}

SearchEngine::Result SearchEngine::Run(const GroupCostFn& cost_fn,
                                       const GroupFillFn& fill_fn) {
  return impl_->RunImpl(&cost_fn, &fill_fn, nullptr);
}

SearchEngine::Result SearchEngine::RunStreamed(const StateCostFn& cost_fn) {
  return impl_->RunImpl(nullptr, nullptr, &cost_fn);
}

// Hoisted table fills for the dense path: every group's dense cost table is computed
// (or imported from options.reuse_tables) before the sweep begins. The enumeration is
// the engine's canonical mixed-radix order -- last touched slot fastest, identical to
// the sparse path's interleaved fills -- so the values, the evaluation order, and the
// effort counters all match the sparse path bit-for-bit. Hoisting is what enables
// dominated-option pruning (the analysis needs every table touching a slot) and table
// reuse across searches.
std::shared_ptr<GroupCostTables> SearchEngine::Impl::FillOrImportAllTables(
    const GroupCostFn& table_fn, const GroupFillFn* fill_fn,
    std::vector<std::vector<std::int64_t>>* strides, Result* result) {
  const auto t0 = Clock::now();
  const int num_groups = static_cast<int>(space.group_slots.size());
  auto tables = std::make_shared<GroupCostTables>();
  tables->groups.resize(static_cast<size_t>(num_groups));
  strides->resize(static_cast<size_t>(num_groups));
  for (int g = 0; g < num_groups; ++g) {
    const std::vector<int>& touched = space.group_slots[static_cast<size_t>(g)];
    const int k = static_cast<int>(touched.size());
    std::vector<std::int64_t>& stride = (*strides)[static_cast<size_t>(g)];
    stride.assign(static_cast<size_t>(k), 1);
    std::int64_t cells = 1;
    for (int i = k - 1; i >= 0; --i) {
      stride[static_cast<size_t>(i)] = cells;
      cells *= space.slot_num_options[static_cast<size_t>(touched[static_cast<size_t>(i)])];
    }
    tables->groups[static_cast<size_t>(g)] =
        ImportOrFillTable(g, cells, table_fn, fill_fn, result);
  }
  result->stats.fill_seconds += SecondsSince(t0);
  return tables;
}

// Group g's dense cost table, `cells` cells in the engine's canonical mixed-radix order
// (last touched slot fastest): imported from options.reuse_tables when a previous search
// of this space left one of the same size, else filled here. Imported cells count
// exactly like computed ones: these counters are a property of the SEARCH, not of cache
// temperature, and serialized plans must stay byte-identical between warm and cold runs.
std::shared_ptr<const std::vector<double>> SearchEngine::Impl::ImportOrFillTable(
    int g, std::int64_t cells, const GroupCostFn& table_fn, const GroupFillFn* fill_fn,
    Result* result) const {
  result->stats.states_explored += cells;
  result->stats.cost_table_entries += cells;
  const GroupCostTables* reuse = options.reuse_tables.get();
  if (reuse != nullptr && static_cast<size_t>(g) < reuse->groups.size() &&
      reuse->groups[static_cast<size_t>(g)] != nullptr &&
      static_cast<std::int64_t>(reuse->groups[static_cast<size_t>(g)]->size()) == cells) {
    result->stats.reused_table_entries += cells;
    return reuse->groups[static_cast<size_t>(g)];
  }
  auto fresh = std::make_shared<std::vector<double>>(static_cast<size_t>(cells));
  if (fill_fn != nullptr) {
    (*fill_fn)(g, fresh->data(), cells);
    return fresh;
  }
  const std::vector<int>& touched = space.group_slots[static_cast<size_t>(g)];
  const int k = static_cast<int>(touched.size());
  std::vector<int> opts(static_cast<size_t>(k), 0);
  for (std::int64_t idx = 0; idx < cells; ++idx) {
    (*fresh)[static_cast<size_t>(idx)] = table_fn(g, opts.data());
    for (int i = k - 1; i >= 0; --i) {  // odometer: last touched slot fastest
      if (++opts[static_cast<size_t>(i)] <
          space.slot_num_options[static_cast<size_t>(touched[static_cast<size_t>(i)])]) {
        break;
      }
      opts[static_cast<size_t>(i)] = 0;
    }
  }
  return fresh;
}

// Dense-lattice sweep: the frontier is one flat cost array whose axes are the live
// slots in branch order, newest axis fastest (stride 1). Cell (c_0,...,c_{k-1}) holds
// exactly the cost the sparse path would accumulate for the state with those kept-
// option coordinates -- branching broadcasts, charging adds one table value per
// touched-coordinate combination to a contiguous run, and projecting a leaving axis is
// a strict-less min-reduce that keeps the lowest coordinate on ties. When several
// slots leave at one group the NEWEST axis is projected first; combined with
// strict-less this reproduces the sparse merge's first-in-branch-order tie-break
// (docs/search.md, "Big-graph, many-worker search", proves both equivalences).
SearchEngine::Result SearchEngine::Impl::RunDense(const GroupCostFn& table_fn,
                                                  const GroupFillFn* fill_fn) {
  const auto start = Clock::now();
  const int num_slots = static_cast<int>(space.slot_num_options.size());
  const int num_groups = static_cast<int>(space.group_slots.size());
  Result result;

  std::vector<std::vector<std::int64_t>> group_stride;
  std::shared_ptr<GroupCostTables> tables =
      FillOrImportAllTables(table_fn, fill_fn, &group_stride, &result);

  // Dominated-option pruning. Option o of slot s is dominated by o' < o when o' is
  // pointwise <= in EVERY group table touching s and (with byte tables) no heavier:
  // then for every frontier state using o, the sibling state using o' is no worse on
  // both cost and bytes under every completion, so dropping o can never change the
  // returned plan -- and because the dominator has the SMALLER index, every tie the
  // canonical search would break toward o' still resolves identically. (Restricting to
  // o' < o is what makes ties safe; see docs/search.md.) Dominance over a chain of
  // pruned options is fine: pointwise <= is transitive, so the chain ends at a kept
  // dominator. Cross-slot or cross-state dominance is deliberately NOT attempted --
  // two states that differ in several slots have different completion costs, so a
  // per-frontier comparison of accumulated cost alone would be unsound.
  std::vector<std::vector<int>> kept(static_cast<size_t>(num_slots));
  for (int s = 0; s < num_slots; ++s) {
    const int n = space.slot_num_options[static_cast<size_t>(s)];
    kept[static_cast<size_t>(s)].resize(static_cast<size_t>(n));
    for (int o = 0; o < n; ++o) {
      kept[static_cast<size_t>(s)][static_cast<size_t>(o)] = o;
    }
  }
  if (options.prune_dominated) {
    // Slot -> (group, position in the group's touched list) adjacency.
    std::vector<std::vector<std::pair<int, int>>> slot_groups(
        static_cast<size_t>(num_slots));
    for (int g = 0; g < num_groups; ++g) {
      const std::vector<int>& touched = space.group_slots[static_cast<size_t>(g)];
      for (size_t i = 0; i < touched.size(); ++i) {
        slot_groups[static_cast<size_t>(touched[i])].push_back({g, static_cast<int>(i)});
      }
    }
    for (int s = 0; s < num_slots; ++s) {
      const int n = space.slot_num_options[static_cast<size_t>(s)];
      if (first[static_cast<size_t>(s)] < 0 || n < 2) {
        continue;
      }
      const std::vector<double>* ob =
          space.slot_option_bytes.empty()
              ? nullptr
              : &space.slot_option_bytes[static_cast<size_t>(s)];
      std::vector<char> pruned(static_cast<size_t>(n), 0);
      for (int o = 1; o < n; ++o) {
        for (int o2 = 0; o2 < o && !pruned[static_cast<size_t>(o)]; ++o2) {
          if (ob != nullptr && (*ob)[static_cast<size_t>(o2)] > (*ob)[static_cast<size_t>(o)]) {
            continue;  // the cheaper-cost option is heavier: not a dominator
          }
          bool dominates = true;
          for (const auto& [g, pos] : slot_groups[static_cast<size_t>(s)]) {
            const std::vector<double>& table = *tables->groups[static_cast<size_t>(g)];
            const std::int64_t st = group_stride[static_cast<size_t>(g)][static_cast<size_t>(pos)];
            const std::int64_t block = st * static_cast<std::int64_t>(n);
            const std::int64_t size = static_cast<std::int64_t>(table.size());
            for (std::int64_t base = 0; base < size && dominates; base += block) {
              const double* lo = table.data() + base + static_cast<std::int64_t>(o2) * st;
              const double* hi = table.data() + base + static_cast<std::int64_t>(o) * st;
              for (std::int64_t x = 0; x < st; ++x) {
                if (lo[x] > hi[x]) {
                  dominates = false;
                  break;
                }
              }
            }
            if (!dominates) {
              break;
            }
          }
          if (dominates) {
            pruned[static_cast<size_t>(o)] = 1;
          }
        }
      }
      std::vector<int>& keep = kept[static_cast<size_t>(s)];
      keep.clear();
      for (int o = 0; o < n; ++o) {
        if (!pruned[static_cast<size_t>(o)]) {
          keep.push_back(o);
        }
      }
    }
  }

  // Compacted charge tables. The sweep only ever gathers cells whose every coordinate
  // is a KEPT option, so copy exactly those cells out of the full fills into dense
  // kept-only tables: the charge gather below then runs on pure strides (coordinate *
  // compact stride, no per-coordinate contribution lookup) over a table smaller by the
  // pruned options' product -- pruned options are never gathered, closing the fill
  // headroom of ROADMAP item 4. Values are copied doubles, so costs, tie-breaks and
  // plans stay bit-identical to charging from the full tables (and the fills above
  // already counted states_explored / cost_table_entries, which do not change). Groups
  // none of whose touched slots lost an option alias the full table outright.
  std::vector<std::shared_ptr<const std::vector<double>>> charge_table(
      static_cast<size_t>(num_groups));
  std::vector<std::vector<std::int64_t>> charge_stride(static_cast<size_t>(num_groups));
  {
    const auto t0 = Clock::now();
    for (int g = 0; g < num_groups; ++g) {
      const std::vector<int>& touched = space.group_slots[static_cast<size_t>(g)];
      const int k = static_cast<int>(touched.size());
      std::vector<std::int64_t>& stride = charge_stride[static_cast<size_t>(g)];
      stride.assign(static_cast<size_t>(k), 1);
      std::int64_t compact_cells = 1;
      bool any_pruned = false;
      for (int i = k - 1; i >= 0; --i) {
        const int s = touched[static_cast<size_t>(i)];
        const int m = static_cast<int>(kept[static_cast<size_t>(s)].size());
        stride[static_cast<size_t>(i)] = compact_cells;
        compact_cells *= m;
        any_pruned =
            any_pruned || m != space.slot_num_options[static_cast<size_t>(s)];
      }
      const std::vector<double>& full = *tables->groups[static_cast<size_t>(g)];
      if (!any_pruned) {
        charge_table[static_cast<size_t>(g)] = tables->groups[static_cast<size_t>(g)];
        charge_stride[static_cast<size_t>(g)] = group_stride[static_cast<size_t>(g)];
        continue;
      }
      result.stats.pruned_table_cells +=
          static_cast<std::int64_t>(full.size()) - compact_cells;
      auto compact = std::make_shared<std::vector<double>>(
          static_cast<size_t>(compact_cells));
      const std::vector<std::int64_t>& full_stride =
          group_stride[static_cast<size_t>(g)];
      std::vector<int> coord(static_cast<size_t>(k), 0);
      for (std::int64_t idx = 0; idx < compact_cells; ++idx) {
        std::int64_t full_idx = 0;
        for (int i = 0; i < k; ++i) {
          const int s = touched[static_cast<size_t>(i)];
          full_idx += static_cast<std::int64_t>(
                          kept[static_cast<size_t>(s)]
                              [static_cast<size_t>(coord[static_cast<size_t>(i)])]) *
                      full_stride[static_cast<size_t>(i)];
        }
        (*compact)[static_cast<size_t>(idx)] = full[static_cast<size_t>(full_idx)];
        for (int i = k - 1; i >= 0; --i) {  // odometer over kept coordinates
          const int s = touched[static_cast<size_t>(i)];
          if (++coord[static_cast<size_t>(i)] <
              static_cast<int>(kept[static_cast<size_t>(s)].size())) {
            break;
          }
          coord[static_cast<size_t>(i)] = 0;
        }
      }
      charge_table[static_cast<size_t>(g)] = std::move(compact);
    }
    result.stats.fill_seconds += SecondsSince(t0);
  }

  // The sweep. Slots whose kept set collapsed to one option become FIXED: they
  // contribute nothing to the compact table index (their compact dimension has size
  // one) instead of an axis, which is where the pruning speedup comes from (the
  // lattice shrinks by the pruned options' product).
  struct Axis {
    int slot;
    int size;  // kept option count
  };
  struct ProjEvent {
    int slot;
    std::vector<Axis> residue;          // axes AFTER this projection, in order
    std::vector<std::uint8_t> winners;  // argmin kept-coordinate per residue cell
  };
  std::vector<Axis> axes;
  std::vector<int> axis_of_slot(static_cast<size_t>(num_slots), -1);
  std::vector<ProjEvent> events;
  std::vector<double> cost{0.0};
  std::vector<double> scratch;
  std::int64_t unpruned_width = 1;  // the schedule's frontier width (no pruning)

  for (int g = 0; g < num_groups; ++g) {
    const std::vector<int>& touched = space.group_slots[static_cast<size_t>(g)];

    // 1. Branch entering slots: broadcast along a new fastest axis.
    {
      const auto t0 = Clock::now();
      for (int s : touched) {
        if (first[static_cast<size_t>(s)] != g) {
          continue;
        }
        const int full = space.slot_num_options[static_cast<size_t>(s)];
        const int m = static_cast<int>(kept[static_cast<size_t>(s)].size());
        result.stats.dominated_pruned_states +=
            static_cast<std::int64_t>(cost.size()) * static_cast<std::int64_t>(full - m);
        unpruned_width *= full;
        if (m == 1) {
          continue;  // fixed slot; chosen option recorded at the end
        }
        const std::int64_t n_in = static_cast<std::int64_t>(cost.size());
        scratch.resize(static_cast<size_t>(n_in) * static_cast<size_t>(m));
        for (std::int64_t i = 0; i < n_in; ++i) {
          const double v = cost[static_cast<size_t>(i)];
          double* out = scratch.data() + static_cast<size_t>(i) * static_cast<size_t>(m);
          for (int c = 0; c < m; ++c) {
            out[c] = v;
          }
        }
        std::swap(cost, scratch);
        axis_of_slot[static_cast<size_t>(s)] = static_cast<int>(axes.size());
        axes.push_back({s, m});
      }
      result.stats.expand_seconds += SecondsSince(t0);
    }

    // 2. Charge: one table value per combination of the touched axes' coordinates,
    // added to the contiguous run the untouched faster axes span. The gather reads the
    // COMPACT kept-only table: a kept coordinate maps straight to a table index via the
    // compact stride (fixed slots have compact dimension one and contribute nothing),
    // so dominated options are never gathered.
    {
      const auto t0 = Clock::now();
      const std::vector<double>& table = *charge_table[static_cast<size_t>(g)];
      const std::vector<std::int64_t>& stride = charge_stride[static_cast<size_t>(g)];
      std::vector<std::pair<int, std::int64_t>> ax;  // (axis pos, compact stride)
      for (size_t i = 0; i < touched.size(); ++i) {
        const int s = touched[i];
        if (axis_of_slot[static_cast<size_t>(s)] >= 0) {
          ax.push_back({axis_of_slot[static_cast<size_t>(s)], stride[i]});
        }
      }
      if (ax.empty()) {
        // Every touched slot is fixed; with kept[0] == 0 for all of them (option 0 is
        // never dominated), the single gathered cell is the compact table's first.
        const double v = table[0];
        for (double& c : cost) {
          c += v;
        }
      } else {
        std::sort(ax.begin(), ax.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        const int pmax = ax.back().first;
        std::int64_t prefix = 1;
        for (int j = 0; j <= pmax; ++j) {
          prefix *= axes[static_cast<size_t>(j)].size;
        }
        const std::int64_t run = static_cast<std::int64_t>(cost.size()) / prefix;
        std::vector<int> coord(static_cast<size_t>(pmax) + 1, 0);
        for (std::int64_t m = 0; m < prefix; ++m) {
          std::int64_t tidx = 0;
          for (const auto& a : ax) {
            tidx +=
                static_cast<std::int64_t>(coord[static_cast<size_t>(a.first)]) * a.second;
          }
          const double v = table[static_cast<size_t>(tidx)];
          double* c = cost.data() + static_cast<size_t>(m) * static_cast<size_t>(run);
          for (std::int64_t x = 0; x < run; ++x) {
            c[x] += v;  // contiguous: the auto-vectorized inner loop
          }
          for (int j = pmax; j >= 0; --j) {
            if (++coord[static_cast<size_t>(j)] < axes[static_cast<size_t>(j)].size) {
              break;
            }
            coord[static_cast<size_t>(j)] = 0;
          }
        }
      }
      result.stats.charge_seconds += SecondsSince(t0);
    }
    result.stats.max_frontier_states =
        std::max(result.stats.max_frontier_states, unpruned_width);

    // 3. Project leaving slots: min-reduce along each leaving axis, newest first.
    {
      const auto t0 = Clock::now();
      std::vector<int> leaving;
      for (int s : touched) {
        if (last[static_cast<size_t>(s)] != g) {
          continue;
        }
        unpruned_width /= space.slot_num_options[static_cast<size_t>(s)];
        if (axis_of_slot[static_cast<size_t>(s)] >= 0) {
          leaving.push_back(axis_of_slot[static_cast<size_t>(s)]);
        }
      }
      std::sort(leaving.begin(), leaving.end(), std::greater<int>());
      for (int pos : leaving) {
        const Axis axis = axes[static_cast<size_t>(pos)];
        std::int64_t st = 1;
        for (size_t j = static_cast<size_t>(pos) + 1; j < axes.size(); ++j) {
          st *= axes[j].size;
        }
        const std::int64_t n = axis.size;
        const std::int64_t out_size = static_cast<std::int64_t>(cost.size()) / n;
        scratch.resize(static_cast<size_t>(out_size));
        ProjEvent event;
        event.slot = axis.slot;
        event.winners.resize(static_cast<size_t>(out_size));
        for (std::int64_t outer = 0; outer < out_size / st; ++outer) {
          const double* in = cost.data() + static_cast<size_t>(outer * n * st);
          double* out = scratch.data() + static_cast<size_t>(outer * st);
          std::uint8_t* win = event.winners.data() + static_cast<size_t>(outer * st);
          for (std::int64_t x = 0; x < st; ++x) {
            out[x] = in[x];
            win[x] = 0;
          }
          for (std::int64_t c = 1; c < n; ++c) {
            const double* inc = in + static_cast<size_t>(c * st);
            for (std::int64_t x = 0; x < st; ++x) {
              // Strict less: ties keep the lowest coordinate, the sparse merge's
              // first-in-branch-order winner.
              if (inc[x] < out[x]) {
                out[x] = inc[x];
                win[x] = static_cast<std::uint8_t>(c);
              }
            }
          }
        }
        std::swap(cost, scratch);
        axes.erase(axes.begin() + pos);
        axis_of_slot[static_cast<size_t>(axis.slot)] = -1;
        for (size_t j = static_cast<size_t>(pos); j < axes.size(); ++j) {
          axis_of_slot[static_cast<size_t>(axes[j].slot)] = static_cast<int>(j);
        }
        event.residue = axes;
        events.push_back(std::move(event));
      }
      result.stats.project_seconds += SecondsSince(t0);
    }
  }

  // Every branched axis was projected at its slot's last group: one cell remains.
  TOFU_CHECK(axes.empty());
  TOFU_CHECK_EQ(cost.size(), static_cast<size_t>(1));
  result.best_cost = cost[0];

  // Reconstruction: walk the projection events newest-first. An event's residue axes
  // are all projected in LATER events, so their chosen coordinates are already known
  // and pin the residue cell whose recorded winner is this slot's choice.
  std::vector<int> coord_of(static_cast<size_t>(num_slots), 0);
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    std::int64_t residue_index = 0;
    std::int64_t stride = 1;
    for (int j = static_cast<int>(it->residue.size()) - 1; j >= 0; --j) {
      const Axis& axis = it->residue[static_cast<size_t>(j)];
      residue_index += static_cast<std::int64_t>(coord_of[static_cast<size_t>(axis.slot)]) * stride;
      stride *= axis.size;
    }
    coord_of[static_cast<size_t>(it->slot)] =
        static_cast<int>(it->winners[static_cast<size_t>(residue_index)]);
  }
  result.slot_option.assign(static_cast<size_t>(num_slots), 0);
  for (int s = 0; s < num_slots; ++s) {
    if (first[static_cast<size_t>(s)] < 0) {
      continue;  // untouched: option 0
    }
    result.slot_option[static_cast<size_t>(s)] =
        kept[static_cast<size_t>(s)][static_cast<size_t>(coord_of[static_cast<size_t>(s)])];
  }
  result.tables = std::move(tables);
  result.stats.wall_seconds = SecondsSince(start);
  return result;
}

SearchEngine::Result SearchEngine::Impl::RunImpl(const GroupCostFn* table_fn,
                                                 const GroupFillFn* fill_fn,
                                                 const StateCostFn* stream_fn) {
  const bool track = options.memory_budget > 0.0 && !space.slot_option_bytes.empty();
  // Dense-lattice fast path: exact unbudgeted table-mode searches whose unpruned
  // frontier fits the state cap (so the sparse path would never beam) and whose every
  // group charges through a table (so effort counters match the sparse policy).
  if (table_fn != nullptr && stream_fn == nullptr && !track &&
      !space.group_slots.empty() && options_fit_u8 && all_groups_table_static &&
      max_static_width <= options.max_states) {
    return RunDense(*table_fn, fill_fn);
  }

  const auto start = Clock::now();
  const int num_slots = static_cast<int>(space.slot_num_options.size());
  const int num_groups = static_cast<int>(space.group_slots.size());

  Result result;
  std::vector<Rec> recs;
  std::vector<FrontierField> frontier;
  int width = 0;  // current key width in bits

  // Memory-constrained mode: per-state resident bytes ride along with cost. Slots no
  // group ever touches stay at option 0, so they contribute a constant; every touched
  // slot contributes at least its cheapest option, giving the admissible lower bound
  // used for pruning ("could any completion of this state still fit?").
  const double budget = options.memory_budget;
  std::vector<double> slot_min_bytes;
  double base_bytes = 0.0;     // untouched slots, fixed at option 0
  double remaining_min = 0.0;  // cheapest option of every touched slot not yet entered
  if (track) {
    TOFU_CHECK_EQ(space.slot_option_bytes.size(), space.slot_num_options.size());
    slot_min_bytes.resize(static_cast<size_t>(num_slots), 0.0);
    for (int s = 0; s < num_slots; ++s) {
      const std::vector<double>& ob = space.slot_option_bytes[static_cast<size_t>(s)];
      TOFU_CHECK_EQ(static_cast<int>(ob.size()),
                    space.slot_num_options[static_cast<size_t>(s)]);
      if (first[static_cast<size_t>(s)] < 0) {
        base_bytes += ob[0];
        continue;
      }
      double m = ob[0];
      for (double b : ob) {
        m = std::min(m, b);
      }
      slot_min_bytes[static_cast<size_t>(s)] = m;
      remaining_min += m;
    }
    result.min_possible_bytes = base_bytes + remaining_min;
    if (result.min_possible_bytes > budget) {
      // Even the lightest assignment overflows: infeasible before exploring anything.
      result.feasible = false;
      result.slot_option.assign(static_cast<size_t>(num_slots), 0);
      return result;
    }
  }

  StateArena states;
  states.words = words;
  states.track_bytes = track;
  states.Resize(1);
  states.cost[0] = 0.0;
  states.rec[0] = -1;
  if (track) {
    states.bytes[0] = base_bytes;
  }

  StateArena scratch;
  scratch.words = words;
  scratch.track_bytes = track;

  // Projection dedup table: open addressing over state indices.
  std::vector<std::int32_t> dedup;

  // Tables consumed by this run (filled or imported), exported for step-table caching.
  std::shared_ptr<GroupCostTables> out_tables;
  if (table_fn != nullptr) {
    out_tables = std::make_shared<GroupCostTables>();
    out_tables->groups.resize(static_cast<size_t>(num_groups));
  }

  std::vector<int> opts_buffer;  // decoded option indices handed to cost callbacks
  bool aborted = false;

  for (int g = 0; g < num_groups && !aborted; ++g) {
    const std::vector<int>& touched = space.group_slots[static_cast<size_t>(g)];

    // 1. Branch every state on each entering slot's options.
    const auto t_expand = Clock::now();
    for (int s : touched) {
      if (first[static_cast<size_t>(s)] != g) {
        continue;
      }
      const int opts = space.slot_num_options[static_cast<size_t>(s)];
      const int bits = slot_bits[static_cast<size_t>(s)];
      const std::int64_t n_in = states.count();
      const std::int64_t n_out = n_in * opts;
      TOFU_CHECK(recs.size() + static_cast<size_t>(n_out) <
                 static_cast<size_t>(std::numeric_limits<std::int32_t>::max()));
      const std::int64_t rec_base = static_cast<std::int64_t>(recs.size());
      const int offset = width;
      // With a budget, a child is kept only when its accumulated bytes plus the cheapest
      // choice for every still-undecided slot can fit -- pruning is therefore provably
      // safe (no feasible completion is discarded), and since each live parent's
      // cheapest child always passes, the state set can never empty here.
      const std::vector<double>* ob =
          track ? &space.slot_option_bytes[static_cast<size_t>(s)] : nullptr;
      const double rest_min =
          track ? remaining_min - slot_min_bytes[static_cast<size_t>(s)] : 0.0;
      scratch.Resize(n_out);
      std::int64_t kept = 0;
      for (std::int64_t i = 0; i < n_in; ++i) {
        const std::uint64_t* in_key = states.key(i);
        for (int o = 0; o < opts; ++o) {
          if (track) {
            const double child_bytes =
                states.bytes[static_cast<size_t>(i)] + (*ob)[static_cast<size_t>(o)];
            if (child_bytes + rest_min > budget) {
              ++result.stats.memory_pruned_states;
              continue;
            }
            scratch.bytes[static_cast<size_t>(kept)] = child_bytes;
          }
          std::uint64_t* out_key = scratch.key(kept);
          std::memcpy(out_key, in_key, sizeof(std::uint64_t) * static_cast<size_t>(words));
          WriteField(out_key, offset, bits, static_cast<std::uint64_t>(o));
          scratch.cost[static_cast<size_t>(kept)] = states.cost[static_cast<size_t>(i)];
          recs.push_back({states.rec[static_cast<size_t>(i)], static_cast<std::int32_t>(s),
                          static_cast<std::int32_t>(o)});
          scratch.rec[static_cast<size_t>(kept)] =
              static_cast<std::int32_t>(rec_base + kept);
          ++kept;
        }
      }
      TOFU_CHECK_GE(kept, 1);
      scratch.Shrink(kept);
      remaining_min = rest_min;
      std::swap(states, scratch);
      frontier.push_back({s, width, bits});
      width += bits;

      if (states.count() > options.max_states) {
        // Beam fallback: keep the cheapest quarter of the cap, deterministic tie-break
        // on the packed key. Exactness is lost; see SearchStats::exact.
        const std::int64_t keep =
            std::max<std::int64_t>(1, options.max_states / 4);
        std::vector<std::int64_t> order(static_cast<size_t>(states.count()));
        for (std::int64_t i = 0; i < states.count(); ++i) {
          order[static_cast<size_t>(i)] = i;
        }
        auto cheaper = [&](std::int64_t a, std::int64_t b) {
          if (states.cost[static_cast<size_t>(a)] != states.cost[static_cast<size_t>(b)]) {
            return states.cost[static_cast<size_t>(a)] < states.cost[static_cast<size_t>(b)];
          }
          // Feasibility-aware tie-break: under a budget, an equally-cheap lighter state
          // has at least as many surviving completions, so it is the better keep.
          if (track &&
              states.bytes[static_cast<size_t>(a)] != states.bytes[static_cast<size_t>(b)]) {
            return states.bytes[static_cast<size_t>(a)] < states.bytes[static_cast<size_t>(b)];
          }
          return std::lexicographical_compare(states.key(a), states.key(a) + words,
                                              states.key(b), states.key(b) + words);
        };
        std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep),
                          order.end(), cheaper);
        scratch.Resize(keep);
        for (std::int64_t i = 0; i < keep; ++i) {
          const std::int64_t src = order[static_cast<size_t>(i)];
          std::memcpy(scratch.key(i), states.key(src),
                      sizeof(std::uint64_t) * static_cast<size_t>(words));
          scratch.cost[static_cast<size_t>(i)] = states.cost[static_cast<size_t>(src)];
          if (track) {
            scratch.bytes[static_cast<size_t>(i)] = states.bytes[static_cast<size_t>(src)];
          }
          scratch.rec[static_cast<size_t>(i)] = states.rec[static_cast<size_t>(src)];
        }
        std::swap(states, scratch);
        if (result.stats.exact) {
          TOFU_LOG(Warning) << "search frontier exceeded " << options.max_states
                            << " states; degrading to a beam search (plan approximate)";
        }
        result.stats.exact = false;
      }
    }
    result.stats.expand_seconds += SecondsSince(t_expand);

    // 2. Charge the group's cost to every state. The cost depends only on the options
    // of the group's touched slots (all live here), read straight out of the packed key.
    std::vector<FrontierField> rel;
    rel.reserve(touched.size());
    for (const FrontierField& f : frontier) {
      if (std::binary_search(touched.begin(), touched.end(), f.slot)) {
        rel.push_back(f);
      }
    }
    // `rel` is in frontier (insertion) order; cost callbacks expect group_slots order
    // (sorted by slot id). Reorder to match.
    std::sort(rel.begin(), rel.end(),
              [](const FrontierField& a, const FrontierField& b) { return a.slot < b.slot; });
    const int k = static_cast<int>(rel.size());
    opts_buffer.assign(static_cast<size_t>(k), 0);

    if (table_fn != nullptr) {
      // Dense table: one evaluation per combination, mixed-radix indexed with the last
      // touched slot fastest. Only worthwhile (and safe) while the combination count
      // stays within the live state count: normally every combination is reachable so
      // the table does exactly the work a memo would, but after a beam prune -- or on a
      // group whose option product is astronomically larger than the beam -- a dense
      // table would be unbounded. Those groups fall back to a per-state memo below,
      // bounding work and memory by the state count (the pre-refactor behavior).
      const std::int64_t cells_cap = std::max<std::int64_t>(states.count(), 4096);
      std::vector<std::int64_t> stride(static_cast<size_t>(k), 1);
      std::int64_t cells = 1;
      bool use_table = true;
      for (int i = k - 1; i >= 0; --i) {
        stride[static_cast<size_t>(i)] = cells;
        const int n_opt =
            space.slot_num_options[static_cast<size_t>(rel[static_cast<size_t>(i)].slot)];
        if (cells > cells_cap / n_opt) {  // saturating guard (also prevents overflow)
          use_table = false;
          break;
        }
        cells *= n_opt;
      }
      use_table = use_table && cells <= cells_cap;

      if (use_table) {
        // `rel` is group_slots[g] (sorted slot order; every touched slot is live here)
        // and `stride` follows the same mixed-radix layout, so the dense path's
        // import-or-fill applies unchanged.
        TOFU_CHECK_EQ(static_cast<size_t>(k), touched.size());
        const auto t_fill = Clock::now();
        const std::shared_ptr<const std::vector<double>> table =
            ImportOrFillTable(g, cells, *table_fn, fill_fn, &result);
        result.stats.fill_seconds += SecondsSince(t_fill);
        out_tables->groups[static_cast<size_t>(g)] = table;

        const auto t_charge = Clock::now();
        for (std::int64_t i = 0; i < states.count(); ++i) {
          const std::uint64_t* key = states.key(i);
          std::int64_t idx = 0;
          for (int f = 0; f < k; ++f) {
            const FrontierField& field = rel[static_cast<size_t>(f)];
            idx += static_cast<std::int64_t>(ExtractField(key, field.offset, field.bits)) *
                   stride[static_cast<size_t>(f)];
          }
          states.cost[static_cast<size_t>(i)] += (*table)[static_cast<size_t>(idx)];
        }
        result.stats.charge_seconds += SecondsSince(t_charge);
      } else {
        // Memoized per-state charge: one evaluation per DISTINCT reached projection.
        const auto t_charge = Clock::now();
        std::unordered_map<std::string, double> memo;
        std::string sub;
        for (std::int64_t i = 0; i < states.count(); ++i) {
          const std::uint64_t* key = states.key(i);
          sub.clear();
          for (int f = 0; f < k; ++f) {
            const FrontierField& field = rel[static_cast<size_t>(f)];
            const int v = static_cast<int>(ExtractField(key, field.offset, field.bits));
            opts_buffer[static_cast<size_t>(f)] = v;
            sub.append(reinterpret_cast<const char*>(&v), sizeof(v));
          }
          auto [it, inserted] = memo.emplace(sub, 0.0);
          if (inserted) {
            it->second = (*table_fn)(g, opts_buffer.data());
            ++result.stats.states_explored;
          }
          states.cost[static_cast<size_t>(i)] += it->second;
        }
        result.stats.charge_seconds += SecondsSince(t_charge);
      }
    } else {
      // Streamed: the callback's own enumeration is the measured cost, in state-index
      // order.
      const auto t_charge = Clock::now();
      for (std::int64_t i = 0; i < states.count(); ++i) {
        const std::uint64_t* key = states.key(i);
        for (int f = 0; f < k; ++f) {
          const FrontierField& field = rel[static_cast<size_t>(f)];
          opts_buffer[static_cast<size_t>(f)] =
              static_cast<int>(ExtractField(key, field.offset, field.bits));
        }
        double cost = 0.0;
        if (!(*stream_fn)(g, opts_buffer.data(), &cost)) {
          aborted = true;
          break;
        }
        states.cost[static_cast<size_t>(i)] += cost;
        ++result.stats.states_explored;
      }
      result.stats.charge_seconds += SecondsSince(t_charge);
      if (aborted) {
        break;
      }
    }
    result.stats.max_frontier_states =
        std::max(result.stats.max_frontier_states, states.count());

    // 3. Project out slots leaving the frontier, keeping the cheapest state per residue.
    bool any_leaving = false;
    for (int s : touched) {
      any_leaving = any_leaving || last[static_cast<size_t>(s)] == g;
    }
    if (!any_leaving) {
      continue;
    }
    const auto t_project = Clock::now();
    std::vector<FrontierField> kept;
    kept.reserve(frontier.size());
    int new_width = 0;
    for (const FrontierField& f : frontier) {
      if (last[static_cast<size_t>(f.slot)] == g) {
        continue;
      }
      kept.push_back({f.slot, new_width, f.bits});  // new offset; old offset is f.offset
      new_width += f.bits;
    }
    // Repack surviving fields. Old offsets are needed for extraction, so carry pairs.
    struct Repack {
      int old_offset;
      int new_offset;
      int bits;
    };
    std::vector<Repack> repack;
    repack.reserve(kept.size());
    {
      size_t ki = 0;
      for (const FrontierField& f : frontier) {
        if (last[static_cast<size_t>(f.slot)] == g) {
          continue;
        }
        repack.push_back({f.offset, kept[ki].offset, f.bits});
        ++ki;
      }
    }
    // Repack keys into scratch; costs and recs stay in `states` (read by index below).
    const std::int64_t n = states.count();
    scratch.Resize(n);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::uint64_t* in_key = states.key(i);
      std::uint64_t* out_key = scratch.key(i);
      for (const Repack& r : repack) {
        WriteField(out_key, r.new_offset, r.bits,
                   ExtractField(in_key, r.old_offset, r.bits));
      }
    }
    // Min-merge in state-index order.
    std::int64_t cap = 1;
    while (cap < 2 * n) {
      cap <<= 1;
    }
    dedup.assign(static_cast<size_t>(cap), -1);
    StateArena merged;
    merged.words = words;
    merged.track_bytes = track;
    merged.keys.reserve(static_cast<size_t>(n) * static_cast<size_t>(words));
    merged.cost.reserve(static_cast<size_t>(n));
    merged.rec.reserve(static_cast<size_t>(n));
    const std::uint64_t mask = static_cast<std::uint64_t>(cap - 1);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::uint64_t* key = scratch.key(i);
      std::uint64_t slot_idx = HashKey(key, words) & mask;
      for (;;) {
        std::int32_t& entry = dedup[static_cast<size_t>(slot_idx)];
        if (entry < 0) {
          entry = static_cast<std::int32_t>(merged.count());
          merged.keys.insert(merged.keys.end(), key, key + words);
          merged.cost.push_back(states.cost[static_cast<size_t>(i)]);
          if (track) {
            merged.bytes.push_back(states.bytes[static_cast<size_t>(i)]);
          }
          merged.rec.push_back(states.rec[static_cast<size_t>(i)]);
          break;
        }
        if (std::memcmp(merged.key(entry), key,
                        sizeof(std::uint64_t) * static_cast<size_t>(words)) == 0) {
          // Without a budget: strictly cheaper wins (equal cost keeps the first state in
          // branch order, the engine's canonical tie-break). With one, equal cost
          // prefers the lighter state -- it dominates the heavier one, since any
          // completion feasible for the heavier is feasible for the lighter.
          const bool better =
              states.cost[static_cast<size_t>(i)] < merged.cost[static_cast<size_t>(entry)] ||
              (track &&
               states.cost[static_cast<size_t>(i)] == merged.cost[static_cast<size_t>(entry)] &&
               states.bytes[static_cast<size_t>(i)] < merged.bytes[static_cast<size_t>(entry)]);
          if (better) {
            merged.cost[static_cast<size_t>(entry)] = states.cost[static_cast<size_t>(i)];
            if (track) {
              merged.bytes[static_cast<size_t>(entry)] = states.bytes[static_cast<size_t>(i)];
            }
            merged.rec[static_cast<size_t>(entry)] = states.rec[static_cast<size_t>(i)];
          }
          break;
        }
        slot_idx = (slot_idx + 1) & mask;
      }
    }
    std::swap(states, merged);
    frontier = std::move(kept);
    width = new_width;
    result.stats.project_seconds += SecondsSince(t_project);
  }

  result.stats.wall_seconds = SecondsSince(start);
  if (aborted) {
    result.completed = false;
    return result;
  }

  // 4. Best terminal state and option reconstruction (untouched slots keep option 0).
  // Every surviving state honors the budget when one is set: branch-time pruning
  // guarantees accumulated + cheapest-remaining <= budget, and at the end nothing
  // remains, so accumulated bytes themselves are within budget.
  TOFU_CHECK_GE(states.count(), 1);
  std::int64_t best = 0;
  for (std::int64_t i = 1; i < states.count(); ++i) {
    const bool better =
        states.cost[static_cast<size_t>(i)] < states.cost[static_cast<size_t>(best)] ||
        (track &&
         states.cost[static_cast<size_t>(i)] == states.cost[static_cast<size_t>(best)] &&
         states.bytes[static_cast<size_t>(i)] < states.bytes[static_cast<size_t>(best)]);
    if (better) {
      best = i;
    }
  }
  result.best_cost = states.cost[static_cast<size_t>(best)];
  if (track) {
    result.best_bytes = states.bytes[static_cast<size_t>(best)];
  }
  result.slot_option.assign(static_cast<size_t>(num_slots), 0);
  for (std::int32_t r = states.rec[static_cast<size_t>(best)]; r >= 0;
       r = recs[static_cast<size_t>(r)].parent) {
    result.slot_option[static_cast<size_t>(recs[static_cast<size_t>(r)].slot)] =
        recs[static_cast<size_t>(r)].option;
  }
  result.tables = std::move(out_tables);
  return result;
}

}  // namespace tofu
