// The benchmark's input pools and its seeded request generator.
//
// Every workload draws from a fixed, finite pool of specs, so one expected-digest file
// (expected_digests.tsv, keyed by Spec::key) covers every request any seed can send.
// The seed only chooses the order: a Deck deals the pool in rounds, each round a seeded
// shuffle holding every spec `weight` times. A run therefore sends (almost) the same
// multiset of requests under every seed -- its latency quantiles compare across seeds --
// while the sequence, and the partial last round, differ per seed.
#ifndef PLANBENCH_SPECS_H_
#define PLANBENCH_SPECS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tofu/core/session.h"
#include "tofu/models/model.h"

namespace planbench {

// Builds one of the benchmark's named models ("mlp", "moe", "transformer-2",
// "transformer-4", "wresnet-50-w4", "wresnet-101-w4", "rnn-4-2048-t10",
// "rnn-2-512-t4"). Aborts on an unknown name: the pools below are the only callers.
tofu::ModelGraph BuildBenchModel(const std::string& model);

enum class Topo {
  kUniform,    // DeviceTopology::Uniform
  kLevels,     // two-level level_bandwidths: host link, then p2p
  kRing,       // MakeRing interconnect
  kHierarchy,  // MakeHierarchy(workers / 8, 8, ...) interconnect
  kK80,        // DeviceTopology::FromCluster(K80Cluster())
};

tofu::DeviceTopology MakeTopology(Topo topo, int workers);

// cold_plan: one unbudgeted kTofu request against a fresh Session.
struct ColdSpec {
  std::string key;
  std::string model;
  int workers = 8;
  Topo topo = Topo::kUniform;
};
const std::vector<ColdSpec>& ColdPool();

// replan_ladder: one model re-planned down a budget ladder on a fresh Session. The
// budgets are derived at set-up from the unconstrained plan (LadderRungs).
struct LadderSpec {
  std::string model;
  // Transformer ladders end with one kHybrid request on a 16-worker hierarchy.
  bool with_hybrid = false;
};
const std::vector<LadderSpec>& LadderPool();

enum class RungKind {
  kUnconstrained,
  kBudget,      // a budget between the liveness peak and the repair floor
  kBelowFloor,  // half the repair floor: must fail with kResourceExhausted
  kHybrid,      // unbudgeted kHybrid on MakeHierarchy(2, 8, ...)
};

struct Rung {
  std::string key;
  RungKind kind = RungKind::kUnconstrained;
  std::int64_t budget_bytes = 0;
};

// The ladder's rungs in request order: unconstrained, four budgets from the liveness
// peak down to the repair floor, the below-floor rung, then the hybrid request if any.
std::vector<Rung> LadderRungs(const LadderSpec& spec, std::int64_t liveness_peak,
                              std::int64_t floor_bytes);
std::string LadderKeyPrefix(const LadderSpec& spec);

// warm_serve: one tofu-pland request line (without "id") and its share of the mix.
struct ServeSpec {
  std::string key;
  std::string line;  // JSON object body after the "id" member, e.g. "\"model\":\"mlp\""
  int weight = 1;
};
const std::vector<ServeSpec>& ServePool();
// The full request line for `spec` with request id `id`.
std::string ServeLine(const ServeSpec& spec, std::int64_t id);

// Seeded dealer over `weights.size()` specs: each round holds spec i weights[i] times in
// a seeded Fisher-Yates order (splitmix64). Same seed, same sequence.
class Deck {
 public:
  Deck(std::vector<int> weights, std::uint64_t seed);
  size_t Next();
  // Completed rounds so far (a round is complete once its last card is dealt).
  std::int64_t rounds_done() const { return rounds_done_; }
  // True between a round's first and last card.
  bool mid_round() const { return pos_ != 0 && pos_ != round_.size(); }

 private:
  void Shuffle();

  std::vector<size_t> round_;
  size_t pos_ = 0;
  std::int64_t rounds_done_ = 0;
  std::uint64_t state_;
};

// Expected digests: spec key -> PlanDigest, or kExpectExhausted for requests that must
// fail with kResourceExhausted.
inline constexpr const char* kExpectExhausted = "RESOURCE_EXHAUSTED";
using DigestTable = std::map<std::string, std::string>;
// Reads "key<TAB>digest" lines ('#' starts a comment). Empty table on a missing file.
DigestTable LoadDigests(const std::string& path);
bool WriteDigests(const std::string& path, const DigestTable& table);

}  // namespace planbench

#endif  // PLANBENCH_SPECS_H_
