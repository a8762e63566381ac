#include "specs.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <utility>

#include "tofu/interconnect/interconnect.h"
#include "tofu/models/mlp.h"
#include "tofu/models/moe.h"
#include "tofu/models/rnn.h"
#include "tofu/models/transformer.h"
#include "tofu/models/wresnet.h"
#include "tofu/sim/cost_model.h"

namespace planbench {
namespace {

tofu::ModelGraph Transformer(int layers) {
  tofu::TransformerConfig config;
  config.layers = layers;
  return tofu::BuildTransformer(config);
}

tofu::ModelGraph WResNet(int layers, int width) {
  tofu::WResNetConfig config;
  config.layers = layers;
  config.width = width;
  return tofu::BuildWResNet(config);
}

tofu::ModelGraph Rnn(int layers, std::int64_t hidden, int timesteps) {
  tofu::RnnConfig config;
  config.layers = layers;
  config.hidden = hidden;
  config.timesteps = timesteps;
  return tofu::BuildRnn(config);
}

const std::map<std::string, std::function<tofu::ModelGraph()>>& Builders() {
  static const auto* builders =
      new std::map<std::string, std::function<tofu::ModelGraph()>>{
          {"mlp",
           [] {
             tofu::MlpConfig config;
             config.layer_sizes = {784, 256, 10};
             return tofu::BuildMlp(config);
           }},
          {"moe", [] { return tofu::BuildMoe(tofu::MoeConfig{}); }},
          {"transformer-2", [] { return Transformer(2); }},
          {"transformer-4", [] { return Transformer(4); }},
          {"wresnet-50-w4", [] { return WResNet(50, 4); }},
          {"wresnet-101-w4", [] { return WResNet(101, 4); }},
          {"rnn-4-2048-t10", [] { return Rnn(4, 2048, 10); }},
          {"rnn-2-512-t4", [] { return Rnn(2, 512, 4); }},
      };
  return *builders;
}

const char* TopoName(Topo topo) {
  switch (topo) {
    case Topo::kUniform:
      return "uniform";
    case Topo::kLevels:
      return "levels";
    case Topo::kRing:
      return "ring";
    case Topo::kHierarchy:
      return "hierarchy";
    case Topo::kK80:
      return "k80";
  }
  return "?";
}

ColdSpec Cold(const std::string& model, int workers, Topo topo) {
  ColdSpec spec;
  spec.key = "cold/" + model + "/w" + std::to_string(workers) + "/" + TopoName(topo);
  spec.model = model;
  spec.workers = workers;
  spec.topo = topo;
  return spec;
}

std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

tofu::ModelGraph BuildBenchModel(const std::string& model) {
  auto it = Builders().find(model);
  if (it == Builders().end()) {
    std::fprintf(stderr, "planbench: unknown model '%s'\n", model.c_str());
    std::abort();
  }
  return it->second();
}

tofu::DeviceTopology MakeTopology(Topo topo, int workers) {
  switch (topo) {
    case Topo::kUniform:
      return tofu::DeviceTopology::Uniform(workers);
    case Topo::kLevels: {
      tofu::DeviceTopology topology = tofu::DeviceTopology::Uniform(workers);
      topology.level_bandwidths = {10e9, 21e9};
      return topology;
    }
    case Topo::kRing:
      return tofu::DeviceTopology::WithInterconnect(tofu::MakeRing(workers, 21e9, 15e-6));
    case Topo::kHierarchy:
      return tofu::DeviceTopology::WithInterconnect(
          tofu::MakeHierarchy(workers / 8, 8, 21e9, 2.5e9, 15e-6));
    case Topo::kK80:
      return tofu::DeviceTopology::FromCluster(tofu::K80Cluster());
  }
  return tofu::DeviceTopology::Uniform(workers);
}

const std::vector<ColdSpec>& ColdPool() {
  static const auto* pool = new std::vector<ColdSpec>{
      Cold("mlp", 8, Topo::kUniform),
      Cold("mlp", 16, Topo::kRing),
      Cold("mlp", 32, Topo::kHierarchy),
      Cold("moe", 8, Topo::kLevels),
      Cold("moe", 8, Topo::kRing),
      Cold("moe", 16, Topo::kHierarchy),
      Cold("moe", 32, Topo::kUniform),
      Cold("transformer-2", 8, Topo::kUniform),
      Cold("transformer-2", 16, Topo::kLevels),
      Cold("transformer-2", 32, Topo::kHierarchy),
      Cold("transformer-4", 8, Topo::kUniform),
      Cold("transformer-4", 8, Topo::kRing),
      Cold("transformer-4", 16, Topo::kHierarchy),
      Cold("wresnet-50-w4", 8, Topo::kUniform),
      Cold("wresnet-50-w4", 8, Topo::kLevels),
      Cold("wresnet-50-w4", 16, Topo::kRing),
      Cold("wresnet-101-w4", 16, Topo::kLevels),
      Cold("rnn-4-2048-t10", 8, Topo::kUniform),
      Cold("rnn-4-2048-t10", 8, Topo::kRing),
      Cold("rnn-4-2048-t10", 16, Topo::kHierarchy),
      Cold("rnn-4-2048-t10", 32, Topo::kLevels),
  };
  return *pool;
}

const std::vector<LadderSpec>& LadderPool() {
  static const auto* pool = new std::vector<LadderSpec>{
      {"rnn-2-512-t4", false},
      {"transformer-4", true},
      {"wresnet-50-w4", false},
      {"moe", false},
  };
  return *pool;
}

std::string LadderKeyPrefix(const LadderSpec& spec) {
  return "ladder/" + spec.model + "/";
}

std::vector<Rung> LadderRungs(const LadderSpec& spec, std::int64_t liveness_peak,
                              std::int64_t floor_bytes) {
  const std::string prefix = LadderKeyPrefix(spec);
  std::vector<Rung> rungs;
  rungs.push_back({prefix + "unconstrained", RungKind::kUnconstrained, 0});
  // Budgets at 3/3, 2/3, 1/3 and 0/3 of the way from the repair floor to the peak.
  for (int k = 3; k >= 0; --k) {
    const std::int64_t budget = floor_bytes + (liveness_peak - floor_bytes) * k / 3;
    rungs.push_back({prefix + "budget-" + std::to_string(k) + "of3", RungKind::kBudget,
                     budget});
  }
  rungs.push_back({prefix + "below-floor", RungKind::kBelowFloor, floor_bytes / 2});
  if (spec.with_hybrid) {
    rungs.push_back({prefix + "hybrid-hier2x8", RungKind::kHybrid, 0});
  }
  return rungs;
}

// Weights: the hottest specs are one small and one medium model, and the weights put
// the 50th and 90th percentiles inside one spec's block of hit latencies (Transformer-2
// and WResNet-50 @8 respectively) rather than on the edge between two blocks, where
// the quantile would flip between them from window to window.
const std::vector<ServeSpec>& ServePool() {
  static const auto* pool = new std::vector<ServeSpec>{
      {"serve/transformer-2/w8", R"("model":"transformer","workers":8)", 12},
      {"serve/mlp/w8", R"("model":"mlp","workers":8)", 10},
      {"serve/wresnet-50-w4/w8",
       R"("model":"wresnet","workers":8,"config":{"layers":50,"width":4})", 7},
      {"serve/mlp-784-256-10/w16",
       R"("model":"mlp","workers":16,"config":{"layer_sizes":[784,256,10]})", 6},
      {"serve/rnn-2-512-t4/w8",
       R"("model":"rnn","workers":8,"config":{"layers":2,"hidden":512,"timesteps":4})",
       4},
      {"serve/transformer-4/w8/levels",
       R"("model":"transformer","workers":8,"level_bandwidths":[1e10,2.1e10],)"
       R"("config":{"layers":4})",
       3},
      {"serve/rnn-4-2048-t10/w8",
       R"("model":"rnn","workers":8,)"
       R"("config":{"layers":4,"hidden":2048,"timesteps":10})",
       2},
      {"serve/transformer-2/w16", R"("model":"transformer","workers":16)", 2},
      {"serve/mlp/w32", R"("model":"mlp","workers":32)", 2},
      {"serve/wresnet-50-w4/w16/levels",
       R"("model":"wresnet","workers":16,"level_bandwidths":[1e10,2.1e10],)"
       R"("config":{"layers":50,"width":4})",
       1},
      {"serve/transformer-2/w8/budget",
       R"("model":"transformer","workers":8,"memory_budget_bytes":12000000)", 1},
      {"serve/transformer-4/w16/hybrid",
       R"("model":"transformer","workers":16,"algorithm":"Hybrid",)"
       R"("config":{"layers":4})",
       1},
  };
  return *pool;
}

std::string ServeLine(const ServeSpec& spec, std::int64_t id) {
  return "{\"id\":" + std::to_string(id) + "," + spec.line + "}";
}

Deck::Deck(std::vector<int> weights, std::uint64_t seed) : state_(seed) {
  for (size_t i = 0; i < weights.size(); ++i) {
    for (int copy = 0; copy < weights[i]; ++copy) {
      round_.push_back(i);
    }
  }
  Shuffle();
}

void Deck::Shuffle() {
  for (size_t i = round_.size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(SplitMix64(&state_) % i);
    std::swap(round_[i - 1], round_[j]);
  }
}

size_t Deck::Next() {
  if (pos_ == round_.size()) {
    Shuffle();
    pos_ = 0;
  }
  const size_t card = round_[pos_++];
  if (pos_ == round_.size()) {
    ++rounds_done_;
  }
  return card;
}

DigestTable LoadDigests(const std::string& path) {
  DigestTable table;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    table[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return table;
}

bool WriteDigests(const std::string& path, const DigestTable& table) {
  std::ofstream out(path);
  out << "# planbench expected plan digests: spec key <TAB> PlanDigest, or "
      << kExpectExhausted << "\n"
      << "# for requests that must fail. Regenerate: python3 planbench/run.py "
         "--record-digests\n";
  for (const auto& [key, digest] : table) {
    out << key << '\t' << digest << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace planbench
