// Load driver for the concurrent planning service: replays a mixed request stream
// (models x worker counts x budgets x algorithms) against one PlanService from many
// client threads and reports QPS, cache hit rate, and p50/p99 latency per concurrency
// level -- the serving numbers behind docs/serving.md.
//
//   bench_serve --requests=1000 --threads=1,8 [--json]
//
// Each concurrency level gets a fresh service (cold cache), so levels are comparable.
// Clients pop a shared index and push full request lines through the same
// parse -> build -> session path tofu-pland uses (plans omitted from responses, so
// serialization does not dominate). After the replay the driver re-partitions every
// distinct spec on the warm service and on a fresh single-threaded service and
// requires byte-identical PlanToJson output: the concurrent cache must never serve a
// plan a cold single-threaded search would not have produced.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>

#include "tofu/partition/plan_io.h"
#include "tofu/serve/request.h"
#include "tofu/serve/server.h"
#include "tofu/util/json.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  int requests = 1000;
  std::vector<int> thread_counts = {1, 8};
  std::uint64_t seed = 42;
  bool json = false;
  // Default algorithm for specs that omit "algorithm" (--algo=NAME); explicit
  // per-spec algorithms always win, matching tofu-pland's flag.
  tofu::PartitionAlgorithm algo = tofu::PartitionAlgorithm::kTofu;
};

// The distinct request specs the replay mixes. Small enough that a full search takes
// milliseconds, varied enough (model/config/workers/budget/algorithm) that the cache
// key space is real.
std::vector<std::string> DistinctSpecs() {
  std::vector<std::string> specs;
  const char* mlp_sizes[] = {"[784,256,10]", "[784,512,256,10]", "[256,128,64,10]"};
  for (const char* sizes : mlp_sizes) {
    for (int workers : {4, 8}) {
      specs.push_back(std::string("{\"model\":\"mlp\",\"workers\":") +
                      std::to_string(workers) +
                      ",\"config\":{\"batch\":64,\"layer_sizes\":" + sizes + "}}");
    }
  }
  for (int layers : {1, 2}) {
    for (int workers : {4, 8}) {
      specs.push_back("{\"model\":\"rnn\",\"workers\":" + std::to_string(workers) +
                      ",\"config\":{\"layers\":" + std::to_string(layers) +
                      ",\"hidden\":128,\"batch\":16,\"timesteps\":4,\"embed\":64}}");
    }
  }
  for (int workers : {4, 8}) {
    specs.push_back(
        "{\"model\":\"transformer\",\"workers\":" + std::to_string(workers) +
        ",\"config\":{\"batch\":4,\"seq_len\":16,\"d_model\":64,\"d_ff\":128,"
        "\"heads\":2,\"layers\":1,\"num_classes\":64}}");
  }
  // Same spec under other algorithms and under a per-worker budget: distinct keys.
  specs.push_back(
      "{\"model\":\"mlp\",\"workers\":8,\"algorithm\":\"EqualChop\","
      "\"config\":{\"batch\":64,\"layer_sizes\":[784,256,10]}}");
  specs.push_back(
      "{\"model\":\"mlp\",\"workers\":8,\"algorithm\":\"Spartan\","
      "\"config\":{\"batch\":64,\"layer_sizes\":[784,256,10]}}");
  specs.push_back(
      "{\"model\":\"mlp\",\"workers\":8,\"algorithm\":\"Hybrid\","
      "\"config\":{\"batch\":64,\"layer_sizes\":[784,256,10]}}");
  specs.push_back(
      "{\"model\":\"mlp\",\"workers\":8,\"memory_budget_bytes\":1073741824,"
      "\"config\":{\"batch\":64,\"layer_sizes\":[784,256,10]}}");
  return specs;
}

// Deterministic replay: specs drawn via an in-line LCG (no global RNG state).
std::vector<std::string> BuildReplay(int requests, std::uint64_t seed) {
  const std::vector<std::string> specs = DistinctSpecs();
  std::vector<std::string> lines;
  lines.reserve(static_cast<size_t>(requests));
  std::uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (int i = 0; i < requests; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    lines.push_back(specs[(state >> 33) % specs.size()]);
  }
  return lines;
}

struct RunResult {
  int threads = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::int64_t errors = 0;
  tofu::PlanCacheStats cache;
  double hit_rate = 0.0;
};

double PercentileMs(std::vector<double> latencies, double q) {
  if (latencies.empty()) return 0.0;
  std::sort(latencies.begin(), latencies.end());
  size_t index = static_cast<size_t>(q * static_cast<double>(latencies.size() - 1));
  return latencies[std::min(index, latencies.size() - 1)] * 1e3;
}

RunResult RunReplay(const std::vector<std::string>& lines, int threads,
                    tofu::PartitionAlgorithm algo) {
  tofu::PlanService service;
  std::atomic<size_t> next{0};
  std::vector<double> latencies(lines.size(), 0.0);
  std::atomic<std::int64_t> errors{0};

  auto client = [&]() {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= lines.size()) return;
      const auto t0 = Clock::now();
      const std::string response =
          tofu::HandleServeLine(service, lines[i], /*include_plan=*/false, algo);
      latencies[i] = std::chrono::duration<double>(Clock::now() - t0).count();
      if (response.find("\"ok\":true") == std::string::npos) {
        errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  const auto wall0 = Clock::now();
  std::vector<std::thread> workers;
  for (int t = 1; t < threads; ++t) workers.emplace_back(client);
  client();
  for (std::thread& worker : workers) worker.join();

  RunResult result;
  result.threads = threads;
  result.seconds = std::chrono::duration<double>(Clock::now() - wall0).count();
  result.qps = result.seconds > 0
                   ? static_cast<double>(lines.size()) / result.seconds
                   : 0.0;
  result.p50_ms = PercentileMs(latencies, 0.50);
  result.p99_ms = PercentileMs(latencies, 0.99);
  result.errors = errors.load();
  result.cache = service.cache_stats();
  const std::int64_t validated =
      result.cache.hits + result.cache.misses + result.cache.coalesced;
  result.hit_rate =
      validated > 0 ? static_cast<double>(result.cache.hits +
                                          result.cache.coalesced) /
                          static_cast<double>(validated)
                    : 0.0;
  return result;
}

// Every distinct spec, partitioned on a warm concurrent service, must serialize to
// exactly the plan a fresh single-threaded search produces. Returns the number of
// mismatches (0 = deterministic).
int CheckDeterminism(const std::vector<std::string>& specs,
                     tofu::PartitionAlgorithm algo) {
  tofu::PlanService warm;
  // Warm the cache from several threads so the checked plans went through the
  // concurrent insert/coalesce path, not a quiet sequential one.
  {
    std::atomic<size_t> next{0};
    auto client = [&]() {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= specs.size() * 4) return;
        tofu::HandleServeLine(warm, specs[i % specs.size()],
                              /*include_plan=*/false, algo);
      }
    };
    std::vector<std::thread> workers;
    for (int t = 0; t < 8; ++t) workers.emplace_back(client);
    for (std::thread& worker : workers) worker.join();
  }

  int mismatches = 0;
  for (const std::string& line : specs) {
    tofu::Result<tofu::ServeRequest> request = tofu::ParseServeRequest(line, algo);
    if (!request.ok()) {
      std::fprintf(stderr, "bench_serve: spec stopped parsing: %s\n",
                   request.status().ToString().c_str());
      ++mismatches;
      continue;
    }
    tofu::Result<tofu::PartitionResponse> cached = warm.Partition(*request);
    tofu::PlanService cold;  // fresh caches, searched on this (single) thread
    tofu::Result<tofu::PartitionResponse> fresh = cold.Partition(*request);
    if (cached.ok() != fresh.ok()) {
      std::fprintf(stderr, "bench_serve: status diverged for %s\n", line.c_str());
      ++mismatches;
      continue;
    }
    if (!cached.ok()) continue;  // same error either way (e.g. budget specs)
    if (!cached->from_cache) {
      std::fprintf(stderr, "bench_serve: warm service missed a warmed spec: %s\n",
                   line.c_str());
      ++mismatches;
    }
    if (tofu::PlanToJson(cached->plan) != tofu::PlanToJson(fresh->plan)) {
      std::fprintf(stderr, "bench_serve: plan diverged for %s\n", line.c_str());
      ++mismatches;
    }
  }
  return mismatches;
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      options.json = true;
    } else if (arg.rfind("--requests=", 0) == 0) {
      options.requests = std::atoi(arg.c_str() + std::strlen("--requests="));
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::strtoull(arg.c_str() + std::strlen("--seed="), nullptr, 10);
    } else if (arg.rfind("--algo=", 0) == 0) {
      tofu::Result<tofu::PartitionAlgorithm> algo =
          tofu::AlgorithmFromName(arg.substr(std::strlen("--algo=")));
      if (!algo.ok()) {
        std::fprintf(stderr, "bench_serve: %s\n", algo.status().ToString().c_str());
        std::exit(2);
      }
      options.algo = *algo;
    } else if (arg.rfind("--threads=", 0) == 0) {
      options.thread_counts.clear();
      std::string list = arg.substr(std::strlen("--threads="));
      size_t start = 0;
      while (start < list.size()) {
        size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        options.thread_counts.push_back(
            std::atoi(list.substr(start, comma - start).c_str()));
        start = comma + 1;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_serve [--requests=N] [--threads=1,8] [--seed=S] "
                   "[--algo=NAME] [--json]\n");
      std::exit(2);
    }
  }
  if (options.requests < 1 || options.thread_counts.empty()) {
    std::fprintf(stderr, "bench_serve: need --requests >= 1 and a --threads list\n");
    std::exit(2);
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  const std::vector<std::string> lines = BuildReplay(options.requests, options.seed);
  // Client-thread speedup is bounded by the cores actually present; on a one-core
  // box the multi-client runs demonstrate correctness (coalescing, determinism)
  // rather than scaling.
  std::fprintf(stderr,
               "bench_serve: %d requests over %zu distinct specs, seed %llu, "
               "%u hardware threads\n",
               options.requests, DistinctSpecs().size(),
               static_cast<unsigned long long>(options.seed),
               std::thread::hardware_concurrency());

  std::vector<RunResult> results;
  for (int threads : options.thread_counts) {
    results.push_back(RunReplay(lines, threads, options.algo));
    const RunResult& r = results.back();
    std::fprintf(stderr,
                 "  threads=%-2d %8.1f qps  %.3fs  hit-rate %5.1f%%  "
                 "(hits %lld, misses %lld, coalesced %lld)  p50 %.3fms  p99 %.3fms"
                 "  errors %lld\n",
                 r.threads, r.qps, r.seconds, r.hit_rate * 100.0,
                 static_cast<long long>(r.cache.hits),
                 static_cast<long long>(r.cache.misses),
                 static_cast<long long>(r.cache.coalesced), r.p50_ms, r.p99_ms,
                 static_cast<long long>(r.errors));
  }
  if (results.size() >= 2 && results.front().threads == 1) {
    const RunResult& base = results.front();
    const RunResult& top = results.back();
    std::fprintf(stderr, "  speedup %dx-clients vs 1: %.2fx\n", top.threads,
                 base.seconds > 0 ? base.seconds / top.seconds : 0.0);
  }

  const int mismatches = CheckDeterminism(DistinctSpecs(), options.algo);
  std::fprintf(stderr, "bench_serve: determinism check %s\n",
               mismatches == 0 ? "OK (concurrent plans == fresh single-threaded)"
                               : "FAILED");

  if (options.json) {
    tofu::JsonWriter w;
    w.BeginObject();
    w.Key("requests").Int(options.requests);
    w.Key("distinct_specs").Int(static_cast<std::int64_t>(DistinctSpecs().size()));
    w.Key("deterministic").Bool(mismatches == 0);
    w.Key("runs").BeginArray();
    for (const RunResult& r : results) {
      w.BeginObject();
      w.Key("threads").Int(r.threads);
      w.Key("seconds").Number(r.seconds);
      w.Key("qps").Number(r.qps);
      w.Key("hit_rate").Number(r.hit_rate);
      w.Key("p50_ms").Number(r.p50_ms);
      w.Key("p99_ms").Number(r.p99_ms);
      w.Key("hits").Int(r.cache.hits);
      w.Key("misses").Int(r.cache.misses);
      w.Key("coalesced").Int(r.cache.coalesced);
      w.Key("errors").Int(r.errors);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
  }
  return mismatches == 0 ? 0 : 1;
}
