// planbench: runs one workload of the planner benchmark and prints its metrics.
//
//   planbench --workload cold_plan --seed 1 --seconds 10 --trace 0
//             --digests planbench/expected_digests.tsv [--spans out.jsonl]
//   planbench --record-digests planbench/expected_digests.tsv
//
// Normally driven by planbench/run.py, which builds this binary first. Human-readable
// lines start with "# "; the last stdout line is one JSON object:
//   {"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits 1 when any response failed its check, 2 on bad arguments.
#include <malloc.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "specs.h"
#include "workloads.h"

namespace planbench {
namespace {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double PerRequest(double total, const WorkloadResult& result) {
  const size_t requests = result.loop.latencies_ms.size();
  return requests == 0 ? 0.0 : total / static_cast<double>(requests);
}

double Ratio(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

// The end-to-end metrics BENCHMARK.json gates (every workload reports all of them).
std::vector<Metric> EndToEnd(const WorkloadResult& r) {
  const LatencyStats best = BestLatency(r.loop);
  return {
      {"setup_s", Median(r.setup_seconds), "s"},
      {"req_p50_ms", best.p50_ms, "ms"},
      {"req_p90_ms", best.p90_ms, "ms"},
      {"req_per_s", best.requests_per_second, "1/s"},
      {"plan_peak_gib", r.plan_peak_gib, "GiB"},
      {"rss_mib", static_cast<double>(r.loop.proc_delta.max_rss_kib) / 1024.0, "MiB"},
  };
}

// End-to-end figures printed but not gated: the latencies as measured (every request
// at its own latency; they move with the host's load), failures (0 on a correct run,
// which fails through "correct" otherwise), plan_comm_s (a modelled time that repeats
// exactly), p99 (needs >= 10 samples beyond it; only warm_serve has them), and the
// memory overhead (only the ladder's plans carry memory schedules).
std::vector<Metric> EndToEndExtra(const WorkloadResult& r) {
  const std::vector<double>& latencies = r.loop.latencies_ms;
  std::vector<Metric> extra = {
      {"measured_p50_ms", Percentile(latencies, 0.5), "ms"},
      {"measured_p90_ms", Percentile(latencies, 0.9), "ms"},
      {"measured_per_s", Ratio(static_cast<double>(latencies.size()), r.loop.wall_seconds),
       "1/s"},
      {"failed_frac",
       Ratio(static_cast<double>(r.loop.failed), static_cast<double>(r.loop.attempted)),
       "ratio"},
      {"plan_comm_s", r.plan_comm_seconds, "s"}};
  if (r.workload == "warm_serve") {
    extra.push_back({"req_p99_ms", Percentile(latencies, 0.99), "ms"});
  }
  if (r.workload == "replan_ladder") {
    extra.push_back({"plan_mem_overhead_s", r.plan_mem_overhead_seconds, "s"});
  }
  return extra;
}

std::vector<Metric> PerLayer(const WorkloadResult& r) {
  const std::map<std::string, double> self = r.trace.WeightedSelfSeconds();
  auto ms = [&](const char* span) {
    auto it = self.find(span);
    return it == self.end() ? 0.0 : PerRequest(it->second * 1e3, r);
  };
  const double lookups =
      static_cast<double>(r.cache.hits + r.cache.misses + r.cache.coalesced);
  const double step_lookups =
      static_cast<double>(r.step_table_hits + r.step_table_misses);
  // The same p50 the end-to-end req_p50_ms reports, so the host's load moves neither.
  const double untraced_p50 = BestLatency(r.untraced_loop).p50_ms;
  const double traced_p50 = BestLatency(r.loop).p50_ms;
  const ProcCounters& proc = r.loop.proc_delta;
  const tofu::SearchStats& s = r.search;
  auto per_req = [&](double total) { return PerRequest(total, r); };
  return {
      {"serve.parse_ms", ms("serve.parse"), "ms"},
      {"serve.plan_service_ms", ms("serve.plan_service"), "ms"},
      {"serve.render_ms", ms("serve.render"), "ms"},
      {"serve.response_kib", per_req(r.response_bytes / 1024.0), "KiB"},
      {"models.build_ms", ms("models.build"), "ms"},
      {"session.partition_ms", ms("session.partition") + ms("session.hit"), "ms"},
      {"session.hit_ms", ms("session.hit"), "ms"},
      {"session.hit_rate", Ratio(static_cast<double>(r.cache.hits), lookups), "ratio"},
      {"session.misses", static_cast<double>(r.cache.misses), "count"},
      {"session.coalesced", static_cast<double>(r.cache.coalesced), "count"},
      {"session.step_table_hit_rate",
       Ratio(static_cast<double>(r.step_table_hits), step_lookups), "ratio"},
      {"partition.coarsen_ms", ms("partition.coarsen"), "ms"},
      {"partition.search_ms", ms("partition.search"), "ms"},
      {"partition.fill_ms", per_req(s.fill_seconds * 1e3), "ms"},
      {"partition.expand_ms", per_req(s.expand_seconds * 1e3), "ms"},
      {"partition.charge_ms", per_req(s.charge_seconds * 1e3), "ms"},
      {"partition.project_ms", per_req(s.project_seconds * 1e3), "ms"},
      {"partition.validate_ms", ms("partition.validate"), "ms"},
      {"partition.plan_json_ms", ms("partition.plan_json"), "ms"},
      {"partition.states_explored", per_req(static_cast<double>(s.states_explored)),
       "count/req"},
      {"partition.cost_table_entries", per_req(static_cast<double>(s.cost_table_entries)),
       "count/req"},
      {"partition.max_frontier_states", static_cast<double>(s.max_frontier_states),
       "count"},
      {"partition.dominated_pruned_states",
       per_req(static_cast<double>(s.dominated_pruned_states)), "count/req"},
      {"partition.memory_pruned_states",
       per_req(static_cast<double>(s.memory_pruned_states)), "count/req"},
      {"partition.reused_table_entries",
       per_req(static_cast<double>(s.reused_table_entries)), "count/req"},
      {"memory.liveness_ms", ms("memory.liveness"), "ms"},
      {"memory.repair_ms", ms("memory.repair"), "ms"},
      {"memory.replay_ms", ms("memory.replay"), "ms"},
      {"memory.swapped_buffers", per_req(static_cast<double>(r.swapped_buffers)),
       "count/req"},
      {"memory.recomputed_buffers", per_req(static_cast<double>(r.recomputed_buffers)),
       "count/req"},
      {"pipeline.hybrid_ms", ms("pipeline.hybrid"), "ms"},
      {"pipeline.sim_ms", ms("pipeline.sim"), "ms"},
      {"interconnect.price_ms", ms("interconnect.price"), "ms"},
      {"interconnect.sim_ms", ms("interconnect.sim"), "ms"},
      {"proc.cpu_per_req_ms", per_req(proc.cpu_seconds * 1e3), "ms"},
      {"proc.ctx_switches_per_req",
       per_req(static_cast<double>(proc.voluntary_switches + proc.involuntary_switches)),
       "count"},
      {"trace.overhead_pct", Ratio(traced_p50 - untraced_p50, untraced_p50) * 100.0, "%"},
  };
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

int OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

void PrintMetrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("#   %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string digests;
  std::string spans;
  std::string record;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--digests") {
      args->digests = value;
    } else if (flag == "--spans") {
      args->spans = value;
    } else if (flag == "--record-digests") {
      args->record = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: planbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--digests FILE [--spans FILE] "
                 "[--commit SHA] | --record-digests FILE\n");
    return 2;
  }
  if (!args.record.empty()) {
    return WriteDigests(args.record, RecordDigests()) ? 0 : 1;
  }
  const DigestTable digests = LoadDigests(args.digests);
  if (digests.empty()) {
    std::fprintf(stderr, "planbench: no expected digests in '%s'\n",
                 args.digests.c_str());
    return 2;
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known = known || name == args.workload;
  if (!known) {
    std::fprintf(stderr, "planbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Keep freed memory in the process. By default glibc hands freed heap tops and large
  // blocks back to the kernel and faults them in again on the next allocation; on a
  // shared VM those page faults cost more while the host is busy (cold_plan's graph
  // builds read 10-15 ms with the defaults against 6 ms with this setting, side by
  // side). The allocations themselves are still timed; only the kernel round trip is
  // gone.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);

  RunOptions options;
  options.workload = args.workload;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.trace = args.trace != 0;
  options.digests = &digests;
  const WorkloadResult result = RunWorkload(options);

  std::printf(
      "# machine {\"nproc\":%d,\"hardware_concurrency\":%u,\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"commit\":\"%s\",\"workload\":\"%s\",\"seed\":%llu,"
      "\"clients\":1,\"seconds\":%g,\"trace\":%d}\n",
      OnlineCpus(), std::thread::hardware_concurrency(), PLANBENCH_CXX_COMPILER,
      PLANBENCH_BUILD_TYPE, JsonEscape(args.commit).c_str(), result.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace);
  std::printf("# %s: %zu requests in %.3f s; %lld attempted, %lld failed; "
              "cache hits %lld, misses %lld, coalesced %lld; step tables %llu/%llu hit\n",
              result.workload.c_str(), result.loop.latencies_ms.size(),
              result.loop.wall_seconds, static_cast<long long>(result.loop.attempted),
              static_cast<long long>(result.loop.failed),
              static_cast<long long>(result.cache.hits),
              static_cast<long long>(result.cache.misses),
              static_cast<long long>(result.cache.coalesced),
              static_cast<unsigned long long>(result.step_table_hits),
              static_cast<unsigned long long>(result.step_table_hits +
                                              result.step_table_misses));
  std::printf("# set-ups (s):");
  for (double seconds : result.setup_seconds) std::printf(" %.4f", seconds);
  std::printf("\n");
  for (const std::string& failure : result.failures) {
    std::printf("# FAILED %s\n", failure.c_str());
  }

  std::vector<Metric> reported;
  if (options.trace) {
    reported = PerLayer(result);
    PrintMetrics("per-layer metrics (*_ms: self time per request; re-executed layers "
                 "marked in the span file)",
                 reported);
    if (!args.spans.empty() && !result.trace.WriteJsonLines(args.spans)) {
      std::fprintf(stderr, "planbench: cannot write spans to '%s'\n", args.spans.c_str());
    }
  } else {
    reported = EndToEnd(result);
    PrintMetrics("end-to-end metrics", reported);
    PrintMetrics("end-to-end, not gated", EndToEndExtra(result));
  }

  const bool correct = result.loop.failed == 0;
  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(result.loop.attempted);
  json += ",\"failed\":" + std::to_string(result.loop.failed);
  json += ",\"metrics\":{";
  char value[64];
  for (size_t i = 0; i < reported.size(); ++i) {
    std::snprintf(value, sizeof(value), "%.17g", reported[i].value);
    json += (i == 0 ? "\"" : ",\"") + reported[i].name + "\":{\"value\":" + value +
            ",\"unit\":\"" + reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace planbench

int main(int argc, char** argv) { return planbench::Main(argc, argv); }
