// The benchmark's three closed-loop workloads and the numbers each run produces.
//
//   cold_plan      1 client;  every request a fresh Session + Session::Partition miss.
//   replan_ladder  1 client;  one fresh Session per ladder, re-planned down a budget
//                             ladder (sparse budgeted search, step-table reuse, repair,
//                             schedule replay, and a kHybrid request on transformers).
//   warm_serve     1 client;  HandleServeLine(include_plan) against one PlanService
//                             warmed with every spec during set-up: all cache hits.
//
// Every search runs on one thread (see kSearchThreads in workloads.cc). Every run sets
// up at least `setup_reps` times, and a cheap set-up until three seconds have passed
// (setup_s is their median). It then runs the timed closed loop until `seconds`
// have passed AND at least one full deck round has been dealt AND the last round is
// complete -- so every run sends the pool in the proportions of its weights and the
// plan-quality sums cover the same distinct requests under every seed. Every response is checked: plans
// must pass ValidatePlanForGraph and match the pinned digest, below-floor rungs must
// fail with kResourceExhausted, and warm hits must carry the plan bytes whose digest
// was checked at set-up.
//
// A traced run (`trace`) records spans around the loop's calls into the program and,
// after the loop, re-executes the inner layers of Session::Partition (coarsen, search,
// liveness, repair, replay, hybrid, interconnect pricing) and of the serve hit path
// (model build, session hit, validation, plan JSON) once per distinct spec, on the
// same inputs. Those spans are flagged `reexecuted` and weighted by how many loop
// requests the spec stood for. It then runs the same loop untraced to measure the
// tracing overhead.
#ifndef PLANBENCH_WORKLOADS_H_
#define PLANBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "specs.h"
#include "tofu/core/session.h"
#include "tofu/partition/search_stats.h"
#include "trace.h"

namespace planbench {

const std::vector<std::string>& WorkloadNames();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int setup_reps = 5;
  const DigestTable* digests = nullptr;  // the pinned outcomes; required unless recording
  DigestTable* record = nullptr;  // when set, pin every outcome here instead of checking
};

// getrusage(RUSAGE_SELF) figures.
struct ProcCounters {
  double cpu_seconds = 0.0;  // user + system
  std::int64_t voluntary_switches = 0;
  std::int64_t involuntary_switches = 0;
  std::int64_t max_rss_kib = 0;
};

// One timed closed loop.
struct LoopResult {
  std::vector<double> latencies_ms;
  std::vector<int> request_spec;  // which spec (or ladder rung) each request sent
  std::vector<std::int64_t> spec_requests;  // requests sent per spec of the pool
  double wall_seconds = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  ProcCounters proc_delta;  // over the loop only (max_rss_kib: the high-water mark)
};

struct WorkloadResult {
  std::string workload;
  std::vector<double> setup_seconds;
  LoopResult loop;           // the measured loop (traced in a traced run)
  LoopResult untraced_loop;  // traced run only: the same loop with tracing off
  std::vector<std::string> failures;  // first few failure messages

  // Plan quality, summed over the distinct requests of the loop.
  double plan_comm_seconds = 0.0;
  double plan_peak_gib = 0.0;
  double plan_mem_overhead_seconds = 0.0;

  // Path counters over the measured loop.
  tofu::PlanCacheStats cache;
  std::uint64_t step_table_hits = 0;
  std::uint64_t step_table_misses = 0;
  std::int64_t searches = 0;  // fresh (uncached) searches whose stats are summed below
  tofu::SearchStats search;   // summed; max_frontier_states is the max
  std::set<std::string> scheduled_keys;  // specs whose plan carried a MemorySchedule
  std::set<std::string> exhausted_keys;  // specs answered with kResourceExhausted
  std::int64_t swapped_buffers = 0;
  std::int64_t recomputed_buffers = 0;
  double response_bytes = 0.0;  // warm_serve response lines

  Tracer trace{false};
};

// Runs one workload; aborts on an unknown workload name.
WorkloadResult RunWorkload(const RunOptions& options);

// Runs one deck round of every workload in recording mode and returns every spec's
// key -> digest (or kExpectExhausted). Backs --record-digests.
DigestTable RecordDigests();

// The latency figures BENCHMARK.json gates. Each spec's latency is its best (lowest)
// in the loop; p50 and p90 are then taken over the loop's requests with every request
// standing at its spec's best, so the request mix still decides which specs the
// quantiles land on; and requests_per_second is what one closed-loop client achieves
// at those latencies, 1000 / their mean. Interference from outside the process only
// ever adds time, and on a shared host it comes in stretches of seconds that can fill
// half a run, which moved measured medians by a fifth to a quarter between runs; a
// spec's best moved by a few per cent.
struct LatencyStats {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double requests_per_second = 0.0;
};
LatencyStats BestLatency(const LoopResult& loop);

double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

}  // namespace planbench

#endif  // PLANBENCH_WORKLOADS_H_
