#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "tofu/interconnect/sim_bridge.h"
#include "tofu/memory/liveness.h"
#include "tofu/memory/repair.h"
#include "tofu/memory/sim_replay.h"
#include "tofu/partition/coarsen.h"
#include "tofu/partition/plan_io.h"
#include "tofu/partition/recursive.h"
#include "tofu/pipeline/compose.h"
#include "tofu/pipeline/pipeline_sim.h"
#include "tofu/serve/request.h"
#include "tofu/serve/server.h"
#include "tofu/util/json.h"

namespace planbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr size_t kMaxFailureMessages = 8;
constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

// Threads per partition search. Auto-sized intra-search pools on a shared few-core
// machine measure the scheduler more than the search (cold latencies spread 2-3x from
// run to run); any thread count yields byte-identical plans (DpOptions::num_threads).
constexpr int kSearchThreads = 1;

void RecordFailure(WorkloadResult* result, LoopResult* loop, std::string message) {
  ++loop->failed;
  if (result->failures.size() < kMaxFailureMessages) {
    result->failures.push_back(std::move(message));
  }
}

// What a request produced, in the form the digest table pins: a plan digest, or
// kExpectExhausted for a kResourceExhausted failure, or "ERROR <code>".
std::string Outcome(const tofu::Result<tofu::PartitionResponse>& result) {
  if (result.ok()) return tofu::PlanDigest(result->plan);
  if (result.status().code() == tofu::StatusCode::kResourceExhausted) {
    return kExpectExhausted;
  }
  return std::string("ERROR ") + tofu::StatusCodeName(result.status().code());
}

// "" when `outcome` is what the table pins for `key`, else why not. When recording,
// pins `outcome` instead.
std::string Pin(const RunOptions& options, const std::string& key,
                const std::string& outcome) {
  if (options.record != nullptr) {
    (*options.record)[key] = outcome;
    return "";
  }
  auto pinned = options.digests->find(key);
  if (pinned == options.digests->end()) return key + ": no pinned digest";
  if (outcome != pinned->second) {
    return key + ": got " + outcome + ", pinned " + pinned->second;
  }
  return "";
}

// "" when `result`'s plan validates against `graph` and its outcome is the pinned one.
std::string CheckOutcome(const RunOptions& options, const std::string& key,
                         const tofu::Graph& graph,
                         const tofu::Result<tofu::PartitionResponse>& result) {
  if (result.ok()) {
    const tofu::Status valid = tofu::ValidatePlanForGraph(graph, result->plan);
    if (!valid.ok()) return key + ": plan fails validation: " + valid.message();
  }
  std::string error = Pin(options, key, Outcome(result));
  if (!error.empty() && !result.ok()) error += " (" + result.status().ToString() + ")";
  return error;
}

// Plan-quality figures of one distinct request.
struct PlanQuality {
  double comm_seconds = 0.0;
  std::int64_t peak_bytes = 0;
  double mem_overhead_seconds = 0.0;
};

void AddQuality(const std::map<std::string, PlanQuality>& distinct,
                WorkloadResult* result) {
  for (const auto& [key, quality] : distinct) {
    result->plan_comm_seconds += quality.comm_seconds;
    result->plan_peak_gib += static_cast<double>(quality.peak_bytes) / kGiB;
    result->plan_mem_overhead_seconds += quality.mem_overhead_seconds;
  }
}

PlanQuality QualityOf(const tofu::PartitionResponse& response) {
  return {response.estimated_comm_seconds, response.peak_shard_bytes,
          response.memory_overhead_seconds};
}

// Counts a fresh search's effort and its memory schedule into `result`.
void AddResponse(const std::string& key, const tofu::PartitionResponse& response,
                 WorkloadResult* result) {
  if (!response.from_cache && !response.coalesced) {
    ++result->searches;
    result->search.Merge(response.search_stats);
  }
  if (const auto& schedule = response.plan.memory_schedule) {
    result->scheduled_keys.insert(key);
    for (const tofu::MemoryDecision& decision : schedule->decisions) {
      if (decision.residency == tofu::Residency::kSwap) ++result->swapped_buffers;
      if (decision.residency == tofu::Residency::kRecompute) ++result->recomputed_buffers;
    }
  }
}

// Adds the cache counters that moved from `before` to `after`.
void AddCacheStats(const tofu::PlanCacheStats& after, const tofu::PlanCacheStats& before,
                   WorkloadResult* result) {
  result->cache.hits += after.hits - before.hits;
  result->cache.misses += after.misses - before.misses;
  result->cache.coalesced += after.coalesced - before.coalesced;
  result->cache.collisions += after.collisions - before.collisions;
  result->cache.evictions += after.evictions - before.evictions;
}

void AddSessionStats(const tofu::Session& session, WorkloadResult* result) {
  AddCacheStats(session.cache_stats(), tofu::PlanCacheStats(), result);
  const tofu::StepTableCache::Stats steps = session.step_table_cache_stats();
  result->step_table_hits += steps.hits;
  result->step_table_misses += steps.misses;
}

// The options Session::Partition derives from its topology before searching
// (core/session.cc, SearchAndCache), rebuilt here so re-executions run the layers on
// the inputs the session gave them. `tracer` times the interconnect pricing.
tofu::PartitionOptions SessionOptions(const tofu::DeviceTopology& topology,
                                      std::int64_t budget, Tracer& tracer,
                                      std::int64_t request, double weight) {
  tofu::PartitionOptions options;
  if (topology.interconnect != nullptr) {
    Tracer::Scope span(tracer, "interconnect.price", request, weight, true);
    options.step_bandwidths = topology.interconnect->StepBandwidths(
        tofu::FactorizeWorkers(topology.num_workers));
  } else {
    options.step_bandwidths = topology.level_bandwidths.empty()
                                  ? std::vector<double>{topology.uniform_bandwidth}
                                  : topology.level_bandwidths;
  }
  options.memory_budget_bytes = budget;
  options.dp.num_threads = kSearchThreads;
  if (topology.interconnect != nullptr) {
    const std::vector<double>& bw = topology.interconnect->links().bandwidth;
    options.memory_pricing.host_bandwidth =
        bw.empty() ? topology.uniform_bandwidth : *std::min_element(bw.begin(), bw.end());
  } else {
    options.memory_pricing.host_bandwidth = topology.BandwidthForStep(0);
  }
  return options;
}

// Re-executes the inner layers of one kTofu Session::Partition miss: coarsening, the
// recursive search, the liveness sweep, and -- when the plan carries them -- memory
// repair, schedule replay and the interconnect replay. Returns the searched plan.
tofu::PartitionPlan ReexecuteTofu(const tofu::Graph& graph,
                                  const tofu::DeviceTopology& topology,
                                  std::int64_t budget, tofu::StepTableCache* tables,
                                  Tracer& tracer, std::int64_t request, double weight) {
  tofu::PartitionOptions options =
      SessionOptions(topology, budget, tracer, request, weight);
  options.dp.step_table_cache = tables;
  {
    Tracer::Scope span(tracer, "partition.coarsen", request, weight, true);
    tofu::CoarseGraph coarse = tofu::Coarsen(graph, options.coarsen);
  }
  tofu::PartitionPlan plan;
  {
    Tracer::Scope span(tracer, "partition.search", request, weight, true);
    plan = tofu::RecursivePartition(graph, topology.num_workers, options);
  }
  {
    Tracer::Scope span(tracer, "memory.liveness", request, weight, true);
    tofu::LivenessPeakShardBytes(graph, plan);
  }
  if (plan.memory_schedule != nullptr) {
    tofu::PartitionPlan base = plan;
    base.memory_schedule = nullptr;
    {
      Tracer::Scope span(tracer, "memory.repair", request, weight, true);
      tofu::BuildRepairSchedule(graph, base, budget, options.memory_policy,
                                options.memory_pricing);
    }
    Tracer::Scope span(tracer, "memory.replay", request, weight, true);
    tofu::SimulateScheduleSeconds(graph, plan, *plan.memory_schedule,
                                  options.memory_pricing);
  }
  if (topology.interconnect != nullptr) {
    Tracer::Scope span(tracer, "interconnect.sim", request, weight, true);
    tofu::SimPlanCommSeconds(*topology.interconnect, plan);
  }
  return plan;
}

// A re-executed plan must be the plan the session returned: same inputs, same plan.
// (Below-floor rungs re-execute to an infeasible witness; the session turned that
// into kResourceExhausted, so there is no plan to compare.)
void CheckReexecution(const RunOptions& options, const std::string& key,
                      const tofu::PartitionPlan& plan, WorkloadResult* result) {
  auto pinned = options.digests->find(key);
  if (pinned == options.digests->end() || pinned->second == kExpectExhausted) return;
  ++result->loop.attempted;
  if (tofu::PlanDigest(plan) != pinned->second) {
    RecordFailure(result, &result->loop, key + ": re-executed search diverged");
  }
}

// Records one completed request of spec `spec`, sent at `sent`.
void Complete(Clock::time_point sent, int spec, LoopResult* loop) {
  loop->latencies_ms.push_back(std::chrono::duration<double>(Clock::now() - sent).count() *
                               1e3);
  loop->request_spec.push_back(spec);
}

// Closed-loop stop rule: `seconds` elapsed, at least one deck round dealt, and the last
// round dealt in full, so every run sends the pool in the proportions of its weights.
bool KeepGoing(Clock::time_point start, double seconds, const Deck& deck) {
  return deck.rounds_done() == 0 || deck.mid_round() || SecondsSince(start) < seconds;
}

std::vector<int> UnitWeights(size_t n) { return std::vector<int>(n, 1); }

// getrusage(RUSAGE_SELF) snapshot.
ProcCounters ReadProcCounters() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  ProcCounters counters;
  counters.cpu_seconds = static_cast<double>(usage.ru_utime.tv_sec) +
                         static_cast<double>(usage.ru_utime.tv_usec) * 1e-6 +
                         static_cast<double>(usage.ru_stime.tv_sec) +
                         static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  counters.voluntary_switches = usage.ru_nvcsw;
  counters.involuntary_switches = usage.ru_nivcsw;
  counters.max_rss_kib = usage.ru_maxrss;
  return counters;
}

// Process counters accumulated since `before` (max RSS: the high-water mark so far).
ProcCounters ProcSince(const ProcCounters& before) {
  const ProcCounters after = ReadProcCounters();
  ProcCounters delta;
  delta.cpu_seconds = after.cpu_seconds - before.cpu_seconds;
  delta.voluntary_switches = after.voluntary_switches - before.voluntary_switches;
  delta.involuntary_switches = after.involuntary_switches - before.involuntary_switches;
  delta.max_rss_kib = after.max_rss_kib;
  return delta;
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void SetUp() = 0;
  // Untimed checks after the last set-up (warm_serve verifies its warmed plans).
  virtual void VerifySetUp(const RunOptions&, WorkloadResult*) {}
  // One timed closed loop; its path counters go into `result`.
  virtual LoopResult Loop(const RunOptions& options, Tracer& tracer,
                          WorkloadResult* result) = 0;
  // Traced run only: re-execute the inner layers once per spec the traced loop sent,
  // weighting each by that spec's request count in `loop`.
  virtual void Reexecute(const RunOptions& options, const LoopResult& loop,
                         WorkloadResult* result) = 0;
};

// ---------------------------------------------------------------------- cold_plan

class ColdPlan : public Workload {
 public:
  void SetUp() override {
    graphs_.clear();
    topologies_.clear();
    for (const ColdSpec& spec : ColdPool()) {
      if (graphs_.count(spec.model) == 0) {
        graphs_.emplace(spec.model, BuildBenchModel(spec.model));
      }
      topologies_.push_back(MakeTopology(spec.topo, spec.workers));
    }
    // Warm-up: one cold request per spec, so the timed loop does not pay first-touch
    // costs. It also makes the set-up mostly search, like the other workloads' set-ups:
    // the graph builds alone (6 ms, allocation-bound) moved by 1.7x with the host's load.
    for (size_t i = 0; i < topologies_.size(); ++i) {
      tofu::PartitionRequest request;
      request.graph = &graphs_.at(ColdPool()[i].model).graph;
      request.options.dp.num_threads = kSearchThreads;
      tofu::Session(topologies_[i]).Partition(request);
    }
  }

  LoopResult Loop(const RunOptions& options, Tracer& tracer,
                  WorkloadResult* result) override {
    const std::vector<ColdSpec>& pool = ColdPool();
    std::map<std::string, PlanQuality> distinct;
    LoopResult loop;
    loop.spec_requests.assign(pool.size(), 0);
    Deck deck(UnitWeights(pool.size()), options.seed);
    const ProcCounters before = ReadProcCounters();
    const auto start = Clock::now();
    for (std::int64_t id = 0; KeepGoing(start, options.seconds, deck); ++id) {
      const size_t i = deck.Next();
      const tofu::Graph& graph = graphs_.at(pool[i].model).graph;
      tofu::PartitionRequest request;
      request.graph = &graph;
      request.options.dp.num_threads = kSearchThreads;
      const auto sent = Clock::now();
      std::unique_ptr<tofu::Session> session;
      const tofu::Result<tofu::PartitionResponse> response = [&] {
        Tracer::Scope span(tracer, "request", id);
        session = std::make_unique<tofu::Session>(topologies_[i]);
        Tracer::Scope partition(tracer, "session.partition", id);
        return session->Partition(request);
      }();
      Complete(sent, static_cast<int>(i), &loop);
      ++loop.attempted;
      ++loop.spec_requests[i];
      AddSessionStats(*session, result);
      const std::string error = CheckOutcome(options, pool[i].key, graph, response);
      if (!error.empty()) {
        RecordFailure(result, &loop, error);
        continue;
      }
      AddResponse(pool[i].key, *response, result);
      distinct.emplace(pool[i].key, QualityOf(*response));
    }
    loop.wall_seconds = SecondsSince(start);
    loop.proc_delta = ProcSince(before);
    AddQuality(distinct, result);
    return loop;
  }

  void Reexecute(const RunOptions& options, const LoopResult& loop,
                 WorkloadResult* result) override {
    const std::vector<ColdSpec>& pool = ColdPool();
    for (size_t i = 0; i < pool.size(); ++i) {
      if (loop.spec_requests[i] == 0) continue;
      tofu::StepTableCache tables;  // a fresh Session's cache
      const tofu::PartitionPlan plan = ReexecuteTofu(
          graphs_.at(pool[i].model).graph, topologies_[i], 0, &tables, result->trace,
          -1 - static_cast<std::int64_t>(i), static_cast<double>(loop.spec_requests[i]));
      CheckReexecution(options, pool[i].key, plan, result);
    }
  }

 private:
  std::map<std::string, tofu::ModelGraph> graphs_;
  std::vector<tofu::DeviceTopology> topologies_;  // parallel to ColdPool()
};

// ------------------------------------------------------------------ replan_ladder

// Request specs of a ladder: ladder i's rung r is spec i * kMaxRungs + r.
constexpr int kMaxRungs = 8;

class ReplanLadder : public Workload {
 public:
  void SetUp() override {
    k80_ = MakeTopology(Topo::kK80, 8);
    hierarchy_ = MakeTopology(Topo::kHierarchy, 16);
    ladders_.clear();
    for (const LadderSpec& spec : LadderPool()) {
      Ladder ladder;
      ladder.model = BuildBenchModel(spec.model);
      tofu::Session session(k80_);
      tofu::PartitionRequest request;
      request.graph = &ladder.model.graph;
      request.options.dp.num_threads = kSearchThreads;
      tofu::Result<tofu::PartitionResponse> base = session.Partition(request);
      if (!base.ok()) {
        std::fprintf(stderr, "planbench: ladder %s: unconstrained plan failed: %s\n",
                     spec.model.c_str(), base.status().ToString().c_str());
        std::exit(1);
      }
      ladder.rungs = LadderRungs(
          spec, base->peak_shard_bytes,
          tofu::MinAchievablePeakBytes(ladder.model.graph, base->plan));
      ladders_.push_back(std::move(ladder));
    }
  }

  LoopResult Loop(const RunOptions& options, Tracer& tracer,
                  WorkloadResult* result) override {
    std::map<std::string, PlanQuality> distinct;
    LoopResult loop;
    loop.spec_requests.assign(ladders_.size(), 0);
    Deck deck(UnitWeights(ladders_.size()), options.seed);
    const ProcCounters before = ReadProcCounters();
    const auto start = Clock::now();
    std::int64_t id = 0;
    while (KeepGoing(start, options.seconds, deck)) {
      const size_t i = deck.Next();
      int spec = static_cast<int>(i) * kMaxRungs;
      const Ladder& ladder = ladders_[i];
      ++loop.spec_requests[i];
      tofu::Session session(k80_);
      tofu::Session hybrid(hierarchy_);
      for (const Rung& rung : ladder.rungs) {
        tofu::PartitionRequest request;
        request.graph = &ladder.model.graph;
        request.memory_budget_bytes = rung.budget_bytes;
        request.options.dp.num_threads = kSearchThreads;
        tofu::Session* target = &session;
        if (rung.kind == RungKind::kHybrid) {
          request.algorithm = tofu::PartitionAlgorithm::kHybrid;
          target = &hybrid;
        }
        const auto sent = Clock::now();
        const tofu::Result<tofu::PartitionResponse> response = [&] {
          Tracer::Scope span(tracer, "request", id);
          Tracer::Scope partition(tracer, "session.partition", id);
          return target->Partition(request);
        }();
        Complete(sent, spec++, &loop);
        ++loop.attempted;
        ++id;
        const std::string error =
            CheckOutcome(options, rung.key, ladder.model.graph, response);
        if (!error.empty()) {
          RecordFailure(result, &loop, error);
          continue;
        }
        if (!response.ok()) {
          result->exhausted_keys.insert(rung.key);
          continue;
        }
        AddResponse(rung.key, *response, result);
        distinct.emplace(rung.key, QualityOf(*response));
      }
      AddSessionStats(session, result);
      AddSessionStats(hybrid, result);
    }
    loop.wall_seconds = SecondsSince(start);
    loop.proc_delta = ProcSince(before);
    AddQuality(distinct, result);
    return loop;
  }

  void Reexecute(const RunOptions& options, const LoopResult& loop,
                 WorkloadResult* result) override {
    Tracer& tracer = result->trace;
    for (size_t i = 0; i < ladders_.size(); ++i) {
      if (loop.spec_requests[i] == 0) continue;
      const Ladder& ladder = ladders_[i];
      const tofu::Graph& graph = ladder.model.graph;
      const double weight = static_cast<double>(loop.spec_requests[i]);
      const std::int64_t request = -1 - static_cast<std::int64_t>(i);
      // One step-table cache per session, shared down the ladder as the session's is.
      tofu::StepTableCache tables;
      tofu::StepTableCache hybrid_tables;
      for (const Rung& rung : ladder.rungs) {
        if (rung.kind != RungKind::kHybrid) {
          const tofu::PartitionPlan plan = ReexecuteTofu(
              graph, k80_, rung.budget_bytes, &tables, tracer, request, weight);
          CheckReexecution(options, rung.key, plan, result);
          continue;
        }
        tofu::PartitionOptions inner =
            SessionOptions(hierarchy_, 0, tracer, request, weight);
        inner.dp.step_table_cache = &hybrid_tables;
        tofu::HybridOptions hybrid;
        hybrid.interconnect = hierarchy_.interconnect;
        hybrid.fallback_bandwidth = hierarchy_.BandwidthForStep(0);
        hybrid.cluster = tofu::K80Cluster();
        tofu::PartitionPlan plan;
        {
          Tracer::Scope span(tracer, "pipeline.hybrid", request, weight, true);
          plan = tofu::HybridPartition(graph, hierarchy_.num_workers, inner, hybrid);
        }
        if (plan.pipeline != nullptr) {
          Tracer::Scope span(tracer, "pipeline.sim", request, weight, true);
          tofu::Simulate1F1BSeconds(*plan.pipeline);
        }
        CheckReexecution(options, rung.key, plan, result);
      }
    }
  }

 private:
  struct Ladder {
    tofu::ModelGraph model;
    std::vector<Rung> rungs;
  };

  tofu::DeviceTopology k80_;
  tofu::DeviceTopology hierarchy_;  // the kHybrid rung's 2 x 8 hierarchy
  std::vector<Ladder> ladders_;  // parallel to LadderPool()
};

// --------------------------------------------------------------------- warm_serve

// The serve response's "plan" member: the last member of every ok response line.
bool PlanMember(const std::string& response, size_t* begin, size_t* length) {
  const size_t pos = response.find("\"plan\":");
  if (pos == std::string::npos || response.empty() || response.back() != '}') {
    return false;
  }
  *begin = pos + 7;
  *length = response.size() - *begin - 1;
  return true;
}

class WarmServe : public Workload {
 public:
  void SetUp() override {
    tofu::PlanServiceOptions service;
    service.search_threads = kSearchThreads;
    service_ = std::make_unique<tofu::PlanService>(service);
    const std::vector<ServeSpec>& pool = ServePool();
    for (size_t i = 0; i < pool.size(); ++i) {
      tofu::HandleServeLine(*service_, ServeLine(pool[i], static_cast<std::int64_t>(i)),
                            /*include_plan=*/true);
    }
  }

  // Sends one hit per spec and checks it fully: ok, from the cache, a plan that parses,
  // validates against the spec's graph, and matches the pinned digest. The plan bytes
  // become the reference every loop response is compared against.
  void VerifySetUp(const RunOptions& options, WorkloadResult* result) override {
    const std::vector<ServeSpec>& pool = ServePool();
    verified_.assign(pool.size(), std::string());
    quality_.assign(pool.size(), PlanQuality());
    requests_.clear();
    for (size_t i = 0; i < pool.size(); ++i) {
      const std::string line = ServeLine(pool[i], static_cast<std::int64_t>(i));
      const std::string response = tofu::HandleServeLine(*service_, line, true);
      ++result->loop.attempted;
      tofu::Result<tofu::ServeRequest> request = tofu::ParseServeRequest(line);
      if (!request.ok()) {
        std::fprintf(stderr, "planbench: bad serve spec %s\n", pool[i].key.c_str());
        std::exit(1);
      }
      requests_.push_back(*request);
      const std::string error = VerifyResponse(options, i, response);
      if (!error.empty()) {
        RecordFailure(result, &result->loop, pool[i].key + ": " + error);
      }
    }
  }

  LoopResult Loop(const RunOptions& options, Tracer& tracer,
                  WorkloadResult* result) override {
    const std::vector<ServeSpec>& pool = ServePool();
    std::vector<int> weights;
    for (const ServeSpec& spec : pool) weights.push_back(spec.weight);
    LoopResult loop;
    loop.spec_requests.assign(pool.size(), 0);
    Deck deck(weights, options.seed);
    const tofu::PlanCacheStats cache_before = service_->cache_stats();
    const ProcCounters before = ReadProcCounters();
    const auto start = Clock::now();
    for (std::int64_t id = 0; KeepGoing(start, options.seconds, deck); ++id) {
      const size_t i = deck.Next();
      const std::string line = ServeLine(pool[i], id);
      const auto sent = Clock::now();
      const std::string response = tracer.enabled()
                                       ? TracedHandleServeLine(tracer, line, id)
                                       : tofu::HandleServeLine(*service_, line, true);
      Complete(sent, static_cast<int>(i), &loop);
      ++loop.attempted;
      ++loop.spec_requests[i];
      result->response_bytes += static_cast<double>(response.size());
      const std::string error = CheckHit(response, id, verified_[i]);
      if (!error.empty()) RecordFailure(result, &loop, pool[i].key + ": " + error);
    }
    loop.wall_seconds = SecondsSince(start);
    loop.proc_delta = ProcSince(before);
    std::map<std::string, PlanQuality> distinct;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (loop.spec_requests[i] > 0) distinct.emplace(pool[i].key, quality_[i]);
    }
    AddCacheStats(service_->cache_stats(), cache_before, result);
    AddQuality(distinct, result);
    return loop;
  }

  // Re-executes the hit path's inner layers per distinct spec: the model build, the
  // session hit (on the benchmark's own warmed Session for the spec's topology, with
  // the request PlanService::Partition builds), the hit re-validation, and the plan
  // JSON render.
  void Reexecute(const RunOptions&, const LoopResult& loop,
                 WorkloadResult* result) override {
    Tracer& tracer = result->trace;
    std::map<std::string, std::unique_ptr<tofu::Session>> sessions;
    for (size_t i = 0; i < requests_.size(); ++i) {
      if (loop.spec_requests[i] == 0) continue;
      const tofu::ServeRequest& request = requests_[i];
      const double weight = static_cast<double>(loop.spec_requests[i]);
      const std::int64_t id = -1 - static_cast<std::int64_t>(i);
      const tofu::Result<tofu::ModelGraph> model = [&] {
        Tracer::Scope span(tracer, "models.build", id, weight, true);
        return tofu::BuildServeModel(request);
      }();
      std::unique_ptr<tofu::Session>& session = sessions[request.topology.Fingerprint()];
      if (session == nullptr) session = std::make_unique<tofu::Session>(request.topology);
      tofu::PartitionRequest partition;
      partition.graph = &model->graph;
      partition.algorithm = request.algorithm;
      partition.memory_budget_bytes = request.memory_budget_bytes;
      partition.options.memory_policy = request.memory_policy;
      partition.options.dp.num_threads = kSearchThreads;
      session->Partition(partition);  // the miss that warms this session, untimed
      const tofu::Result<tofu::PartitionResponse> hit = [&] {
        Tracer::Scope span(tracer, "session.hit", id, weight, true);
        return session->Partition(partition);
      }();
      if (!hit.ok() || !hit->from_cache) {
        RecordFailure(result, &result->loop,
                      ServePool()[i].key + ": re-executed hit missed");
        continue;
      }
      {
        Tracer::Scope span(tracer, "partition.validate", id, weight, true);
        tofu::ValidatePlanForGraph(model->graph, hit->plan);
      }
      Tracer::Scope span(tracer, "partition.plan_json", id, weight, true);
      tofu::PlanToJson(hit->plan);
    }
  }

 private:
  // HandleServeLine's own three steps (parse, PlanService::Partition, render), each in
  // its own span; the response is the one HandleServeLine would produce.
  std::string TracedHandleServeLine(Tracer& tracer, const std::string& line,
                                    std::int64_t id) {
    Tracer::Scope span(tracer, "request", id);
    const auto start = Clock::now();
    const tofu::Result<tofu::ServeRequest> request = [&] {
      Tracer::Scope parse(tracer, "serve.parse", id);
      return tofu::ParseServeRequest(line);
    }();
    if (!request.ok()) return "{\"ok\":false}";
    const tofu::Result<tofu::PartitionResponse> response = [&] {
      Tracer::Scope partition(tracer, "serve.plan_service", id);
      return service_->Partition(*request);
    }();
    Tracer::Scope render(tracer, "serve.render", id);
    return tofu::ServeResponseLine(*request, response, SecondsSince(start), true);
  }

  // A loop response is correct when it is an ok cache hit for request `id` whose plan
  // bytes equal the plan checked at set-up.
  static std::string CheckHit(const std::string& response, std::int64_t id,
                              const std::string& verified) {
    const std::string head = std::string("{\"schema\":\"") + tofu::kServeJsonSchema +
                             "\",\"id\":" + std::to_string(id) + ",\"ok\":true,";
    if (response.compare(0, head.size(), head) != 0) {
      return "not an ok response: " + response.substr(0, 160);
    }
    if (response.find("\"from_cache\":true") == std::string::npos) {
      return "not served from the cache";
    }
    size_t begin = 0;
    size_t length = 0;
    if (!PlanMember(response, &begin, &length) || length != verified.size() ||
        response.compare(begin, length, verified) != 0) {
      return "plan differs from the one checked at set-up";
    }
    return "";
  }

  std::string VerifyResponse(const RunOptions& options, size_t i,
                             const std::string& response) {
    tofu::Result<tofu::JsonValue> doc = tofu::ParseJson(response);
    if (!doc.ok()) return "response is not JSON";
    tofu::Result<bool> ok = doc->BoolAt("ok");
    tofu::Result<bool> from_cache = doc->BoolAt("from_cache");
    if (!ok.ok() || !*ok) return "not ok: " + response.substr(0, 200);
    if (!from_cache.ok() || !*from_cache) return "warm request missed the cache";
    size_t begin = 0;
    size_t length = 0;
    if (!PlanMember(response, &begin, &length)) return "no plan member";
    const std::string plan_json = response.substr(begin, length);
    tofu::Result<tofu::PartitionPlan> plan = tofu::PlanFromJson(plan_json);
    if (!plan.ok()) return "plan does not parse: " + plan.status().ToString();
    tofu::Result<tofu::ModelGraph> model = tofu::BuildServeModel(requests_[i]);
    if (!model.ok()) return "model does not build";
    const tofu::Status valid = tofu::ValidatePlanForGraph(model->graph, *plan);
    if (!valid.ok()) return "plan fails validation: " + valid.message();
    const std::string error = Pin(options, ServePool()[i].key, tofu::PlanDigest(*plan));
    if (!error.empty()) return error;
    verified_[i] = plan_json;
    PlanQuality& quality = quality_[i];
    quality.comm_seconds = doc->NumberAt("estimated_comm_seconds").value();
    quality.peak_bytes = doc->IntAt("peak_shard_bytes").value();
    if (const tofu::JsonValue* overhead = doc->Find("memory_overhead_seconds")) {
      quality.mem_overhead_seconds = overhead->AsNumber();
    }
    return "";
  }

  std::unique_ptr<tofu::PlanService> service_;
  std::vector<tofu::ServeRequest> requests_;  // parallel to ServePool()
  std::vector<std::string> verified_;         // checked plan JSON per spec
  std::vector<PlanQuality> quality_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "cold_plan") return std::make_unique<ColdPlan>();
  if (name == "replan_ladder") return std::make_unique<ReplanLadder>();
  if (name == "warm_serve") return std::make_unique<WarmServe>();
  return nullptr;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const auto* names =
      new std::vector<std::string>{"cold_plan", "replan_ladder", "warm_serve"};
  return *names;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Linear interpolation between closest ranks.
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

LatencyStats BestLatency(const LoopResult& loop) {
  std::map<int, double> best;
  for (size_t i = 0; i < loop.latencies_ms.size(); ++i) {
    auto [it, fresh] = best.emplace(loop.request_spec[i], loop.latencies_ms[i]);
    if (!fresh) it->second = std::min(it->second, loop.latencies_ms[i]);
  }
  std::vector<double> latencies;
  double total_ms = 0.0;
  for (int spec : loop.request_spec) {
    latencies.push_back(best.at(spec));
    total_ms += latencies.back();
  }
  LatencyStats stats;
  if (latencies.empty()) return stats;
  stats.p50_ms = Percentile(latencies, 0.5);
  stats.p90_ms = Percentile(std::move(latencies), 0.9);
  stats.requests_per_second =
      1e3 * static_cast<double>(loop.request_spec.size()) / total_ms;
  return stats;
}

WorkloadResult RunWorkload(const RunOptions& options) {
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "planbench: unknown workload '%s'\n", options.workload.c_str());
    std::abort();
  }
  WorkloadResult result;
  result.workload = options.workload;
  // At least `setup_reps` set-ups; a cheap one repeats until the set-ups have taken
  // three seconds (at most 500 times), so its median spans the host's slow and fast
  // stretches rather than falling inside one of them.
  double setup_total = 0.0;
  for (int rep = 0; rep < std::max(1, options.setup_reps) ||
                    (setup_total < 3.0 && rep < 500);
       ++rep) {
    const auto start = Clock::now();
    workload->SetUp();
    result.setup_seconds.push_back(SecondsSince(start));
    setup_total += result.setup_seconds.back();
  }
  workload->VerifySetUp(options, &result);

  // A traced run splits its time between the traced loop and the untraced one.
  RunOptions loop_options = options;
  if (options.trace) loop_options.seconds = options.seconds / 2.0;
  result.trace = Tracer(options.trace);
  LoopResult measured = workload->Loop(loop_options, result.trace, &result);
  measured.attempted += result.loop.attempted;  // set-up verification requests
  measured.failed += result.loop.failed;
  result.loop = std::move(measured);
  if (options.trace) {
    // The same loop untraced, for the tracing overhead; its counters are discarded
    // but its failures still count.
    WorkloadResult scratch;
    Tracer off(false);
    result.untraced_loop = workload->Loop(loop_options, off, &scratch);
    result.loop.attempted += result.untraced_loop.attempted;
    result.loop.failed += result.untraced_loop.failed;
    for (std::string& failure : scratch.failures) {
      if (result.failures.size() < kMaxFailureMessages) {
        result.failures.push_back(std::move(failure));
      }
    }
    workload->Reexecute(options, result.loop, &result);
  }
  return result;
}

DigestTable RecordDigests() {
  DigestTable table;
  for (const std::string& workload : WorkloadNames()) {
    RunOptions options;
    options.workload = workload;
    options.seconds = 0.0;  // one deck round: every spec of the pool once
    options.setup_reps = 1;
    options.record = &table;
    const WorkloadResult result = RunWorkload(options);
    for (const std::string& failure : result.failures) {
      std::fprintf(stderr, "planbench: %s\n", failure.c_str());
    }
  }
  return table;
}

}  // namespace planbench
