// The benchmark's span recorder. Spans are recorded by the benchmark's own code around
// each call it makes into a layer's public function -- nothing inside src/ is traced.
//
// Not thread-safe: spans nest through an open-span stack, so a span's
// parent is whatever span was open when it began. Spans stay in memory and are written
// out once, at the end of the run. A layer's self time is its span's duration minus the
// time its child spans cover.
#ifndef PLANBENCH_TRACE_H_
#define PLANBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace planbench {

struct Span {
  const char* name = "";
  std::int64_t request = -1;  // spans of one request share this id
  int parent = -1;            // index into the same Tracer's spans, -1 for a root
  double start_s = 0.0;       // seconds since the process-wide trace epoch
  double end_s = 0.0;
  // Re-executions stand for `weight` requests of the measured loop (see workloads.h);
  // spans timed inside the loop have weight 1.
  double weight = 1.0;
  bool reexecuted = false;
};

class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // RAII span: opens on construction, closes on destruction. A no-op when the tracer
  // is disabled, so the untraced run pays one branch per call site.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t request, double weight = 1.0,
          bool reexecuted = false);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  // Sum over spans of (self time x weight), in seconds, keyed by span name.
  std::map<std::string, double> WeightedSelfSeconds() const;

  // One JSON object per span: name, request, parent, start/end seconds, weight, reexec.
  bool WriteJsonLines(const std::string& path) const;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

// Seconds since the trace epoch (first call), on the steady clock.
double TraceNow();

}  // namespace planbench

#endif  // PLANBENCH_TRACE_H_
