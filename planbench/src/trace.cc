#include "trace.h"

#include <cstdio>
#include <fstream>

namespace planbench {

double TraceNow() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::int64_t request,
                     double weight, bool reexecuted)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  span.weight = weight;
  span.reexecuted = reexecuted;
  index_ = static_cast<int>(tracer_.spans_.size());
  tracer_.spans_.push_back(span);
  tracer_.open_.push_back(index_);
  tracer_.spans_[index_].start_s = TraceNow();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[index_].end_s = TraceNow();
  tracer_.open_.pop_back();
}

std::map<std::string, double> Tracer::WeightedSelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) self[span.parent] -= span.end_s - span.start_s;
  }
  std::map<std::string, double> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    totals[spans_[i].name] += self[i] * spans_[i].weight;
  }
  return totals;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  char line[256];
  for (const Span& span : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"request\":%lld,\"parent\":%d,\"start_s\":%.9f,"
                  "\"end_s\":%.9f,\"weight\":%g,\"reexecuted\":%s}\n",
                  span.name, static_cast<long long>(span.request), span.parent,
                  span.start_s, span.end_s, span.weight,
                  span.reexecuted ? "true" : "false");
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace planbench
