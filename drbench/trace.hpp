// In-memory span recorder for the traced run. Spans are opened and closed
// on one thread (the layer replay is sequential); each records its name,
// start, end and parent, and every span of one traced run shares the run's
// identifier. Nothing is written until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace drbench {

struct Span {
  std::string name;
  double start_s = 0;  ///< seconds since the tracer's epoch
  double end_s = 0;
  int parent = -1;     ///< index into spans(), -1 for a root
};

class Tracer {
 public:
  explicit Tracer(uint64_t run_id = 1);

  /// Open a span as a child of the innermost open span; returns its index.
  int Begin(std::string name);
  /// Close span `index` (must be the innermost open span).
  void End(int index);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name)
        : tracer_(tracer), index_(tracer.Begin(std::move(name))) {}
    ~Scope() { tracer_.End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: total duration minus the time its direct children
  /// cover, summed over every span of that name.
  [[nodiscard]] std::map<std::string, double> SelfSeconds() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds), loadable
  /// in Perfetto or chrome://tracing.
  [[nodiscard]] std::string ChromeJson() const;

 private:
  [[nodiscard]] double Now() const;

  uint64_t run_id_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace drbench
