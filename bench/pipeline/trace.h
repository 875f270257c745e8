// In-memory span recorder for the traced pass of the pipeline benchmark.
//
// Spans are opened and closed on the caller thread around calls into each
// layer's public functions; they nest by open order. Inside a parallel region
// the per-item timings go into index-addressed slots that the caller sums
// after the join (detlint D7) and attaches to the region's span as per-layer
// busy time. Everything stays in memory until write() emits Chrome
// trace-event JSON, which layers.py reduces to the per-layer table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace bgpcmp::pipeline {

class Tracer {
 public:
  Tracer();

  /// Open a span nested under the innermost open one. `id` names the
  /// request, chunk or iteration the span belongs to. Returns the span index.
  std::size_t open(std::string name, std::int64_t id);
  /// Close the innermost open span, which must be `span`.
  void close(std::size_t span);

  /// Attach to a parallel-region span the summed per-item time its items
  /// spent in `layer`, how many calls that was, and the region's lane count.
  void busy(std::size_t span, const std::string& layer, std::int64_t ns,
            std::size_t calls, int width);

  /// Add to an exact count reported with the trace (events, routes, pairs).
  void count(const std::string& name, double value) { counts_[name] += value; }

  /// Write every span as Chrome trace-event JSON (complete "X" events).
  [[nodiscard]] bool write(const std::string& path, std::string_view workload) const;

 private:
  struct Busy {
    std::int64_t ns = 0;
    std::size_t calls = 0;
  };
  struct Span {
    std::string name;
    std::int64_t id = 0;
    std::int64_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int width = 1;
    std::map<std::string, Busy> busy;
  };

  std::int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::map<std::string, double> counts_;
};

/// Closes its span when it leaves scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::int64_t id)
      : tracer_(tracer), span_(tracer.open(std::move(name), id)) {}
  ~ScopedSpan() { tracer_.close(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::size_t index() const { return span_; }

 private:
  Tracer& tracer_;
  std::size_t span_;
};

/// JSON rendering shared by the result line and the trace file.
[[nodiscard]] std::string json_string(std::string_view s);
[[nodiscard]] std::string json_number(double v);

}  // namespace bgpcmp::pipeline
