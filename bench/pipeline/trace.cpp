#include "trace.h"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "bgpcmp/netbase/check.h"
#include "clock.h"

namespace bgpcmp::pipeline {

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Tracer::Tracer() : origin_ns_(now_ns()) {}

std::size_t Tracer::open(std::string name, std::int64_t id) {
  Span span;
  span.name = std::move(name);
  span.id = id;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t span) {
  BGPCMP_CHECK(!open_.empty() && open_.back() == span, "spans must close innermost first");
  spans_[span].end_ns = now_ns();
  open_.pop_back();
}

void Tracer::busy(std::size_t span, const std::string& layer, std::int64_t ns,
                  std::size_t calls, int width) {
  Span& s = spans_.at(span);
  s.width = width;
  Busy& b = s.busy[layer];
  b.ns += ns;
  b.calls += calls;
}

bool Tracer::write(const std::string& path, std::string_view workload) const {
  std::ofstream out{path};
  if (!out) return false;
  const auto us = [&](std::int64_t ns) { return json_number(static_cast<double>(ns) / 1e3); };
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":" << json_string(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(s.start_ns - origin_ns_)
        << ",\"dur\":" << us(s.end_ns - s.start_ns) << ",\"args\":{\"span\":" << i
        << ",\"parent\":" << s.parent << ",\"id\":" << s.id;
    if (!s.busy.empty()) {
      out << ",\"width\":" << s.width << ",\"busy_us\":{";
      const char* sep = "";
      for (const auto& [layer, b] : s.busy) {
        out << sep << json_string(layer) << ':' << us(b.ns);
        sep = ",";
      }
      out << "},\"calls\":{";
      sep = "";
      for (const auto& [layer, b] : s.busy) {
        out << sep << json_string(layer) << ':' << b.calls;
        sep = ",";
      }
      out << '}';
    }
    out << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":"
      << json_string(workload) << ",\"counts\":{";
  const char* sep = "";
  for (const auto& [name, value] : counts_) {
    out << sep << json_string(name) << ':' << json_number(value);
    sep = ",";
  }
  out << "}}}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace bgpcmp::pipeline
