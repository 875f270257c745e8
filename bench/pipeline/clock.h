// The pipeline benchmark's only wall-clock read.
//
// Every timing the benchmark reports comes from now_ns(). Readings flow into
// the result JSON and the trace spans only — never into a model call — so the
// model stays free of wall-clock input (lint R4, detlint D4).
#pragma once

#include <chrono>  // lint:allow(D4) benchmark timing only; never reaches a model call
#include <cstdint>

namespace bgpcmp::pipeline {

/// Monotonic nanoseconds since an arbitrary epoch.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

}  // namespace bgpcmp::pipeline
