// Peak-RSS probe shared by the e*-benches (the BENCH_scale.json trajectory).
//
// getrusage(RUSAGE_SELF).ru_maxrss is the kernel's process-lifetime
// high-water mark of resident memory, in kibibytes on Linux. It is monotone:
// once any phase of a process touches N MiB, every later reading reports at
// least N. Per-phase peaks therefore need one process per phase — run each
// benchmark family in its own invocation via --benchmark_filter (see
// scripts/bench_scale.sh) and read the counter from that process's report.
//
// This is kernel accounting, not a clock: google-benchmark still owns all
// timing, and the include closure stays free of <chrono>/<random> (detlint
// D4 and R4).
#pragma once

#include <sys/resource.h>

#include <benchmark/benchmark.h>

namespace bgpcmp::benchutil {

/// Peak resident set size of this process so far, in MiB.
inline double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Peak RSS over all waited-for child processes (shard workers), in MiB.
/// Like RUSAGE_SELF this is a high-water mark — the max over children, not
/// their sum — and only counts children that have been waited for.
inline double child_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Attach the current peak to a benchmark's counters (call after the timed
/// loop), so the JSON report carries the phase's memory next to its time.
inline void report_peak_rss(benchmark::State& state) {
  state.counters["peak_rss_mb"] = benchmark::Counter(peak_rss_mb());
}

/// Attach the shard workers' peak (max over worker processes).
inline void report_child_peak_rss(benchmark::State& state) {
  state.counters["worker_peak_rss_mb"] = benchmark::Counter(child_peak_rss_mb());
}

}  // namespace bgpcmp::benchutil
