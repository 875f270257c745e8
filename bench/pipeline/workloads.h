// pipeline_bench: one process runs one workload.
//
// A run has the same shape for every workload: set-up repeated a few times
// (world build or snapshot load, then warming), then operations repeated
// until the time budget is spent — a study iteration, a query batch, or a
// churn wave — then untimed output checks. With a trace requested, a second
// pass replays operations through the layers' public calls with spans around
// each call (trace.h) and must reproduce the first pass's outputs. run.py
// turns the raw samples this program prints into the benchmark's metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bgpcmp/core/scenario.h"
#include "clock.h"

namespace bgpcmp::pipeline {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< timed-phase budget; minimum op counts still apply
  bool smoke = false;     ///< reduced sizes for a fast all-checks pass
  std::string trace;      ///< Chrome trace output path; empty = untraced
  std::string snapshot;   ///< serving snapshot (serve_10x, churn_10x)
};

/// Raw measurements of one run.
struct RunResult {
  std::vector<double> setup_s;  ///< one per set-up
  std::vector<double> op_ms;    ///< one per timed operation
  double work = 0.0;            ///< work units done by the timed operations
  std::size_t failed = 0;       ///< operations whose output disagreed
  double peak_rss_mb = 0.0;     ///< at the end of the timed phase
  /// Output digests, pinned in pins.json at the default seed.
  std::map<std::string, std::string> digests;
  std::vector<std::string> errors;   ///< one line per failed check
  std::vector<double> traced_op_ms;  ///< the traced pass's operations
};

/// Record a failed check unless `ok`.
inline void check(RunResult& r, bool ok, const std::string& what) {
  if (!ok) r.errors.push_back(what);
}

/// Whether the timed loop runs another operation: until `min_ops` are done
/// and the budget is spent.
inline bool keep_going(std::size_t done, std::size_t min_ops, std::int64_t start_ns,
                       double seconds) {
  return done < min_ops || ms_since(start_ns) < seconds * 1e3;
}

/// The default world with every AS-class count multiplied by `scale`, as the
/// scale benches build it.
[[nodiscard]] core::ScenarioConfig scaled_config(std::size_t scale);

[[nodiscard]] std::string hex64(std::uint64_t v);

/// Peak resident set size of this process so far (getrusage), in MiB.
[[nodiscard]] double peak_rss_mb();

class Tracer;
/// End a traced pass: write the trace, failing the run if it cannot.
void finish_trace(const Tracer& tracer, const RunConfig& config, RunResult& r);

RunResult run_fig1(const RunConfig& config);
RunResult run_study_30x(const RunConfig& config);
RunResult run_serve(const RunConfig& config);
RunResult run_churn(const RunConfig& config);

/// The world behind the serving snapshot that serve_10x and churn_10x load.
[[nodiscard]] core::ScenarioConfig serving_scenario(bool smoke);
/// Build that world, warm it, and write its snapshot (untimed preparation).
void prepare_snapshot(const std::string& path, bool smoke);

}  // namespace bgpcmp::pipeline
