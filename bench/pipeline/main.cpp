// Entry point of pipeline_bench (workloads.h). Usage:
//
//   pipeline_bench --workload NAME --snapshot PATH [--seed N] [--seconds S]
//                  [--smoke] [--trace FILE] [--threads N]
//   pipeline_bench --prepare PATH [--smoke]
//
// The first form runs one workload and prints its raw samples as one JSON
// line; the second writes the serving snapshot serve_10x and churn_10x load.
// bench/pipeline/run.py is the front end that builds, runs and reports.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bgpcmp/exec/thread_pool.h"
#include "workloads.h"
#include "trace.h"

namespace bgpcmp::pipeline {

core::ScenarioConfig scaled_config(std::size_t scale) {
  core::ScenarioConfig cfg;
  cfg.internet.tier1_count *= scale;
  cfg.internet.transit_count *= scale;
  cfg.internet.eyeball_count *= scale;
  cfg.internet.stub_count *= scale;
  return cfg;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void finish_trace(const Tracer& tracer, const RunConfig& config, RunResult& r) {
  check(r, tracer.write(config.trace, config.workload), "cannot write trace " + config.trace);
}

namespace {

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + json_number(v[i]);
  return out + "]";
}

void print_result(const RunConfig& rc, const RunResult& r) {
  std::string digests = "{";
  for (const auto& [name, value] : r.digests) {
    digests += (digests.size() > 1 ? "," : "") + json_string(name) + ":" + json_string(value);
  }
  digests += "}";
  std::string errors = "[";
  for (const std::string& e : r.errors) errors += (errors.size() > 1 ? "," : "") + json_string(e);
  errors += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%" PRIu64
      ",\"width\":%d,\"setup_s\":%s,\"op_ms\":%s,\"work\":%s,\"failed\":%zu,"
      "\"peak_rss_mb\":%s,\"digests\":%s,\"errors\":%s,\"traced_op_ms\":%s}\n",
      json_string(rc.workload).c_str(), rc.seed, exec::thread_count(),
      json_array(r.setup_s).c_str(), json_array(r.op_ms).c_str(),
      json_number(r.work).c_str(), r.failed, json_number(r.peak_rss_mb).c_str(),
      digests.c_str(), errors.c_str(), json_array(r.traced_op_ms).c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: pipeline_bench --workload NAME --snapshot PATH [--seed N] "
               "[--seconds S] [--smoke] [--trace FILE] [--threads N]\n"
               "       pipeline_bench --prepare PATH [--smoke]\n");
  return 2;
}

}  // namespace
}  // namespace bgpcmp::pipeline

int main(int argc, char** argv) {
  using namespace bgpcmp::pipeline;
  bgpcmp::exec::apply_thread_flag(argc, argv);
  RunConfig rc;
  std::string prepare;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      rc.smoke = true;
    } else if (arg == "--workload" && has_value) {
      rc.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      rc.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      rc.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      rc.trace = argv[++i];
    } else if (arg == "--snapshot" && has_value) {
      rc.snapshot = argv[++i];
    } else if (arg == "--prepare" && has_value) {
      prepare = argv[++i];
    } else {
      return usage();
    }
  }
  if (!prepare.empty()) {
    prepare_snapshot(prepare, rc.smoke);
    return 0;
  }

  RunResult (*run)(const RunConfig&) = nullptr;
  if (rc.workload == "fig1_1x") run = run_fig1;
  if (rc.workload == "study_30x") run = run_study_30x;
  if (rc.workload == "serve_10x") run = run_serve;
  if (rc.workload == "churn_10x") run = run_churn;
  const bool needs_snapshot = run == run_serve || run == run_churn;
  if (run == nullptr || (needs_snapshot && rc.snapshot.empty())) return usage();
  print_result(rc, run(rc));
  return 0;
}
