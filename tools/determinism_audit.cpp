// determinism_audit — the reproducibility gate.
//
// Builds every registered scenario twice from the same config and compares
// the FNV-1a hash of all emitted result tables. Any divergence means the
// model leaked nondeterminism (unordered-container iteration order, pointer
// keys, uninitialized reads, wall-clock time, an unseeded RNG) and fails the
// audit. scripts/check.sh and CI run this; parallelism PRs must keep it green.
//
//   determinism_audit                 audit the whole registry
//   determinism_audit --list          list registered scenarios
//   determinism_audit --scenario X    audit one scenario
//   determinism_audit --skip-studies  world tables only (fast)
//   determinism_audit --dump DIR      write per-run tables for diffing
//   determinism_audit --threads N     size the exec pool for both runs
//   determinism_audit --compare-threads N
//                                     render run 1 with a 1-thread pool and
//                                     run 2 with an N-thread pool: any
//                                     divergence means parallel code leaked
//                                     scheduling into results
//   determinism_audit --shards N      render run 1 in-process and run 2 in N
//                                     forked worker processes (contiguous
//                                     registry blocks, merged in registry
//                                     order): any divergence means results
//                                     depend on which process computes them.
//                                     --scenario narrows it like any mode;
//                                     --compare-threads and --dump do not
//                                     combine with it (exit 2)
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bgpcmp/core/fingerprint.h"
#include "bgpcmp/core/scenario_registry.h"
#include "bgpcmp/core/shard.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/stats/table.h"
#include "shard_util.h"

using namespace bgpcmp;

namespace {

void dump(const std::string& dir, std::string_view scenario, int run,
          const std::string& tables) {
  const std::string path =
      dir + "/" + std::string(scenario) + ".run" + std::to_string(run) + ".txt";
  std::ofstream out{path};
  out << tables;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

core::FingerprintOptions options_for(const core::RegisteredScenario& s,
                                     bool skip_studies) {
  core::FingerprintOptions options;
  options.run_studies = s.fingerprint_studies && !skip_studies;
  options.topology_only = s.topology_only;
  options.churn = s.churn;
  options.serving = s.serving;
  return options;
}

/// The audited units: the registry in order, or just the --scenario one.
using Units = std::vector<const core::RegisteredScenario*>;

Units audit_units(const std::string& only) {
  Units units;
  for (const auto& s : core::scenario_registry()) {
    if (only.empty() || s.name == only) units.push_back(&s);
  }
  return units;
}

std::string hex16(std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

/// One unit's "name hash" line: what a shard worker writes, what the
/// in-process pass renders to compare against, and what the merge hashes.
std::string unit_line(const core::RegisteredScenario& s, bool skip_studies) {
  return std::string(s.name) + " " +
         hex16(core::scenario_fingerprint(s.config(), options_for(s, skip_studies)));
}

/// --shards worker: this worker's block of unit lines into --shard-out.
int run_shard_worker(const Units& units, int shards, int worker,
                     const std::string& out_path, bool skip_studies) {
  const auto range = core::shard_range(units.size(), shards, worker);
  std::ofstream out{out_path, std::ios::binary};
  for (std::size_t i = range.begin; i < range.end; ++i) {
    out << unit_line(*units[i], skip_studies) << '\n';
  }
  out.flush();
  return out ? 0 : 2;
}

/// --shards parent: run 1 in this process, run 2 across forked workers.
int run_sharded_audit(const Units& units, int shards, bool skip_studies,
                      const std::string& only) {
  std::vector<std::string> local;
  for (const auto* s : units) local.push_back(unit_line(*s, skip_studies));

  const auto run = tools::run_shards(shards, "audit", [&](int w, const std::string& out) {
    std::vector<std::string> argv{tools::self_exe(), "--shard-worker", std::to_string(w),
                                  "--shards", std::to_string(shards), "--shard-out", out};
    if (skip_studies) argv.emplace_back("--skip-studies");
    if (!only.empty()) argv.insert(argv.end(), {"--scenario", only});
    return argv;
  });
  for (const int w : run.failed) {
    const auto range = core::shard_range(units.size(), shards, w);
    std::string names;
    for (std::size_t i = range.begin; i < range.end; ++i) {
      names += " " + std::string(units[i]->name);
    }
    std::fprintf(stderr, "worker %d of %d owned:%s\n", w, shards,
                 names.empty() ? " no scenarios" : names.c_str());
  }
  if (!run.failed.empty()) return 1;
  std::vector<std::string> sharded;
  for (const auto& text : run.outputs) {
    std::istringstream in{text};
    for (std::string line; std::getline(in, line);) sharded.push_back(line);
  }
  if (sharded.size() != units.size()) {
    std::fprintf(stderr, "sharded run produced %zu of %zu scenarios\n",
                 sharded.size(), units.size());
    return 1;
  }

  std::printf("comparing in-process run vs %d worker processes\n", shards);
  stats::Table report{{"scenario", "in-process", "sharded", "verdict"}};
  int failures = 0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    const bool ok = local[i] == sharded[i];
    if (!ok) ++failures;
    report.add_row({std::string(units[i]->name),
                    local[i].substr(local[i].find(' ') + 1),
                    sharded[i].substr(sharded[i].find(' ') + 1),
                    ok ? "deterministic" : "DIVERGED"});
  }
  std::fputs(report.render().c_str(), stdout);
  std::printf("merged %s (in-process) vs %s (%d shards)\n",
              hex16(core::merge_fingerprint(local)).c_str(),
              hex16(core::merge_fingerprint(sharded)).c_str(), shards);
  if (failures > 0) {
    std::fprintf(stderr, "\n%d scenario(s) diverged across the process boundary\n",
                 failures);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  exec::apply_thread_flag(argc, argv);
  bool skip_studies = false;
  int compare_threads = 0;  // 0: same pool for both runs
  int shards = 0;           // > 0: compare in-process vs forked workers
  int shard_worker = -1;    // >= 0: this process is a shard worker
  std::string shard_out;
  std::string only;
  std::string dump_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      for (const auto& s : core::scenario_registry()) {
        std::printf("%-16s %s\n", std::string(s.name).c_str(),
                    std::string(s.description).c_str());
      }
      return 0;
    }
    if (arg == "--skip-studies") {
      skip_studies = true;
    } else if (arg == "--scenario" && i + 1 < argc) {
      only = argv[++i];
    } else if (arg == "--dump" && i + 1 < argc) {
      dump_dir = argv[++i];
    } else if (arg == "--compare-threads" && i + 1 < argc) {
      compare_threads = std::atoi(argv[++i]);
      if (compare_threads < 2) {
        std::fprintf(stderr, "--compare-threads needs an integer >= 2\n");
        return 2;
      }
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = std::atoi(argv[++i]);
      if (shards < 2 && shard_worker < 0) {
        std::fprintf(stderr, "--shards needs an integer >= 2\n");
        return 2;
      }
    } else if (arg == "--shard-worker" && i + 1 < argc) {
      shard_worker = std::atoi(argv[++i]);
    } else if (arg == "--shard-out" && i + 1 < argc) {
      shard_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: determinism_audit [--list] [--scenario NAME] "
                   "[--skip-studies] [--dump DIR] [--threads N] "
                   "[--compare-threads N] [--shards N]\n");
      return 2;
    }
  }
  if (!only.empty() && core::find_scenario(only) == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (try --list)\n", only.c_str());
    return 2;
  }
  const auto units = audit_units(only);
  if (shard_worker >= 0) {
    if (shards < 1 || shard_worker >= shards || shard_out.empty()) {
      std::fprintf(stderr, "--shard-worker needs --shards and --shard-out\n");
      return 2;
    }
    return run_shard_worker(units, shards, shard_worker, shard_out, skip_studies);
  }
  if (shards > 0) {
    if (compare_threads > 0 || !dump_dir.empty()) {
      std::fprintf(stderr, "--shards does not combine with --compare-threads or --dump\n");
      return 2;
    }
    return run_sharded_audit(units, shards, skip_studies, only);
  }

  if (compare_threads > 0) {
    std::printf("comparing runs at threads=1 vs threads=%d\n", compare_threads);
  }
  stats::Table report{{"scenario", "studies", "run 1", "run 2", "verdict"}};
  int failures = 0;
  for (const auto* unit : units) {
    const auto& s = *unit;
    const auto options = options_for(s, skip_studies);
    const auto config = s.config();
    if (compare_threads > 0) exec::set_thread_count(1);
    const auto tables1 = core::render_result_tables(config, options);
    if (compare_threads > 0) exec::set_thread_count(compare_threads);
    const auto tables2 = core::render_result_tables(config, options);
    const bool ok = tables1 == tables2;
    if (!ok) ++failures;
    if (!dump_dir.empty()) {
      dump(dump_dir, s.name, 1, tables1);
      dump(dump_dir, s.name, 2, tables2);
    }
    const char* studies =
        s.serving
            ? "serving"
            : (s.churn ? "churn"
                       : (s.topology_only ? "topo"
                                          : (options.run_studies ? "yes" : "no")));
    report.add_row({std::string(s.name), studies, hex16(core::fnv1a64(tables1)),
                    hex16(core::fnv1a64(tables2)),
                    ok ? "deterministic" : "DIVERGED"});
  }
  std::fputs(report.render().c_str(), stdout);
  if (failures > 0) {
    std::fprintf(stderr, "\n%d scenario(s) diverged between identical runs\n",
                 failures);
    return 1;
  }
  return 0;
}
