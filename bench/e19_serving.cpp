// E19: the resident serving layer — cold start and sustained query rate.
//
// Cold start contrasts the two ways a server comes up warm: BM_ColdStartRebuild
// generates the world and recomputes every warmed route table from scratch;
// BM_ColdStartSnapshot replays a serving snapshot (core/snapshot.h) and
// installs the stored tables. The 1x/10x args sweep world scale; the 10x gap
// is the headline number in BENCH_serving.json. The snapshot file is written
// once per scale outside the timed loop — serving it is the steady state, not
// writing it.
//
// BM_ServeQueries drives one generated batch through QueryServer at pool
// widths 1..8 and reports items/s (queries per second). On the single-CPU
// reference container widths >1 mostly measure dispatch overhead; the
// byte-identity of answers across widths is pinned by tests/core/serving_test
// and the serving_default audit scenario, not here.
//
// google-benchmark owns all timing, so the model and tools stay free of
// wall-clock reads (detlint R4 and D4).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <map>
#include <string>

#include "bgpcmp/core/serving.h"
#include "bgpcmp/exec/thread_pool.h"
#include "rss_probe.h"

namespace {

using namespace bgpcmp;

core::ScenarioConfig scaled_config(std::int64_t scale) {
  core::ScenarioConfig cfg;
  const auto mult = static_cast<std::size_t>(scale);
  cfg.internet.tier1_count *= mult;
  cfg.internet.transit_count *= mult;
  cfg.internet.eyeball_count *= mult;
  cfg.internet.stub_count *= mult;
  return cfg;
}

core::ServingConfig bench_serving() {
  core::ServingConfig serving;
  serving.warm_origins = 64;
  return serving;
}

/// One snapshot per scale, written outside the timed loops and reused.
const std::string& ensure_snapshot(std::int64_t scale) {
  static std::map<std::int64_t, std::string> paths;
  auto it = paths.find(scale);
  if (it == paths.end()) {
    const char* tmpdir = std::getenv("TMPDIR");
    const std::string path =
        std::string(tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp") +
        "/bgpcmp_e19_" + std::to_string(scale) + "x.snap";
    core::ServingWorld::build(scaled_config(scale), bench_serving())->save(path);
    it = paths.emplace(scale, path).first;
  }
  return it->second;
}

// The cost a snapshot avoids: topology generation, provider attachment,
// client generation, and warming all tables.
void BM_ColdStartRebuild(benchmark::State& state) {
  const auto cfg = scaled_config(state.range(0));
  for (auto _ : state) {
    const auto world = core::ServingWorld::build(cfg, bench_serving());
    benchmark::DoNotOptimize(world->warmed().size());
  }
  benchutil::report_peak_rss(state);
}
BENCHMARK(BM_ColdStartRebuild)->Arg(1)->Arg(10)->Unit(benchmark::kMillisecond);

// Snapshot replay: mmap-or-read, verify, replay the graph through its
// mutators, install the stored tables. Same warmed state as the rebuild —
// the serving tests pin byte-identical answers.
void BM_ColdStartSnapshot(benchmark::State& state) {
  const auto cfg = scaled_config(state.range(0));
  const std::string& path = ensure_snapshot(state.range(0));
  for (auto _ : state) {
    const auto world = core::ServingWorld::load(path, cfg);
    benchmark::DoNotOptimize(world->warmed().size());
  }
  benchutil::report_peak_rss(state);
}
BENCHMARK(BM_ColdStartSnapshot)->Arg(1)->Arg(10)->Unit(benchmark::kMillisecond);

// Sustained serving rate: one warm world, one generated batch, answered
// repeatedly at pool width Arg. items/s is queries per second.
void BM_ServeQueries(benchmark::State& state) {
  static const auto world =
      core::ServingWorld::build(core::ScenarioConfig{}, bench_serving());
  static const auto queries = world->generate_queries(/*count=*/512, /*seed=*/2026);
  exec::ThreadPool pool{static_cast<int>(state.range(0))};
  const core::QueryServer server{world.get(), &pool};
  for (auto _ : state) {
    const auto answers = server.answer_batch(queries);
    benchmark::DoNotOptimize(answers.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_ServeQueries)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
