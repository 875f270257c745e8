// E20: the scale trajectory — wall-clock and peak RSS at 10x/30x/100x.
//
// Four phases, each a benchmark family swept over world scale (the Arg
// multiplies every AS-class count, so 100x is a ~36,800-AS internet):
//
//   BM_BuildWorld      generate the world and attach the provider
//                      (core::ScaleWorld::make — no client materialization).
//   BM_SnapshotLoad    the warm-start alternative: load a world-only
//                      snapshot (topo::load_world_snapshot) and adopt it.
//                      The snapshot is written once per scale, untimed.
//   BM_StudyWindowStream  one 15-minute study window via the streaming
//                      study (core/scale_study.h): peak memory is bounded
//                      by chunk_origins, not by the client population.
//   BM_StudyWindowEager   the same window through the eager run_pop_study
//                      on a full Scenario — the resident-memory baseline
//                      the streaming path exists to beat (it holds the
//                      whole client base and every pair's series).
//   BM_ShardedRun      the end-to-end multi-process run: two forked
//                      workers (tools::run_shards, the harness `bgpcmp
//                      shard` uses) each build the world, run their block
//                      of chunks (core::run_scale_block), and write the wire
//                      format; the parent merges and fingerprints. Same
//                      bytes as the serial run —
//                      pinned by tests/core/shard_test.cpp and `bgpcmp
//                      shard --check`, not here.
//
// Peak RSS comes from bench/rss_probe.h (getrusage high-water mark). It is
// process-monotone, so BENCH_scale.json numbers are collected by running
// each family in its own process: scripts/bench_scale.sh drives
// --benchmark_filter per (family, scale) and scrapes the counters.
//
// google-benchmark owns all timing, so the model and tools stay free of
// wall-clock reads (detlint R4 and D4).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bgpcmp/core/scale_study.h"
#include "bgpcmp/core/scenario.h"
#include "bgpcmp/core/shard.h"
#include "bgpcmp/core/study_pop.h"
#include "bgpcmp/netbase/parse.h"
#include "bgpcmp/topology/topology_gen.h"
#include "bgpcmp/topology/world_snapshot.h"
#include "../tools/shard_util.h"
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

/// One evaluated 15-minute window (0.011 days ≈ 15.8 simulated minutes),
/// streamed at the default chunk size. Shared by the stream, eager, and
/// sharded phases and by the --scale-worker mode, so all four study phases
/// do the identical simulated work.
core::ScaleStudyConfig bench_study() {
  core::ScaleStudyConfig cfg;
  cfg.study.days = 0.011;
  cfg.chunk_origins = 256;
  return cfg;
}

/// One resident world per scale — single-entry cache so a later scale's RSS
/// reading never includes an earlier scale's world.
const core::ScaleWorld& ensure_world(std::int64_t scale) {
  static std::int64_t cached = -1;
  static std::unique_ptr<core::ScaleWorld> world;
  if (cached != scale) {
    world.reset();  // free the old world before building the new one
    world = core::ScaleWorld::make(scaled_config(scale));
    cached = scale;
  }
  return *world;
}

/// One world-only snapshot per scale, written outside the timed loops.
const std::string& ensure_snapshot(std::int64_t scale) {
  static std::int64_t cached = -1;
  static std::string path;
  if (cached != scale) {
    const char* tmpdir = std::getenv("TMPDIR");
    path = std::string(tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp") +
           "/bgpcmp_e20_" + std::to_string(scale) + "x.snap";
    const auto cfg = scaled_config(scale);
    topo::save_world_snapshot(path, topo::build_internet(cfg.internet),
                              cfg.internet);
    cached = scale;
  }
  return path;
}

// Cold build: topology generation plus provider attachment. The client
// population is never materialized, so this is the fixed cost every process
// (serial or shard worker) pays before streaming.
void BM_BuildWorld(benchmark::State& state) {
  const auto cfg = scaled_config(state.range(0));
  for (auto _ : state) {
    const auto world = core::ScaleWorld::make(cfg);
    benchmark::DoNotOptimize(world->internet.graph.as_count());
  }
  benchutil::report_peak_rss(state);
}
BENCHMARK(BM_BuildWorld)->Arg(10)->Arg(30)->Arg(100)->Unit(benchmark::kMillisecond);

// Warm start: replay the world section and attach the provider. What a shard
// worker would pay instead of BM_BuildWorld once snapshots are staged.
void BM_SnapshotLoad(benchmark::State& state) {
  const auto cfg = scaled_config(state.range(0));
  const std::string& path = ensure_snapshot(state.range(0));
  for (auto _ : state) {
    const auto world = core::ScaleWorld::adopt(
        cfg, topo::load_world_snapshot(path, cfg.internet));
    benchmark::DoNotOptimize(world->internet.graph.as_count());
  }
  benchutil::report_peak_rss(state);
}
BENCHMARK(BM_SnapshotLoad)->Arg(10)->Arg(30)->Arg(100)->Unit(benchmark::kMillisecond);

// One study window, streaming: per-chunk client window, plans and series only.
// The reported peak includes the resident world (build happens in this
// process) — the honest comparator, since the eager study holds it too.
void BM_StudyWindowStream(benchmark::State& state) {
  const auto& world = ensure_world(state.range(0));
  const auto cfg = bench_study();
  for (auto _ : state) {
    const auto result = core::run_scale_study(world, cfg);
    benchmark::DoNotOptimize(result.fingerprint());
  }
  benchutil::report_peak_rss(state);
}
BENCHMARK(BM_StudyWindowStream)->Arg(10)->Arg(30)->Arg(100)->Unit(benchmark::kMillisecond);

// The same window through the eager study: whole client base, demand model,
// and every pair's plan and series resident at once. BENCH_scale.json's
// numbers predate bgp::adj_rib_in, when this study also held a warmed route
// table per origin and its RSS grew with origins x as_count (~scale^2).
void BM_StudyWindowEager(benchmark::State& state) {
  static std::int64_t cached = -1;
  static std::unique_ptr<core::Scenario> scenario;
  if (cached != state.range(0)) {
    scenario.reset();
    scenario = core::Scenario::make(scaled_config(state.range(0)));
    cached = state.range(0);
  }
  const auto cfg = bench_study();
  for (auto _ : state) {
    const auto result = core::run_pop_study(*scenario, cfg.study);
    benchmark::DoNotOptimize(result.series.size());
  }
  benchutil::report_peak_rss(state);
}
BENCHMARK(BM_StudyWindowEager)->Arg(10)->Arg(30)->Arg(100)->Unit(benchmark::kMillisecond);

// End-to-end sharded run: fork/exec two --scale-worker copies of this
// binary, each builds the world and streams its contiguous chunk block,
// parent merges the wire format and fingerprints. worker_peak_rss_mb is the
// max over worker processes — at scale it should sit near
// BM_StudyWindowStream's peak, not the eager study's.
void BM_ShardedRun(benchmark::State& state) {
  constexpr int kShards = 2;
  const auto scale = std::to_string(state.range(0));
  const auto windows = core::study_windows(bench_study().study);
  for (auto _ : state) {
    const auto run = tools::run_shards(kShards, "e20", [&](int w, const std::string& out) {
      return std::vector<std::string>{tools::self_exe(), "--scale-worker", std::to_string(w),
                                      "--scale-shards", std::to_string(kShards),
                                      "--scale", scale, "--scale-out", out};
    });
    if (!run.failed.empty()) {
      state.SkipWithError("shard worker failed");
      return;
    }
    std::string wire;
    for (const auto& text : run.outputs) wire += text;
    auto chunks = core::decode_scale_chunks(wire);
    std::uint32_t chunk_count = 0;
    for (const auto& c : chunks) chunk_count = std::max(chunk_count, c.chunk + 1);
    const auto merged =
        core::merge_scale_chunks(std::move(chunks), chunk_count, windows);
    benchmark::DoNotOptimize(merged.fingerprint());
  }
  benchutil::report_peak_rss(state);
  benchutil::report_child_peak_rss(state);
}
BENCHMARK(BM_ShardedRun)->Arg(10)->Arg(30)->Arg(100)->Unit(benchmark::kMillisecond);

/// --scale-worker mode: build the world, run one contiguous block of chunks
/// (core::run_scale_block, as `bgpcmp shard`'s worker does), and write the
/// wire format to --scale-out — with E20's fixed study config, so the
/// benchmark measures exactly the phases it names.
int run_scale_worker(int argc, char** argv) {
  std::optional<int> worker;
  std::optional<int> shards;
  std::optional<std::int64_t> scale = 1;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale-worker" && i + 1 < argc) {
      worker = parse_number<int>(argv[++i]);
    } else if (arg == "--scale-shards" && i + 1 < argc) {
      shards = parse_number<int>(argv[++i]);
    } else if (arg == "--scale" && i + 1 < argc) {
      scale = parse_number<std::int64_t>(argv[++i]);
    } else if (arg == "--scale-out" && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  if (!worker || !shards || !scale || *worker < 0 || *shards < 1 || *worker >= *shards ||
      *scale < 1 || out_path.empty()) {
    std::fprintf(stderr, "bad --scale-worker invocation\n");
    return 2;
  }
  const auto world = core::ScaleWorld::make(scaled_config(*scale));
  const auto cfg = bench_study();
  std::ofstream out{out_path, std::ios::binary};
  for (const auto& chunk : core::run_scale_block(*world, cfg, core::study_windows(cfg.study),
                                                 *shards, *worker)) {
    out << core::encode_scale_chunk(chunk);
  }
  out.flush();
  return out ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--scale-worker") {
      return run_scale_worker(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
