// Streaming Study 1 for worlds too large to materialize eagerly.
//
// run_pop_study holds the whole client base, the demand model, and a route
// table for every client origin resident at once; at 100x AS counts the
// warmed RouteCache alone is tens of gigabytes. The scale path replaces the
// resident world with bounded windows over it:
//
//   * ScaleWorld is a Scenario minus the client/demand materializations —
//     just the internet, the attached provider, and the congestion/latency
//     fields (whose memory is world-sized, not client-sized).
//
//   * run_scale_study streams the client population chunk by chunk
//     (traffic::ClientStream): each chunk warms a fresh RouteCache over only
//     its origins, plans and measures its pairs with the exact code the eager
//     study runs (core/pop_pair.h), folds the pair series into Fig-1 points
//     plus a per-chunk digest, and drops everything before the next chunk.
//     Peak memory is bounded by the chunk size knob while results stay
//     bit-identical to the eager study on the same world
//     (tests/core/scale_study_test.cpp pins fig1 quantiles and the
//     improvable fraction).
//
//   * Per-chunk results are pure in (world, config, chunk) and carry a
//     canonical merge line, so contiguous blocks of chunks (run_scale_block)
//     can run in different OS processes (`bgpcmp shard`) and merge back — in
//     chunk order — into a result byte-identical to the single-process run.
//     fingerprint() is the value the shard harness compares.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bgpcmp/core/scenario.h"
#include "bgpcmp/netbase/thread_annotations.h"
#include "bgpcmp/core/study_pop.h"
#include "bgpcmp/stats/cdf.h"
#include "bgpcmp/traffic/client_stream.h"

namespace bgpcmp::core {

/// The world a streaming study runs against: a Scenario without the eager
/// client base, demand model, or any per-client state. Memory scales with
/// the AS graph, never with the client population.
class ScaleWorld {
 public:
  BGPCMP_PHASE(build)
  static std::unique_ptr<ScaleWorld> make(const ScenarioConfig& config = {});

  /// Adopt a pre-built world (e.g. loaded from a topology snapshot) that
  /// does not yet contain the provider AS; attaches the provider exactly
  /// like a fresh build, so the result is byte-identical to make().
  BGPCMP_PHASE(build)
  static std::unique_ptr<ScaleWorld> adopt(ScenarioConfig config, topo::Internet world);

  ScaleWorld(const ScaleWorld&) = delete;
  ScaleWorld& operator=(const ScaleWorld&) = delete;

  topo::Internet internet;
  cdn::ContentProvider provider;
  lat::CongestionField congestion;
  lat::LatencyModel latency;
  ScenarioConfig config;

 private:
  ScaleWorld(ScenarioConfig cfg, topo::Internet world);
};

struct ScaleStudyConfig {
  PopStudyConfig study;  ///< same knobs (and draws) as the eager study
  /// Origins per chunk: bounds the per-chunk RouteCache and client window.
  std::size_t chunk_origins = 256;
};

/// Everything one chunk of the stream contributes to the study.
struct ScaleChunkResult {
  std::uint32_t chunk = 0;
  std::uint32_t pairs = 0;          ///< measurable pairs (>= 2 routes)
  std::uint64_t series_digest = 0;  ///< FNV-1a over the chunk's series bytes
  /// Fig-1 observations (diff, volume) in pair-major, window-minor order —
  /// the same order the eager fig1_cdf visits them.
  std::vector<stats::Weighted> fig1;

  /// Canonical one-line rendering; the shard merge fingerprint hashes these
  /// lines joined in chunk order.
  [[nodiscard]] std::string line() const;
};

struct ScaleStudyResult {
  std::vector<TimeWindow> windows;
  std::vector<ScaleChunkResult> chunks;  ///< global chunk order

  /// Fig 1 CDF over all chunks' observations, in the eager visit order.
  [[nodiscard]] stats::WeightedCdf fig1_cdf() const;
  /// §3.1 headline, bit-equal to PopStudyResult::improvable_traffic_fraction
  /// on the same world (same additions in the same order).
  [[nodiscard]] double improvable_traffic_fraction(double threshold_ms) const;
  /// FNV-1a over the joined chunk lines: the sharded-vs-unsharded pin.
  [[nodiscard]] std::uint64_t fingerprint() const;
  [[nodiscard]] std::size_t pair_count() const;
};

/// Run one chunk: warm a RouteCache over the chunk's origins, plan and
/// measure its pairs, fold the series into fig1 points and a digest. The
/// demand cursor must sit at the chunk's first prefix (skip() to it); it is
/// left at the chunk's end. Pure in (world, config, windows, chunk) — chunk
/// order, process boundaries, and thread width never change the bytes —
/// machine-checked as BGPCMP_PURE_CHUNK (detlint D9/D10).
BGPCMP_PURE_CHUNK
[[nodiscard]] ScaleChunkResult run_scale_chunk(const ScaleWorld& world,
                                               const ScaleStudyConfig& config,
                                               const std::vector<TimeWindow>& windows,
                                               const traffic::ClientStream& stream,
                                               traffic::DemandStream& demand,
                                               std::size_t chunk);

/// Run worker `index`'s contiguous block of the study's chunks
/// (shard_range over the chunk count, core/shard.h): one demand cursor
/// skipped to the block's first prefix, then streamed. Blocks concatenated
/// in worker order are the serial study's chunks, for any `shards`; a worker
/// past the chunk count gets an empty block.
[[nodiscard]] std::vector<ScaleChunkResult> run_scale_block(
    const ScaleWorld& world, const ScaleStudyConfig& config,
    const std::vector<TimeWindow>& windows, int shards, int index);

/// Run the full streaming study in this process: all chunks in order, peak
/// memory bounded by config.chunk_origins.
[[nodiscard]] ScaleStudyResult run_scale_study(const ScaleWorld& world,
                                               const ScaleStudyConfig& config = {});

}  // namespace bgpcmp::core
