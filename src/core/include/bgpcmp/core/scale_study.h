// Streaming Study 1 for worlds too large to materialize.
//
// run_pop_study holds the whole client base, the demand model, and every
// pair's series resident at once; at 100x AS counts that is millions of
// prefixes. The scale path runs the same study over bounded windows instead:
//
//   * It runs on ScaleWorld, the world core (core/scenario.h) that Scenario
//     extends with the materialized clients and demand — just the internet,
//     the attached provider, and the congestion/latency fields (whose memory
//     is world-sized, not client-sized).
//
//   * run_scale_study streams the client population chunk by chunk
//     (traffic::ClientStream): each chunk plans and measures its pairs with
//     run_pop_pairs (core/pop_pair.h) — the function run_pop_study calls on
//     the whole population — folds the pair series into Fig-1 points plus a
//     per-chunk digest, and drops everything before the next chunk. Peak
//     memory is bounded by the chunk size knob, and the chunk size never
//     changes a byte (tests/core/scale_study_test.cpp pins fig1 quantiles and
//     the improvable fraction against run_pop_study).
//
//   * Per-chunk results are pure in (world, config, chunk) and carry a
//     canonical merge line, so contiguous blocks of chunks (run_scale_block)
//     can run in different OS processes (`bgpcmp shard`) and merge back — in
//     chunk order — into a result byte-identical to the single-process run.
//     fingerprint() is the value the shard harness compares.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bgpcmp/core/scenario.h"
#include "bgpcmp/netbase/thread_annotations.h"
#include "bgpcmp/core/study_pop.h"
#include "bgpcmp/stats/cdf.h"
#include "bgpcmp/traffic/client_stream.h"

namespace bgpcmp::core {

struct ScaleStudyConfig {
  PopStudyConfig study;  ///< same knobs (and draws) as the eager study
  /// Origins per chunk: bounds the chunk's client window, plans and series.
  std::size_t chunk_origins = 256;
};

/// Everything one chunk of the stream contributes to the study.
struct ScaleChunkResult {
  std::uint32_t chunk = 0;
  std::uint32_t pairs = 0;          ///< measurable pairs (>= 2 routes)
  std::uint64_t series_digest = 0;  ///< FNV-1a over the chunk's series bytes
  /// Fig-1 observations (diff, volume) in pair-major, window-minor order —
  /// the same order PopStudyResult::fig1_cdf visits them.
  std::vector<stats::Weighted> fig1;

  /// Canonical one-line rendering; the shard merge fingerprint hashes these
  /// lines joined in chunk order.
  [[nodiscard]] std::string line() const;
};

struct ScaleStudyResult {
  std::vector<TimeWindow> windows;
  std::vector<ScaleChunkResult> chunks;  ///< global chunk order

  /// Fig 1 CDF over all chunks' observations, in PopStudyResult's visit order.
  [[nodiscard]] stats::WeightedCdf fig1_cdf() const;
  /// §3.1 headline, bit-equal to PopStudyResult::improvable_traffic_fraction
  /// on the same world (same additions in the same order).
  [[nodiscard]] double improvable_traffic_fraction(double threshold_ms) const;
  /// FNV-1a over the joined chunk lines: the sharded-vs-unsharded pin.
  [[nodiscard]] std::uint64_t fingerprint() const;
  [[nodiscard]] std::size_t pair_count() const;
};

/// Run one chunk: plan and measure its pairs (run_pop_pairs), fold the
/// series into fig1 points and a digest. The demand cursor must sit at the
/// chunk's first prefix (skip() to it); it is left at the chunk's end. Pure in (world, config, windows, chunk) — chunk
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
