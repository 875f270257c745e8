#include "bgpcmp/core/scale_study.h"

#include <cinttypes>
#include <cstdio>
#include <utility>
#include <vector>

#include "bgpcmp/core/fingerprint.h"
#include "bgpcmp/core/pop_pair.h"
#include "bgpcmp/core/shard.h"
#include "bgpcmp/netbase/check.h"

namespace bgpcmp::core {

namespace {

void append_raw(std::string& out, const void* data, std::size_t n) {
  out.append(static_cast<const char*>(data), n);
}

/// Canonical bytes of one measured series: every field, raw, so the digest
/// pins the series bit-for-bit across chunk sizes, shard counts, and
/// processes.
void append_series(std::string& out, const PopPrefixSeries& s) {
  append_raw(out, &s.pop, sizeof s.pop);
  append_raw(out, &s.prefix, sizeof s.prefix);
  for (const EgressRouteInfo& r : s.routes) {
    append_raw(out, &r.neighbor, sizeof r.neighbor);
    append_raw(out, &r.role, sizeof r.role);
    append_raw(out, &r.kind, sizeof r.kind);
    append_raw(out, &r.link, sizeof r.link);
    append_raw(out, &r.as_path_len, sizeof r.as_path_len);
  }
  if (!s.volume.empty()) {
    append_raw(out, s.volume.data(), s.volume.size() * sizeof(float));
  }
  for (const auto& route_medians : s.medians) {
    append_raw(out, route_medians.data(), route_medians.size() * sizeof(float));
  }
  if (!s.ci_lower.empty()) {
    append_raw(out, s.ci_lower.data(), s.ci_lower.size() * sizeof(float));
    append_raw(out, s.ci_upper.data(), s.ci_upper.size() * sizeof(float));
  }
}

}  // namespace

std::string ScaleChunkResult::line() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "chunk %" PRIu32 " pairs %" PRIu32
                                 " digest %016" PRIx64 " points %zu",
                chunk, pairs, series_digest, fig1.size());
  return buf;
}

ScaleChunkResult run_scale_chunk(const ScaleWorld& world,
                                 const ScaleStudyConfig& config,
                                 const std::vector<TimeWindow>& windows,
                                 const traffic::ClientStream& stream,
                                 traffic::DemandStream& demand, std::size_t chunk) {
  const traffic::ClientChunk window = stream.chunk(chunk);
  const std::vector<double> popularity = demand.next(window);
  const std::vector<PopPrefixSeries> series =
      run_pop_pairs(world, window.prefixes, window.first_prefix, popularity, windows,
                    config.study);

  ScaleChunkResult out;
  out.chunk = static_cast<std::uint32_t>(chunk);
  out.pairs = static_cast<std::uint32_t>(series.size());
  std::string bytes;
  for (const PopPrefixSeries& s : series) {
    append_series(bytes, s);
    for (std::size_t w = 0; w < windows.size(); ++w) {
      out.fig1.push_back({static_cast<double>(s.diff(w)),
                          static_cast<double>(s.volume[w])});
    }
  }
  out.series_digest = fnv1a64(bytes);
  return out;
}

std::vector<ScaleChunkResult> run_scale_block(const ScaleWorld& world,
                                              const ScaleStudyConfig& config,
                                              const std::vector<TimeWindow>& windows,
                                              int shards, int index) {
  const traffic::ClientStream stream{&world.internet, world.config.clients,
                                     config.chunk_origins};
  const ShardRange range = shard_range(stream.chunk_count(), shards, index);
  std::vector<ScaleChunkResult> chunks;
  if (range.empty()) return chunks;
  traffic::DemandStream demand{world.config.demand};
  demand.skip(stream.chunk_prefix_range(range.begin).first);
  chunks.reserve(range.size());
  for (std::size_t c = range.begin; c < range.end; ++c) {
    chunks.push_back(run_scale_chunk(world, config, windows, stream, demand, c));
  }
  return chunks;
}

ScaleStudyResult run_scale_study(const ScaleWorld& world,
                                 const ScaleStudyConfig& config) {
  ScaleStudyResult result;
  result.windows = study_windows(config.study);
  result.chunks = run_scale_block(world, config, result.windows, 1, 0);
  return result;
}

stats::WeightedCdf ScaleStudyResult::fig1_cdf() const {
  std::size_t count = 0;
  for (const auto& chunk : chunks) count += chunk.fig1.size();
  std::vector<stats::Weighted> obs;
  obs.reserve(count);
  for (const auto& chunk : chunks) obs.insert(obs.end(), chunk.fig1.begin(), chunk.fig1.end());
  return stats::WeightedCdf{std::move(obs)};
}

double ScaleStudyResult::improvable_traffic_fraction(double threshold_ms) const {
  // One flat pass in global pair order: the identical addition sequence to
  // PopStudyResult::improvable_traffic_fraction, so the fractions are
  // bit-equal, not merely close.
  double improvable = 0.0;
  double total = 0.0;
  for (const auto& chunk : chunks) {
    for (const auto& obs : chunk.fig1) {
      total += obs.weight;
      if (obs.value >= threshold_ms) improvable += obs.weight;
    }
  }
  return total > 0.0 ? improvable / total : 0.0;
}

std::uint64_t ScaleStudyResult::fingerprint() const {
  std::string joined;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    BGPCMP_CHECK_EQ(chunks[c].chunk, c, "scale study chunks out of order");
    joined += chunks[c].line();
    joined += '\n';
  }
  return fnv1a64(joined);
}

std::size_t ScaleStudyResult::pair_count() const {
  std::size_t pairs = 0;
  for (const auto& chunk : chunks) pairs += chunk.pairs;
  return pairs;
}

}  // namespace bgpcmp::core
