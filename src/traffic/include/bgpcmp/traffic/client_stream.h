// Streaming client/demand generation for worlds too large to materialize.
//
// ClientBase::generate holds every client prefix of the world resident; at
// 100x AS counts that is hundreds of thousands of prefixes per study and the
// per-window memory of a study scales with the world. The streaming layer
// replaces the eager materialization with a chunked, deterministic generator:
//
//   * ClientStream partitions the eager generation order (eyeballs, then
//     stubs) into fixed-size origin chunks. Each origin's prefixes are drawn
//     from Rng::fork("clients-<as>") exactly like the eager path, and prefix
//     ids come from a precomputed prefix-sum over deterministic per-origin
//     counts — so any chunk can be generated in isolation (any order, any
//     process) and the concatenation of all chunks is byte-identical to
//     ClientBase::generate. tests/traffic/client_stream_test.cpp pins the
//     golden digests at 1x and 4x.
//
//   * DemandStream replays DemandModel's per-prefix popularity draws as a
//     sequential cursor: the draws come from one serial Rng stream, so the
//     cursor carries the engine forward and holds only the current chunk's
//     values. skip() advances over prefixes another shard owns by drawing and
//     discarding — O(prefixes) time, O(1) memory — which is what lets a
//     multi-process shard start mid-stream and still reproduce the eager
//     popularity bytes.
//
// Studies consume both through bounded windows (core/scale_study.h): per-chunk
// memory stays flat while client counts reach millions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgpcmp/netbase/thread_annotations.h"
#include "bgpcmp/traffic/clients.h"
#include "bgpcmp/traffic/demand.h"

namespace bgpcmp::traffic {

/// One bounded window of the client population: the prefixes of a contiguous
/// origin range, with their global prefix ids.
struct ClientChunk {
  std::size_t index = 0;        ///< chunk number within the stream
  PrefixId first_prefix = 0;    ///< global id of prefixes.front()
  std::vector<ClientPrefix> prefixes;

  /// Global id of the i-th prefix in this chunk.
  [[nodiscard]] PrefixId id(std::size_t i) const {
    return first_prefix + static_cast<PrefixId>(i);
  }
};

/// Chunked generator over the eager client-generation order. Construction
/// walks only the origin lists (no prefix is materialized); chunk() generates
/// one bounded window at a time.
class ClientStream {
 public:
  /// `chunk_origins` bounds resident state: a chunk holds the prefixes of at
  /// most that many origin ASes (and a streaming study computes at most that
  /// many Adj-RIB-ins per chunk).
  ClientStream(const Internet* internet, const ClientBaseConfig& config,
               std::size_t chunk_origins = 256);

  /// Total prefixes the full stream yields == ClientBase::generate().size().
  [[nodiscard]] std::size_t total_prefixes() const { return total_; }
  /// Origin ASes contributing prefixes (eyeballs + optionally stubs).
  [[nodiscard]] std::size_t origin_count() const { return origins_.size(); }
  [[nodiscard]] std::size_t chunk_origins() const { return chunk_origins_; }
  [[nodiscard]] std::size_t chunk_count() const;

  /// Generate chunk `c`. Pure: depends only on (internet, config, c), never
  /// on which chunks were generated before — the purity multi-process shards
  /// rely on, machine-checked as BGPCMP_PURE_CHUNK (detlint D9/D10).
  BGPCMP_PURE_CHUNK
  [[nodiscard]] ClientChunk chunk(std::size_t c) const;

  /// The origin ASes of chunk `c`, without generating the prefixes (what a
  /// per-chunk route warm or RIB pass needs to know up front).
  [[nodiscard]] std::vector<AsIndex> chunk_origin_ases(std::size_t c) const;

  /// Global prefix-id range [first, first + count) of chunk `c`.
  [[nodiscard]] std::pair<PrefixId, std::uint32_t> chunk_prefix_range(
      std::size_t c) const;

 private:
  /// One origin's deterministic slice of the stream.
  struct OriginSpan {
    AsIndex as = topo::kNoAs;
    std::uint32_t first_prefix = 0;  ///< prefix-sum offset
    std::uint16_t per_city = 1;      ///< prefixes per city of presence
  };

  const Internet* internet_;
  ClientBaseConfig config_;
  std::size_t chunk_origins_;
  std::vector<OriginSpan> origins_;  ///< eager order: eyeballs, then stubs
  std::size_t total_ = 0;
};

/// Sequential cursor over DemandModel's per-prefix popularity stream. The
/// eager model draws one heavy-tail factor per prefix from a single serial
/// Rng; the cursor reproduces those draws exactly while holding only the
/// requested window.
class DemandStream {
 public:
  explicit DemandStream(const DemandConfig& config);

  /// Popularity of each prefix in `chunk`, advancing the cursor past them.
  /// The cursor must currently sit at chunk.first_prefix (skip() to it).
  [[nodiscard]] std::vector<double> next(const ClientChunk& chunk);

  /// Advance the cursor over `n` prefixes without keeping their values:
  /// draws are replayed and discarded so a shard entering mid-stream sees
  /// the same bytes the eager model produced.
  void skip(std::size_t n);

  /// Prefixes consumed so far (== the global id the cursor sits at).
  [[nodiscard]] std::size_t position() const { return position_; }

 private:
  /// The next prefix's heavy-tail skew factor (one serial draw).
  double draw();

  DemandConfig config_;
  Rng rng_;
  std::size_t position_ = 0;
};

}  // namespace bgpcmp::traffic
