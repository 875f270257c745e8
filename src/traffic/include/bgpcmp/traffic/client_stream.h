// The client/demand generator, chunked so worlds too large to materialize
// can still be studied.
//
// At 100x AS counts the client population is hundreds of thousands of
// prefixes per study, and a study that holds it resident scales its memory
// with the world. This layer is the one generator of that population; it
// yields it in bounded windows:
//
//   * ClientStream partitions the generation order (eyeballs, then stubs)
//     into fixed-size origin chunks. Each origin's prefixes are drawn from
//     Rng::fork("clients-<as>"), and prefix ids come from a precomputed
//     prefix-sum over deterministic per-origin counts, so any chunk can be
//     generated in isolation (any order, any process) and the concatenation
//     of all chunks is the same population for every chunk size.
//     ClientBase::generate is one whole-population chunk.
//     tests/traffic/client_stream_test.cpp pins the bytes at 1x and 4x.
//
//   * DemandStream draws the per-prefix popularities as a sequential cursor:
//     the draws come from one serial Rng stream, so the cursor carries the
//     engine forward and holds only the current chunk's values. skip()
//     advances over prefixes another shard owns by drawing and discarding —
//     O(prefixes) time, O(1) memory — which is what lets a multi-process
//     shard start mid-stream and still reproduce every popularity byte.
//     DemandModel is one whole-population draw.
//
// Studies consume both through bounded windows (core/scale_study.h): per-chunk
// memory stays flat while client counts reach millions.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
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

/// Chunked generator over the client-generation order. Construction walks
/// only the origin lists (no prefix is materialized); chunk() generates one
/// bounded window at a time.
class ClientStream {
 public:
  /// `chunk_origins` bounds resident state: a chunk holds the prefixes of at
  /// most that many origin ASes (and a streaming study computes at most that
  /// many Adj-RIB-ins per chunk). Any value up to SIZE_MAX is valid; 0 is
  /// read as 1.
  ClientStream(const Internet* internet, const ClientBaseConfig& config,
               std::size_t chunk_origins = 256);

  /// Total prefixes the full stream yields.
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
  /// Origin indices [begin, end) of chunk `c`.
  [[nodiscard]] std::pair<std::size_t, std::size_t> origin_range(std::size_t c) const;

  /// One origin's deterministic slice of the stream.
  struct OriginSpan {
    AsIndex as = topo::kNoAs;
    std::uint32_t first_prefix = 0;  ///< prefix-sum offset
    std::uint16_t per_city = 1;      ///< prefixes per city of presence
  };

  const Internet* internet_;
  ClientBaseConfig config_;
  std::size_t chunk_origins_;
  std::vector<OriginSpan> origins_;  ///< generation order: eyeballs, then stubs
  std::size_t total_ = 0;
};

/// Sequential cursor over the per-prefix popularity stream: one heavy-tail
/// factor per prefix from a single serial Rng, holding only the requested
/// window.
class DemandStream {
 public:
  explicit DemandStream(const DemandConfig& config);

  /// Popularity of each prefix in `chunk`, advancing the cursor past them.
  /// The cursor must currently sit at chunk.first_prefix (skip() to it).
  [[nodiscard]] std::vector<double> next(const ClientChunk& chunk);
  /// Same, for `prefixes` whose first global id is `first_prefix`.
  [[nodiscard]] std::vector<double> next(PrefixId first_prefix,
                                         std::span<const ClientPrefix> prefixes);

  /// Advance the cursor over `n` prefixes without keeping their values:
  /// draws are replayed and discarded so a shard entering mid-stream sees
  /// the same bytes a full pass produces.
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
