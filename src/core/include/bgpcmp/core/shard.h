// Deterministic sharding: how work splits across OS processes and how the
// pieces merge back into bytes identical to a single-process run.
//
// The substrate's determinism story so far covers threads (exec::ThreadPool,
// pinned by determinism_audit --compare-threads). Processes are the next
// axis: a shard harness (bgpcmp shard, determinism_audit --shards) forks
// workers, each worker computes a contiguous block of units (registry
// scenarios or study chunks; run_scale_block in core/scale_study.h is the
// study's block loop), and the parent merges per-unit result lines back in
// unit order. Everything here is pure logic — partitioning, line merging,
// and the text codec for streaming-study chunks — so it unit-tests without
// spawning anything; the one fork/exec routine, run_shards, lives in
// tools/shard_util.h.
//
// The invariant every harness leans on: units are pure in (config, unit id),
// so  merge(shard(units, N))  ==  merge(shard(units, 1))  byte-for-byte, for
// any N. tests/core/shard_test.cpp pins the logic; scripts/check.sh pins the
// processes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bgpcmp/core/scale_study.h"

namespace bgpcmp::core {

/// The contiguous block of unit ids a shard owns: [begin, end).
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const { return end - begin; }
  [[nodiscard]] bool empty() const { return begin == end; }
};

/// Partition `count` units into `shards` contiguous blocks; block `index`
/// gets the units. Blocks differ in size by at most one (the first
/// `count % shards` blocks take the extra unit) and tile [0, count) exactly.
/// Contiguity matters for study chunks: a worker skips the demand cursor once
/// to its block's start, then streams forward.
[[nodiscard]] ShardRange shard_range(std::size_t count, int shards, int index);

/// The merge fingerprint: FNV-1a over the unit lines joined with '\n', in
/// unit order. Shard count never appears in the input, so any sharding of the
/// same units merges to the same value.
[[nodiscard]] std::uint64_t merge_fingerprint(std::span<const std::string> lines);

/// Text codec for shipping a chunk result across a process boundary. One
/// header line (ScaleChunkResult::line()) followed by one "p <value>
/// <weight>" line per fig1 observation, doubles in hexfloat so the bytes
/// round-trip exactly.
BGPCMP_PURE_CHUNK
[[nodiscard]] std::string encode_scale_chunk(const ScaleChunkResult& chunk);

/// Parse a stream of encoded chunks (concatenated encode_scale_chunk
/// output). Malformed input trips a BGPCMP_CHECK.
BGPCMP_PURE_CHUNK
[[nodiscard]] std::vector<ScaleChunkResult> decode_scale_chunks(std::string_view text);

/// Assemble a study result from decoded per-chunk results arriving in any
/// order (workers finish whenever they finish). Verifies the chunks tile
/// [0, chunk_count) exactly — a lost worker output fails loudly, not with a
/// silently thinner study.
[[nodiscard]] ScaleStudyResult merge_scale_chunks(std::vector<ScaleChunkResult> chunks,
                                                  std::size_t chunk_count,
                                                  std::vector<TimeWindow> windows);

}  // namespace bgpcmp::core
