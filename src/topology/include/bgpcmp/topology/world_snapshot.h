// Versioned binary snapshot format for built worlds.
//
// A snapshot is a 48-byte header followed by a little-endian payload of
// sections. The world section stores every structural field of a generated
// `Internet`; loading reconstructs node/edge/link arrays in mutator order and
// bulk-adopts them (`AsGraph::adopt`), which rebuilds all incremental
// indices — presence set, edge-pair map, ASN map — in one reserving pass, so
// the result is byte-identical to an in-memory build; `internet_fingerprint()`
// pins that equivalence (see SnapshotVerify for when the pin is recomputed).
// Upper layers (core) append provider, client, and route-table sections
// behind the section bits below.
//
// Version policy: `kSnapshotVersion` bumps on ANY layout change — there is no
// cross-version decoding. A loader that sees a different version rejects the
// file via BGPCMP_CHECK and the caller falls back to a rebuild; snapshots are
// a warm-start cache, never an archival format.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "bgpcmp/netbase/thread_annotations.h"
#include "bgpcmp/topology/topology_gen.h"

namespace bgpcmp::topo {

/// File magic, first 8 bytes of every snapshot.
inline constexpr char kSnapshotMagic[8] = {'B', 'G', 'P', 'C', 'M', 'P', 'S', 'N'};
/// Current layout version; bump on any wire-format change.
inline constexpr std::uint32_t kSnapshotVersion = 1;

// Section bits, in payload order. A world-only snapshot (a topology cache
// file, bench/e20_scale) carries just kSectionWorld; a serving snapshot carries all four.
inline constexpr std::uint32_t kSectionWorld = 1u << 0;
inline constexpr std::uint32_t kSectionProvider = 1u << 1;
inline constexpr std::uint32_t kSectionClients = 1u << 2;
inline constexpr std::uint32_t kSectionTables = 1u << 3;

/// Fixed-size header. `config_fp` binds the file to the configuration it was
/// built from (the loader re-derives the fingerprint from the caller's config
/// and rejects mismatches — configs themselves are never serialized, they
/// contain non-owning string_views). `world_fp` is `internet_fingerprint()`
/// of the stored world; `payload_hash` is snapshot_hash() over the payload
/// bytes, so truncation and corruption are caught before any decoding runs.
struct SnapshotHeader {
  std::uint32_t version = kSnapshotVersion;
  std::uint32_t sections = 0;
  std::uint64_t config_fp = 0;
  std::uint64_t world_fp = 0;
  std::uint64_t payload_size = 0;
  std::uint64_t payload_hash = 0;
};

/// magic(8) + version(4) + sections(4) + config_fp(8) + world_fp(8) +
/// payload_size(8) + payload_hash(8).
inline constexpr std::size_t kSnapshotHeaderSize = 48;

/// Integrity hash over raw bytes: FNV-1a 64 folded over little-endian u64
/// lanes (length first, then whole words, then the byte-wise tail). Lane
/// folding makes hashing a multi-megabyte payload ~8x cheaper than the
/// byte-at-a-time FNV core::fnv1a64 uses — it is on the resident-serving cold
/// start — while keeping the same corruption-detection strength. The value is
/// part of the wire format (payload_hash); changing it requires a
/// kSnapshotVersion bump.
[[nodiscard]] std::uint64_t snapshot_hash(std::string_view bytes);

/// How much of a snapshot to re-verify while loading it.
///
/// Every load, at either level, checks the magic, version, section bits,
/// config fingerprint, declared payload size, and payload hash — that is
/// what rejects truncated, corrupted, version-skewed, or wrong-config files.
/// kFull additionally recomputes `internet_fingerprint()` over the
/// *materialized* graph and compares it to the stored `world_fp`: that guards
/// against codec bugs (a decoder that misreads valid bytes), which no payload
/// hash can see. The full walk costs ~26 ms at 10x scale, so resident serving
/// loads default to kPayload and the deep check runs where it pays its way:
/// world-cache loads, the snapshot round-trip tests, and the serving_default
/// determinism-audit scenario, which re-pins loaded-vs-fresh byte-identity on
/// every CI run.
enum class SnapshotVerify : std::uint8_t {
  kPayload,  ///< header + payload hash (always on)
  kFull,     ///< + recomputed internet_fingerprint == stored world_fp
};

/// Appends little-endian scalars to a byte string. Byte-wise writes keep the
/// format independent of host endianness and alignment.
class SnapshotWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// IEEE-754 bit pattern via the u64 path: doubles round-trip exactly.
  void f64(double v);
  /// u32 length followed by the raw bytes.
  void str(std::string_view s);

  [[nodiscard]] const std::string& bytes() const { return out_; }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked little-endian reader over a byte view. Every read
/// BGPCMP_CHECKs the remaining length, so a truncated payload trips a check
/// (catchable via ScopedCheckThrows) instead of reading out of bounds.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  /// View into the underlying buffer; valid while the buffer lives.
  [[nodiscard]] std::string_view str();

  [[nodiscard]] bool done() const { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Serialize every structural field of a built world (nodes, edges, links,
/// IXPs with memberships, per-class index lists) as one world section.
BGPCMP_SNAPSHOT_CODEC(world, writer)
void serialize_internet(const Internet& net, SnapshotWriter& w);

/// Decode one world section into bulk-adopted graph arrays (range-checked
/// per element), then rebuild the IXP index. Cities bind to CityDb::world().
/// Callers wanting codec-bug protection verify `internet_fingerprint()`
/// against the header (SnapshotVerify::kFull).
BGPCMP_SNAPSHOT_CODEC(world, reader)
[[nodiscard]] Internet deserialize_internet(SnapshotReader& r);

/// A loaded snapshot: validated header plus payload bytes, mmap-backed where
/// the platform allows (read into memory otherwise). Neither copyable nor
/// movable: read_snapshot_file returns it by guaranteed elision, and it
/// unmaps on destruction.
class SnapshotFile {
 public:
  SnapshotFile(const SnapshotFile&) = delete;
  SnapshotFile& operator=(const SnapshotFile&) = delete;
  SnapshotFile(SnapshotFile&&) = delete;
  SnapshotFile& operator=(SnapshotFile&&) = delete;
  ~SnapshotFile();

  [[nodiscard]] const SnapshotHeader& header() const { return header_; }
  [[nodiscard]] std::string_view payload() const {
    return {data_ + kSnapshotHeaderSize, static_cast<std::size_t>(header_.payload_size)};
  }
  /// True when the payload is served straight off the page cache.
  [[nodiscard]] bool mapped() const { return map_ != nullptr; }

 private:
  friend SnapshotFile read_snapshot_file(const std::string& path);
  SnapshotFile() = default;
  explicit SnapshotFile(const std::string& path);

  SnapshotHeader header_{};
  std::string owned_;            ///< backing store on the read fallback
  void* map_ = nullptr;          ///< mmap base, null when owned_ backs data_
  std::size_t map_size_ = 0;
  const char* data_ = nullptr;   ///< full file bytes (header + payload)
  std::size_t size_ = 0;
};

/// Write header + payload atomically enough for our use (tmp-free single
/// ofstream; snapshots are caches, a torn write is caught by the hash on
/// load). Fills in payload_size/payload_hash from the payload.
BGPCMP_SNAPSHOT_CODEC(header, writer)
void write_snapshot_file(const std::string& path, SnapshotHeader header,
                         std::string_view payload);

/// Open, mmap-or-read, and validate magic, version, declared payload size,
/// and payload hash. Any mismatch trips a BGPCMP_CHECK.
[[nodiscard]] SnapshotFile read_snapshot_file(const std::string& path);

/// Cache key half for snapshots: FNV-1a over (internet_config_fingerprint,
/// seed) — unlike the WorldCache key the seed is folded in, because a file
/// stores exactly one world.
[[nodiscard]] std::uint64_t world_config_fingerprint(const InternetConfig& config);

/// Save a world-only snapshot (sections == kSectionWorld).
void save_world_snapshot(const std::string& path, const Internet& net,
                         const InternetConfig& config);

/// Load a world-only snapshot, verifying it matches `config`; kFull (the
/// default here — world snapshots feed world builds, not a latency-bound
/// server start) additionally pins the materialized world's fingerprint to
/// the stored one. Replaces build_internet() for warm starts, hence the
/// build phase tag.
BGPCMP_PHASE(build)
[[nodiscard]] Internet load_world_snapshot(const std::string& path,
                                           const InternetConfig& config,
                                           SnapshotVerify verify = SnapshotVerify::kFull);

}  // namespace bgpcmp::topo
