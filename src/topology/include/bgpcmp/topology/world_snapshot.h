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
// a warm-start cache, never an archival format. Each serialized struct has
// one field list, `template <class A> void fields(A& a, T& t)`, next to its
// definition; SnapshotWriter and SnapshotReader both run through it, so the
// wire order is the fields() order, and detlint D8 requires that to be the
// declaration order its schema lock digests.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "bgpcmp/netbase/check.h"
#include "bgpcmp/netbase/ipaddr.h"
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

/// Snapshot wire fields (the header after the magic), in declaration order.
template <class A>
void fields(A& a, SnapshotHeader& h) {
  a(h.version, h.sections, h.config_fp, h.world_fp, h.payload_size, h.payload_hash);
}

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

/// The writing archive: appends values to a byte string in wire form,
/// byte-wise little-endian, independent of host endianness and alignment.
class SnapshotWriter {
 public:
  /// Append each value: unsigned integers at their width, enums as u8,
  /// doubles as their IEEE-754 bits (so they round-trip exactly), Asn and
  /// GigabitsPerSecond as their value, a Prefix as network u32 + length u8,
  /// strings, vectors and spans as a u32 count then the elements, an
  /// AsGraph as its three counts then its nodes, edges and links, and any
  /// other struct through its fields().
  template <class... T>
  void operator()(const T&... values) { (put(values), ...); }

  [[nodiscard]] const std::string& bytes() const { return out_; }

 private:
  template <class T>
  void put(const T& v);
  void put(const AsGraph& g);

  std::string out_;
};

/// Smallest encoding of a T: that of a default-constructed one, whose
/// strings and vectors are empty. The reader bounds declared counts with it.
template <class T>
[[nodiscard]] std::size_t min_wire_size() {
  static const std::size_t size = [] {
    SnapshotWriter w;
    w(T{});
    return w.bytes().size();
  }();
  return size;
}

/// The reading archive over a byte view. Every read BGPCMP_CHECKs the bytes
/// left, so a truncated payload trips a check (catchable via
/// ScopedCheckThrows) instead of reading out of bounds. Enum values are
/// stored as read: range-checking them, and every cross-reference, is the
/// loader's job.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::string_view bytes) : bytes_(bytes) {}

  /// Read each value in the wire form SnapshotWriter::operator() writes.
  template <class... T>
  void operator()(T&... values) { (get(values), ...); }
  /// A u32 element count, checked so that that many elements of at least
  /// `min_size` bytes each fit in the bytes left: a corrupt count fails here
  /// instead of sizing an allocation beyond the payload.
  [[nodiscard]] std::uint32_t count(std::size_t min_size);

  [[nodiscard]] bool done() const { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  template <class T>
  void get(T& v);
  /// Decode the three arrays (range-checked per element) and bulk-adopt them.
  void get(AsGraph& g);

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

template <class T>
void SnapshotWriter::put(const T& v) {
  if constexpr (std::is_unsigned_v<T>) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(sizeof(T) == 1, "wire enums are one byte");
    put(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_same_v<T, double>) {
    put(std::bit_cast<std::uint64_t>(v));
  } else if constexpr (std::is_same_v<T, Asn> || std::is_same_v<T, GigabitsPerSecond>) {
    put(v.value());
  } else if constexpr (std::is_same_v<T, Prefix>) {
    put(v.network().bits());
    put(v.length());
  } else if constexpr (requires { v.size(); v.begin(); }) {
    BGPCMP_CHECK_LE(v.size(), 0xffffffffULL, "snapshot sequence too long");
    put(static_cast<std::uint32_t>(v.size()));
    if constexpr (std::is_same_v<T, std::string>) {
      out_ += v;
    } else {
      for (const auto& e : v) put(e);
    }
  } else {
    // One field list serves both archives; the writer only reads through it.
    fields(*this, const_cast<T&>(v));
  }
}

template <class T>
void SnapshotReader::get(T& v) {
  if constexpr (std::is_unsigned_v<T>) {
    BGPCMP_CHECK_LE(sizeof(T), remaining(), "snapshot payload truncated");
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    } else {
      v = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        v |= static_cast<T>(T{static_cast<unsigned char>(bytes_[pos_ + i])} << (8 * i));
      }
    }
    pos_ += sizeof(T);
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(sizeof(T) == 1, "wire enums are one byte");
    std::uint8_t raw = 0;
    get(raw);
    v = static_cast<T>(raw);
  } else if constexpr (std::is_same_v<T, double>) {
    std::uint64_t bits = 0;
    get(bits);
    v = std::bit_cast<double>(bits);
  } else if constexpr (std::is_same_v<T, Asn> || std::is_same_v<T, GigabitsPerSecond>) {
    decltype(v.value()) raw{};
    get(raw);
    v = T{raw};
  } else if constexpr (std::is_same_v<T, Prefix>) {
    std::uint32_t bits = 0;
    std::uint8_t length = 0;
    (*this)(bits, length);
    BGPCMP_CHECK_LE(length, 32, "snapshot prefix length out of range");
    v = Prefix::make(Ipv4Address{bits}, length);
  } else if constexpr (std::is_same_v<T, std::string>) {
    const std::uint32_t n = count(1);
    v.assign(bytes_.data() + pos_, n);
    pos_ += n;
  } else if constexpr (requires { v.resize(0); }) {  // a vector
    v.resize(count(min_wire_size<typename T::value_type>()));
    for (auto& e : v) get(e);
  } else {
    fields(*this, v);
  }
}

/// Decode one world section into bulk-adopted graph arrays (range-checked
/// per element), then rebuild the IXP index. Cities bind to CityDb::world().
/// Callers wanting codec-bug protection verify `internet_fingerprint()`
/// against the header (SnapshotVerify::kFull).
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
/// the stored one. Replaces build_internet() for warm starts.
[[nodiscard]] Internet load_world_snapshot(const std::string& path,
                                           const InternetConfig& config,
                                           SnapshotVerify verify = SnapshotVerify::kFull);

}  // namespace bgpcmp::topo
