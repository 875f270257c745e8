#include "bgpcmp/topology/world_snapshot.h"

#include <bit>
#include <cstring>
#include <fstream>
#include <utility>

#include "bgpcmp/netbase/check.h"

#if defined(__unix__) || defined(__APPLE__)
#define BGPCMP_SNAPSHOT_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace bgpcmp::topo {

std::uint64_t snapshot_hash(std::string_view bytes) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  // Length first, so "payload + trailing zeros" cannot collide with payload.
  h ^= bytes.size();
  h *= kPrime;
  std::size_t i = 0;
  // Whole little-endian u64 lanes; one multiply per 8 bytes instead of per
  // byte makes hashing a 10 MB serving payload ~1 ms instead of ~10.
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t lane = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&lane, bytes.data() + i, 8);
    } else {
      for (int b = 0; b < 8; ++b) {
        lane |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i + b]))
                << (8 * b);
      }
    }
    h ^= lane;
    h *= kPrime;
  }
  for (; i < bytes.size(); ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= kPrime;
  }
  return h;
}

namespace {

/// Fold a u64 into an FNV-1a state byte-wise, little-endian.
void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer / reader primitives.

void SnapshotWriter::u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }

void SnapshotWriter::u16(std::uint16_t v) {
  out_.push_back(static_cast<char>(v & 0xff));
  out_.push_back(static_cast<char>((v >> 8) & 0xff));
}

void SnapshotWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void SnapshotWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void SnapshotWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void SnapshotWriter::str(std::string_view s) {
  BGPCMP_CHECK_LT(s.size(), 0xffffffffULL, "snapshot string too long");
  u32(static_cast<std::uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

std::uint8_t SnapshotReader::u8() {
  BGPCMP_CHECK_LE(pos_ + 1, bytes_.size(), "snapshot payload truncated");
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

// The scalar readers memcpy whole words on little-endian hosts (the wire
// format is little-endian, so no swap is needed) and fall back to byte
// assembly elsewhere; the bounds CHECK stays on every path.

std::uint16_t SnapshotReader::u16() {
  BGPCMP_CHECK_LE(pos_ + 2, bytes_.size(), "snapshot payload truncated");
  std::uint16_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, bytes_.data() + pos_, 2);
    pos_ += 2;
  } else {
    for (int i = 0; i < 2; ++i) {
      v |= static_cast<std::uint16_t>(static_cast<unsigned char>(bytes_[pos_++])) << (8 * i);
    }
  }
  return v;
}

std::uint32_t SnapshotReader::u32() {
  BGPCMP_CHECK_LE(pos_ + 4, bytes_.size(), "snapshot payload truncated");
  std::uint32_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, bytes_.data() + pos_, 4);
    pos_ += 4;
  } else {
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes_[pos_++])) << (8 * i);
    }
  }
  return v;
}

std::uint64_t SnapshotReader::u64() {
  BGPCMP_CHECK_LE(pos_ + 8, bytes_.size(), "snapshot payload truncated");
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, bytes_.data() + pos_, 8);
    pos_ += 8;
  } else {
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_++])) << (8 * i);
    }
  }
  return v;
}

double SnapshotReader::f64() { return std::bit_cast<double>(u64()); }

std::string_view SnapshotReader::str() {
  const std::uint32_t n = u32();
  BGPCMP_CHECK_LE(static_cast<std::size_t>(n), bytes_.size() - pos_,
                  "snapshot string runs past the payload");
  const std::string_view out = bytes_.substr(pos_, n);
  pos_ += n;
  return out;
}

// ---------------------------------------------------------------------------
// World section codec.

void serialize_internet(const Internet& net, SnapshotWriter& w) {
  const AsGraph& g = net.graph;
  w.u32(static_cast<std::uint32_t>(g.as_count()));
  w.u32(static_cast<std::uint32_t>(g.edge_count()));
  w.u32(static_cast<std::uint32_t>(g.link_count()));

  for (const AsNode& n : g.nodes()) {
    w.u32(n.asn.value());
    w.u8(static_cast<std::uint8_t>(n.cls));
    w.str(n.name);
    w.u32(static_cast<std::uint32_t>(n.presence.size()));
    for (const CityId c : n.presence) w.u16(c);
    w.u16(n.hub);
    w.f64(n.backbone_inflation);
  }
  for (const AsEdge& e : g.edges()) {
    w.u32(e.a);
    w.u32(e.b);
    w.u8(static_cast<std::uint8_t>(e.rel));
  }
  for (const InterconnectLink& l : g.links()) {
    w.u32(l.edge);
    w.u16(l.city);
    w.u8(static_cast<std::uint8_t>(l.kind));
    w.f64(l.capacity.value());
  }

  w.u32(static_cast<std::uint32_t>(net.ixps.size()));
  for (const Ixp& x : net.ixps) {
    w.str(x.name);
    w.u16(x.city);
    w.u32(static_cast<std::uint32_t>(x.members.size()));
    for (const AsIndex m : x.members) w.u32(m);
  }
  for (const std::vector<AsIndex>* list : {&net.tier1s, &net.transits, &net.eyeballs, &net.stubs}) {
    w.u32(static_cast<std::uint32_t>(list->size()));
    for (const AsIndex i : *list) w.u32(i);
  }
}

Internet deserialize_internet(SnapshotReader& r) {
  Internet net;
  net.cities = &CityDb::world();

  const std::uint32_t as_count = r.u32();
  const std::uint32_t edge_count = r.u32();
  const std::uint32_t link_count = r.u32();

  // Build the arrays directly and bulk-adopt them instead of replaying the
  // mutators one call at a time: the per-call invariant churn (presence and
  // duplicate-edge hash probes, id CHECKs) was ~60 ms of a 10x resident-
  // serving cold start, re-checking facts the caller's fingerprint
  // verification pins anyway. Derived state is reconstructed in mutator
  // order — edge ids pushed a-then-b, link ids appended in id order — so the
  // adopted graph is byte-identical to a replayed one.
  std::vector<AsNode> nodes;
  nodes.reserve(as_count);
  for (std::uint32_t i = 0; i < as_count; ++i) {
    AsNode n;
    n.asn = Asn{r.u32()};
    const std::uint8_t cls = r.u8();
    BGPCMP_CHECK_LE(cls, static_cast<std::uint8_t>(AsClass::Content),
                    "snapshot AS class out of range");
    n.cls = static_cast<AsClass>(cls);
    n.name = std::string{r.str()};
    const std::uint32_t presence_count = r.u32();
    n.presence.reserve(presence_count);
    for (std::uint32_t p = 0; p < presence_count; ++p) n.presence.push_back(r.u16());
    // The stored hub is already resolved, so the first-city default that
    // add_as applies never re-fires here.
    n.hub = r.u16();
    n.backbone_inflation = r.f64();
    nodes.push_back(std::move(n));
  }
  std::vector<AsEdge> edges;
  edges.reserve(edge_count);
  for (std::uint32_t i = 0; i < edge_count; ++i) {
    const AsIndex a = r.u32();
    const AsIndex b = r.u32();
    const std::uint8_t rel = r.u8();
    BGPCMP_CHECK_LE(rel, static_cast<std::uint8_t>(Relationship::PeerPeer),
                    "snapshot edge relationship out of range");
    BGPCMP_CHECK_LT(a, as_count, "snapshot edge endpoint out of range");
    BGPCMP_CHECK_LT(b, as_count, "snapshot edge endpoint out of range");
    edges.push_back(AsEdge{a, b, static_cast<Relationship>(rel), {}});
    nodes[a].edges.push_back(i);
    nodes[b].edges.push_back(i);
  }
  std::vector<InterconnectLink> links;
  links.reserve(link_count);
  for (std::uint32_t i = 0; i < link_count; ++i) {
    const EdgeId edge = r.u32();
    const CityId city = r.u16();
    const std::uint8_t kind = r.u8();
    BGPCMP_CHECK_LE(kind, static_cast<std::uint8_t>(LinkKind::PrivatePeering),
                    "snapshot link kind out of range");
    BGPCMP_CHECK_LT(edge, edge_count, "snapshot link edge out of range");
    const double capacity = r.f64();
    links.push_back(InterconnectLink{edge, city, static_cast<LinkKind>(kind),
                                     GigabitsPerSecond{capacity}});
    edges[edge].links.push_back(i);
  }
  net.graph.adopt(std::move(nodes), std::move(edges), std::move(links));

  const std::uint32_t ixp_count = r.u32();
  net.ixps.reserve(ixp_count);
  for (std::uint32_t i = 0; i < ixp_count; ++i) {
    Ixp x;
    x.name = std::string{r.str()};
    x.city = r.u16();
    const std::uint32_t members = r.u32();
    x.members.reserve(members);
    for (std::uint32_t m = 0; m < members; ++m) x.members.push_back(r.u32());
    net.ixps.push_back(std::move(x));
  }
  for (std::vector<AsIndex>* list : {&net.tier1s, &net.transits, &net.eyeballs, &net.stubs}) {
    const std::uint32_t n = r.u32();
    list->reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) list->push_back(r.u32());
  }
  net.rebuild_ixp_index();
  return net;
}

// ---------------------------------------------------------------------------
// File container.

SnapshotFile::~SnapshotFile() {
#if BGPCMP_SNAPSHOT_HAS_MMAP
  if (map_ != nullptr) ::munmap(map_, map_size_);
#endif
}

void write_snapshot_file(const std::string& path, SnapshotHeader header,
                         std::string_view payload) {
  header.version = kSnapshotVersion;
  header.payload_size = payload.size();
  header.payload_hash = snapshot_hash(payload);

  std::string head;
  head.assign(kSnapshotMagic, sizeof kSnapshotMagic);
  SnapshotWriter hw;
  hw.u32(header.version);
  hw.u32(header.sections);
  hw.u64(header.config_fp);
  hw.u64(header.world_fp);
  hw.u64(header.payload_size);
  hw.u64(header.payload_hash);
  head += hw.bytes();
  BGPCMP_CHECK_EQ(head.size(), kSnapshotHeaderSize, "snapshot header layout drifted");

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  BGPCMP_CHECK(out.good(), "cannot open snapshot file for writing");
  out.write(head.data(), static_cast<std::streamsize>(head.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.flush();
  BGPCMP_CHECK(out.good(), "snapshot write failed");
}

namespace {

/// The header fields after the magic, in write_snapshot_file's order.
BGPCMP_SNAPSHOT_CODEC(header, reader)
SnapshotHeader decode_header(std::string_view fields) {
  SnapshotReader r(fields);
  SnapshotHeader header;
  header.version = r.u32();
  header.sections = r.u32();
  header.config_fp = r.u64();
  header.world_fp = r.u64();
  header.payload_size = r.u64();
  header.payload_hash = r.u64();
  return header;
}

}  // namespace

// Delegates to the default constructor so the object is complete before the
// body runs: a check that throws after the mmap still unmaps it.
SnapshotFile::SnapshotFile(const std::string& path) : SnapshotFile() {
#if BGPCMP_SNAPSHOT_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  BGPCMP_CHECK(fd >= 0, "cannot open snapshot file");
  struct stat st {};
  const int rc = ::fstat(fd, &st);
  if (rc != 0) ::close(fd);
  BGPCMP_CHECK_EQ(rc, 0, "cannot stat snapshot file");
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size > 0) {
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      map_ = map;
      map_size_ = size;
      data_ = static_cast<const char*>(map);
      size_ = size;
    }
  }
  ::close(fd);
#endif
  if (data_ == nullptr) {
    std::ifstream in(path, std::ios::binary);
    BGPCMP_CHECK(in.good(), "cannot open snapshot file");
    owned_.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    data_ = owned_.data();
    size_ = owned_.size();
  }

  BGPCMP_CHECK_LE(kSnapshotHeaderSize, size_, "snapshot file shorter than its header");
  BGPCMP_CHECK_EQ(std::memcmp(data_, kSnapshotMagic, sizeof kSnapshotMagic), 0,
                  "not a bgpcmp snapshot (bad magic)");
  header_ = decode_header(
      {data_ + sizeof kSnapshotMagic, kSnapshotHeaderSize - sizeof kSnapshotMagic});
  BGPCMP_CHECK_EQ(header_.version, kSnapshotVersion,
                  "snapshot version mismatch; rebuild the snapshot");
  BGPCMP_CHECK_EQ(header_.payload_size, size_ - kSnapshotHeaderSize,
                  "snapshot payload size mismatch (truncated or oversized file)");
  BGPCMP_CHECK_EQ(header_.payload_hash, snapshot_hash(payload()),
                  "snapshot payload hash mismatch (corrupted file)");
}

SnapshotFile read_snapshot_file(const std::string& path) { return SnapshotFile{path}; }

// ---------------------------------------------------------------------------
// World-only convenience wrappers (topology cache files).

std::uint64_t world_config_fingerprint(const InternetConfig& config) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  fnv_mix(h, internet_config_fingerprint(config));
  fnv_mix(h, config.seed);
  return h;
}

void save_world_snapshot(const std::string& path, const Internet& net,
                         const InternetConfig& config) {
  SnapshotWriter w;
  serialize_internet(net, w);
  SnapshotHeader header;
  header.sections = kSectionWorld;
  header.config_fp = world_config_fingerprint(config);
  header.world_fp = internet_fingerprint(net);
  write_snapshot_file(path, header, w.bytes());
}

Internet load_world_snapshot(const std::string& path, const InternetConfig& config,
                             SnapshotVerify verify) {
  const SnapshotFile f = read_snapshot_file(path);
  BGPCMP_CHECK_EQ(f.header().sections, kSectionWorld,
                  "expected a world-only snapshot");
  BGPCMP_CHECK_EQ(f.header().config_fp, world_config_fingerprint(config),
                  "snapshot was built from a different config or seed");
  SnapshotReader r(f.payload());
  Internet net = deserialize_internet(r);
  BGPCMP_CHECK(r.done(), "trailing bytes after the world section");
  if (verify == SnapshotVerify::kFull) {
    BGPCMP_CHECK_EQ(internet_fingerprint(net), f.header().world_fp,
                    "materialized world does not match the stored fingerprint");
  }
  return net;
}

}  // namespace bgpcmp::topo
