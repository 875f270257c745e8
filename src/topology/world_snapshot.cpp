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

std::uint32_t SnapshotReader::count(std::size_t min_size) {
  std::uint32_t n = 0;
  get(n);
  BGPCMP_CHECK_LE(static_cast<std::uint64_t>(n) * min_size, remaining(),
                  "snapshot payload truncated: count runs past the payload");
  return n;
}

// ---------------------------------------------------------------------------
// World section codec.

void SnapshotWriter::put(const AsGraph& g) {
  (*this)(static_cast<std::uint32_t>(g.as_count()),
          static_cast<std::uint32_t>(g.edge_count()),
          static_cast<std::uint32_t>(g.link_count()));
  for (const AsNode& n : g.nodes()) put(n);
  for (const AsEdge& e : g.edges()) put(e);
  for (const InterconnectLink& l : g.links()) put(l);
}

void SnapshotReader::get(AsGraph& g) {
  const std::uint32_t as_count = count(min_wire_size<AsNode>());
  const std::uint32_t edge_count = count(min_wire_size<AsEdge>());
  const std::uint32_t link_count = count(min_wire_size<InterconnectLink>());

  // Build the arrays directly and bulk-adopt them instead of replaying the
  // mutators one call at a time: the per-call invariant churn (presence and
  // duplicate-edge hash probes, id CHECKs) was ~60 ms of a 10x resident-
  // serving cold start, re-checking facts the caller's fingerprint
  // verification pins anyway. Derived state is reconstructed in mutator
  // order — edge ids pushed a-then-b, link ids appended in id order — so the
  // adopted graph is byte-identical to a replayed one. The stored hub is
  // already resolved, so the first-city default that add_as applies never
  // re-fires here.
  std::vector<AsNode> nodes(as_count);
  for (AsNode& n : nodes) {
    get(n);
    BGPCMP_CHECK_LE(n.cls, AsClass::Content, "snapshot AS class out of range");
  }
  std::vector<AsEdge> edges(edge_count);
  for (EdgeId i = 0; i < edge_count; ++i) {
    AsEdge& e = edges[i];
    get(e);
    BGPCMP_CHECK_LE(e.rel, Relationship::PeerPeer,
                    "snapshot edge relationship out of range");
    BGPCMP_CHECK_LT(e.a, as_count, "snapshot edge endpoint out of range");
    BGPCMP_CHECK_LT(e.b, as_count, "snapshot edge endpoint out of range");
    nodes[e.a].edges.push_back(i);
    nodes[e.b].edges.push_back(i);
  }
  std::vector<InterconnectLink> links(link_count);
  for (LinkId i = 0; i < link_count; ++i) {
    InterconnectLink& l = links[i];
    get(l);
    BGPCMP_CHECK_LE(l.kind, LinkKind::PrivatePeering,
                    "snapshot link kind out of range");
    BGPCMP_CHECK_LT(l.edge, edge_count, "snapshot link edge out of range");
    edges[l.edge].links.push_back(i);
  }
  g.adopt(std::move(nodes), std::move(edges), std::move(links));
}

Internet deserialize_internet(SnapshotReader& r) {
  Internet net;
  r(net);
  net.cities = &CityDb::world();
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
  hw(header);
  head += hw.bytes();
  BGPCMP_CHECK_EQ(head.size(), kSnapshotHeaderSize, "snapshot header layout drifted");

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  BGPCMP_CHECK(out.good(), "cannot open snapshot file for writing");
  out.write(head.data(), static_cast<std::streamsize>(head.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.flush();
  BGPCMP_CHECK(out.good(), "snapshot write failed");
}

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
  SnapshotReader head(
      {data_ + sizeof kSnapshotMagic, kSnapshotHeaderSize - sizeof kSnapshotMagic});
  head(header_);
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
  w(net);
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
