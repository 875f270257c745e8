#include "bgpcmp/topology/world_snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>

#include "bgpcmp/netbase/check.h"

namespace bgpcmp::topo {
namespace {

std::string tmp_path(const char* name) {
  return std::string{::testing::TempDir()} + name;
}

InternetConfig small_config(std::uint64_t seed = 11) {
  InternetConfig cfg;
  cfg.seed = seed;
  cfg.tier1_count = 6;
  cfg.transit_count = 20;
  cfg.eyeball_count = 40;
  cfg.stub_count = 20;
  return cfg;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// Header layout (world_snapshot.h): magic 8B, version u32, sections u32,
// config_fp u64, world_fp u64, payload_size u64 @32, payload_hash u64 @40.
void patch_u64(std::string& bytes, std::size_t off, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[off + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

TEST(WorldSnapshot, WriterReaderRoundTripScalars) {
  SnapshotWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(-1.5e300);
  w.str("hello");
  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.f64(), -1.5e300);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(WorldSnapshot, ReaderRejectsTruncatedPayload) {
  SnapshotWriter w;
  w.u32(7);
  SnapshotReader r(w.bytes());
  ScopedCheckThrows guard;
  EXPECT_THROW((void)r.u64(), CheckError);
}

TEST(WorldSnapshot, RoundTripPinsTheWorldFingerprint) {
  const auto cfg = small_config();
  const Internet built = build_internet(cfg);
  const auto path = tmp_path("world_roundtrip.snap");
  save_world_snapshot(path, built, cfg);

  const Internet loaded = load_world_snapshot(path, cfg);
  EXPECT_EQ(internet_fingerprint(loaded), internet_fingerprint(built));
  // Structural spot checks on top of the fingerprint: replay rebuilt the
  // incremental indices, not just the flat arrays.
  ASSERT_EQ(loaded.graph.as_count(), built.graph.as_count());
  ASSERT_EQ(loaded.graph.edge_count(), built.graph.edge_count());
  ASSERT_EQ(loaded.graph.link_count(), built.graph.link_count());
  EXPECT_EQ(loaded.ixp_by_city, built.ixp_by_city);
  const AsEdge& e0 = built.graph.edge(0);
  EXPECT_EQ(loaded.graph.find_edge(e0.a, e0.b), std::optional<EdgeId>{0});
  EXPECT_EQ(loaded.graph.find_asn(built.graph.node(3).asn), std::optional<AsIndex>{3});
  EXPECT_TRUE(loaded.graph.has_presence(0, built.graph.node(0).presence.front()));
  EXPECT_EQ(loaded.cities, &CityDb::world());
}

TEST(WorldSnapshot, SerializedBytesAreDeterministic) {
  const auto cfg = small_config();
  SnapshotWriter a;
  serialize_internet(build_internet(cfg), a);
  SnapshotWriter b;
  serialize_internet(build_internet(cfg), b);
  EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(WorldSnapshot, RejectsTruncatedFile) {
  const auto cfg = small_config();
  const auto path = tmp_path("world_truncated.snap");
  save_world_snapshot(path, build_internet(cfg), cfg);
  const std::string bytes = file_bytes(path);
  write_bytes(path, bytes.substr(0, bytes.size() / 2));
  ScopedCheckThrows guard;
  EXPECT_THROW((void)read_snapshot_file(path), CheckError);
  // Shorter than even the header.
  write_bytes(path, bytes.substr(0, 10));
  EXPECT_THROW((void)read_snapshot_file(path), CheckError);
}

TEST(WorldSnapshot, RejectsBadMagic) {
  const auto cfg = small_config();
  const auto path = tmp_path("world_badmagic.snap");
  save_world_snapshot(path, build_internet(cfg), cfg);
  std::string bytes = file_bytes(path);
  bytes[0] = 'X';
  write_bytes(path, bytes);
  ScopedCheckThrows guard;
  EXPECT_THROW((void)read_snapshot_file(path), CheckError);
}

TEST(WorldSnapshot, RejectsVersionMismatch) {
  const auto cfg = small_config();
  const auto path = tmp_path("world_badversion.snap");
  save_world_snapshot(path, build_internet(cfg), cfg);
  std::string bytes = file_bytes(path);
  bytes[8] = static_cast<char>(kSnapshotVersion + 1);  // little-endian version lsb
  write_bytes(path, bytes);
  ScopedCheckThrows guard;
  EXPECT_THROW((void)read_snapshot_file(path), CheckError);
}

TEST(WorldSnapshot, RejectsCorruptedPayload) {
  const auto cfg = small_config();
  const auto path = tmp_path("world_corrupt.snap");
  save_world_snapshot(path, build_internet(cfg), cfg);
  std::string bytes = file_bytes(path);
  bytes[kSnapshotHeaderSize + bytes.size() / 3] ^= 0x5a;
  write_bytes(path, bytes);
  ScopedCheckThrows guard;
  EXPECT_THROW((void)read_snapshot_file(path), CheckError);
}

TEST(WorldSnapshot, RejectsConfigMismatch) {
  const auto cfg = small_config(11);
  const auto path = tmp_path("world_wrongcfg.snap");
  save_world_snapshot(path, build_internet(cfg), cfg);
  ScopedCheckThrows guard;
  EXPECT_THROW((void)load_world_snapshot(path, small_config(12)), CheckError);
  auto other = small_config(11);
  other.transit_peer_prob += 0.05;
  EXPECT_THROW((void)load_world_snapshot(path, other), CheckError);
}

// The rejection tests above pin THAT a corrupt file is refused; the three
// below pin WHICH diagnostic fires, so a regression can't silently reroute
// one failure mode into another check's (misleading) message.

TEST(WorldSnapshot, TruncatedSectionPayloadReportsTruncation) {
  const auto cfg = small_config();
  const auto path = tmp_path("world_shortsection.snap");
  save_world_snapshot(path, build_internet(cfg), cfg);
  std::string bytes = file_bytes(path);
  // Chop the tail of the last section, then re-seal the header so the size
  // and hash checks pass: the failure must come from the section decode
  // running off the end, not from the whole-file integrity gates.
  bytes.resize(bytes.size() - 16);
  patch_u64(bytes, 32, bytes.size() - kSnapshotHeaderSize);
  patch_u64(bytes, 40, snapshot_hash(bytes.substr(kSnapshotHeaderSize)));
  write_bytes(path, bytes);
  ScopedCheckThrows guard;
  try {
    (void)load_world_snapshot(path, cfg);
    FAIL() << "truncated section payload was accepted";
  } catch (const CheckError& e) {
    EXPECT_TRUE(contains(e.what(), "snapshot payload truncated")) << e.what();
  }
}

TEST(WorldSnapshot, CorruptedPayloadReportsHashMismatch) {
  const auto cfg = small_config();
  const auto path = tmp_path("world_badhash.snap");
  save_world_snapshot(path, build_internet(cfg), cfg);
  std::string bytes = file_bytes(path);
  bytes[kSnapshotHeaderSize + bytes.size() / 2] ^= 0x10;
  write_bytes(path, bytes);
  ScopedCheckThrows guard;
  try {
    (void)read_snapshot_file(path);
    FAIL() << "corrupted payload was accepted";
  } catch (const CheckError& e) {
    EXPECT_TRUE(
        contains(e.what(), "snapshot payload hash mismatch (corrupted file)"))
        << e.what();
  }
}

TEST(WorldSnapshot, FutureVersionReportsVersionMismatch) {
  const auto cfg = small_config();
  const auto path = tmp_path("world_futureversion.snap");
  save_world_snapshot(path, build_internet(cfg), cfg);
  std::string bytes = file_bytes(path);
  bytes[8] = static_cast<char>(kSnapshotVersion + 7);  // little-endian lsb
  write_bytes(path, bytes);
  ScopedCheckThrows guard;
  try {
    (void)read_snapshot_file(path);
    FAIL() << "future-version snapshot was accepted";
  } catch (const CheckError& e) {
    EXPECT_TRUE(contains(e.what(),
                         "snapshot version mismatch; rebuild the snapshot"))
        << e.what();
  }
}

}  // namespace
}  // namespace bgpcmp::topo
