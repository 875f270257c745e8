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

void patch_u32(std::string& bytes, std::size_t off, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[off + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Re-seal the header after a payload edit so the size and hash checks pass:
// a failure must then come from the section decode, not from the whole-file
// integrity gates.
void reseal(std::string& bytes) {
  patch_u64(bytes, 32, bytes.size() - kSnapshotHeaderSize);
  patch_u64(bytes, 40, snapshot_hash(bytes.substr(kSnapshotHeaderSize)));
}

TEST(WorldSnapshot, WriterReaderRoundTripScalars) {
  SnapshotWriter w;
  w(std::uint8_t{0xab}, std::uint16_t{0x1234}, std::uint32_t{0xdeadbeef},
    std::uint64_t{0x0123456789abcdefULL}, -1.5e300, std::string{"hello"});
  // Little-endian at each width; the string is a u32 length then its bytes.
  EXPECT_EQ(w.bytes().size(), 1u + 2u + 4u + 8u + 8u + 4u + 5u);
  EXPECT_EQ(w.bytes().substr(0, 3), std::string("\xab\x34\x12", 3));
  SnapshotReader r(w.bytes());
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  double f64 = 0.0;
  std::string str;
  r(u8, u16, u32, u64, f64, str);
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(f64, -1.5e300);
  EXPECT_EQ(str, "hello");
  EXPECT_TRUE(r.done());
}

TEST(WorldSnapshot, ReaderRejectsTruncatedPayload) {
  SnapshotWriter w;
  w(std::uint32_t{7});
  SnapshotReader r(w.bytes());
  ScopedCheckThrows guard;
  std::uint64_t wide = 0;
  EXPECT_THROW(r(wide), CheckError);
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
  a(build_internet(cfg));
  SnapshotWriter b;
  b(build_internet(cfg));
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
  // Chop the tail of the last section: the decode runs off the end.
  bytes.resize(bytes.size() - 16);
  reseal(bytes);
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

// A hostile file with a valid header hash and a count its payload cannot
// hold must fail that count's bound check before anything is sized from it;
// reserving 0xFFFFFFFF elements would throw std::bad_alloc instead.
void expect_count_rejected(const char* name, std::size_t payload_offset) {
  const auto cfg = small_config();
  const auto path = tmp_path(name);
  save_world_snapshot(path, build_internet(cfg), cfg);
  std::string bytes = file_bytes(path);
  patch_u32(bytes, kSnapshotHeaderSize + payload_offset, 0xffffffffU);
  reseal(bytes);
  write_bytes(path, bytes);
  ScopedCheckThrows guard;
  try {
    (void)load_world_snapshot(path, cfg);
    FAIL() << "count at payload offset " << payload_offset << " was accepted";
  } catch (const CheckError& e) {
    EXPECT_TRUE(contains(e.what(), "count runs past the payload")) << e.what();
  }
}

TEST(WorldSnapshot, HugeAsCountReportsCountPastPayload) {
  expect_count_rejected("world_huge_as_count.snap", 0);
}

TEST(WorldSnapshot, HugePresenceCountReportsCountPastPayload) {
  // World section: as_count, edge_count, link_count, then node 0 as asn u32,
  // class u8, name (u32 length + bytes), presence count u32.
  const Internet net = build_internet(small_config());
  const std::size_t name_length = net.graph.node(0).name.size();
  expect_count_rejected("world_huge_presence_count.snap", 12 + 4 + 1 + 4 + name_length);
}

}  // namespace
}  // namespace bgpcmp::topo
