#include "bgpcmp/core/serving.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>

#include "bgpcmp/core/snapshot.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/netbase/check.h"
#include "bgpcmp/topology/topology_gen.h"

namespace bgpcmp::core {
namespace {

std::string tmp_path(const char* name) {
  return std::string{::testing::TempDir()} + name;
}

/// A small world so each test builds in well under a second.
ScenarioConfig small_config(std::uint64_t seed = 11) {
  ScenarioConfig cfg;
  cfg.internet.seed = seed;
  cfg.internet.tier1_count = 6;
  cfg.internet.transit_count = 20;
  cfg.internet.eyeball_count = 40;
  cfg.internet.stub_count = 20;
  cfg.provider.pop_count = 8;
  return cfg;
}

ServingConfig small_serving() {
  ServingConfig serving;
  serving.warm_origins = 12;
  return serving;
}

TEST(ServingWorld, LoadedWorldAnswersByteIdenticallyToFresh) {
  const auto cfg = small_config();
  const auto fresh = ServingWorld::build(cfg, small_serving());
  const auto path = tmp_path("serving_roundtrip.snap");
  fresh->save(path);
  // kFull re-pins the materialized world against the stored fingerprint on
  // top of the payload-hash tier every load performs.
  const auto loaded = ServingWorld::load(path, cfg, topo::SnapshotVerify::kFull);

  ASSERT_EQ(loaded->warmed().size(), fresh->warmed().size());
  EXPECT_EQ(topo::internet_fingerprint(loaded->scenario().internet),
            topo::internet_fingerprint(fresh->scenario().internet));

  const auto queries = fresh->generate_queries(60, /*seed=*/5);
  const QueryServer a{fresh.get(), &exec::global_pool()};
  const QueryServer b{loaded.get(), &exec::global_pool()};
  const auto fresh_answers = a.answer_batch(queries);
  const auto loaded_answers = b.answer_batch(queries);
  EXPECT_EQ(fresh_answers, loaded_answers);
  EXPECT_EQ(answers_digest(fresh_answers), answers_digest(loaded_answers));
}

TEST(ServingWorld, BatchAnswersAreWidthInvariant) {
  const auto world = ServingWorld::build(small_config(), small_serving());
  const auto queries = world->generate_queries(48, /*seed=*/7);
  exec::ThreadPool one{1};
  exec::ThreadPool eight{8};
  // Odd chunk sizes exercise the truncated-final-chunk path at both widths.
  const QueryServer serial{world.get(), &one, /*chunk=*/5};
  const QueryServer wide{world.get(), &eight, /*chunk=*/3};
  EXPECT_EQ(serial.answer_batch(queries), wide.answer_batch(queries));
}

TEST(ServingWorld, EgressQueriesDrawOnlyWarmedOrigins) {
  const auto world = ServingWorld::build(small_config(), small_serving());
  const auto queries = world->generate_queries(90, /*seed=*/3);
  const auto warmed = world->warmed();
  std::size_t egress = 0;
  for (const Query& q : queries) {
    if (q.kind != Query::Kind::Egress) continue;
    ++egress;
    const auto origin = world->scenario().clients.at(q.prefix).origin_as;
    EXPECT_NE(std::find(warmed.begin(), warmed.end(), origin), warmed.end())
        << "egress query targets unwarmed origin " << origin;
  }
  EXPECT_EQ(egress, 30u);  // kinds round-robin over three values
}

// answer() is const and computes nothing: an egress query whose origin was
// never warmed trips a check instead of reading an empty slot.
TEST(ServingWorld, EgressQueryOnUnwarmedOriginTripsCheck) {
  const auto world = ServingWorld::build(small_config(), small_serving());
  const auto warmed = world->warmed();
  const auto& clients = world->scenario().clients;
  traffic::PrefixId cold = 0;
  while (cold < clients.size() &&
         std::find(warmed.begin(), warmed.end(), clients.at(cold).origin_as) != warmed.end()) {
    ++cold;
  }
  ASSERT_LT(cold, clients.size());
  const ScopedCheckThrows guard;
  try {
    (void)world->answer(Query{Query::Kind::Egress, cold, SimTime::hours(1.0)});
    FAIL() << "an egress query on an unwarmed origin was answered";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string{e.what()}.find("egress queries must target warmed origins"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServingWorld, QueryGenerationIsSeedDeterministic) {
  const auto world = ServingWorld::build(small_config(), small_serving());
  const auto a = world->generate_queries(30, /*seed=*/9);
  const auto b = world->generate_queries(30, /*seed=*/9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].prefix, b[i].prefix);
    EXPECT_EQ(a[i].t, b[i].t);
  }
  const auto c = world->generate_queries(30, /*seed=*/10);
  bool any_diff = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (a[i].prefix != c[i].prefix || a[i].t != c[i].t) any_diff = true;
  }
  EXPECT_TRUE(any_diff) << "different seeds produced the same query stream";
}

TEST(ServingSnapshot, LoadRejectsAMismatchedConfig) {
  const auto cfg = small_config();
  const auto world = ServingWorld::build(cfg, small_serving());
  const auto path = tmp_path("serving_wrong_config.snap");
  world->save(path);

  ScopedCheckThrows guard;
  auto other_seed = small_config(/*seed=*/12);
  EXPECT_THROW((void)ServingWorld::load(path, other_seed), CheckError);
  auto other_knob = cfg;
  other_knob.demand.zipf_exponent += 0.1;
  EXPECT_THROW((void)ServingWorld::load(path, other_knob), CheckError);
}

TEST(ServingSnapshot, SavedBytesAreDeterministic) {
  const auto cfg = small_config();
  const auto path_a = tmp_path("serving_det_a.snap");
  const auto path_b = tmp_path("serving_det_b.snap");
  ServingWorld::build(cfg, small_serving())->save(path_a);
  ServingWorld::build(cfg, small_serving())->save(path_b);
  std::ifstream a(path_a, std::ios::binary);
  std::ifstream b(path_b, std::ios::binary);
  const std::string bytes_a{std::istreambuf_iterator<char>(a), {}};
  const std::string bytes_b{std::istreambuf_iterator<char>(b), {}};
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
}

// Every config section must flow into the fingerprint, else a snapshot taken
// under one config could silently serve another (snapshot.h names this test).
TEST(ServingSnapshotTest, FingerprintCoversEveryConfigSection) {
  const auto base = small_config();
  const auto fp = scenario_config_fingerprint(base);

  auto internet = base;
  internet.internet.seed ^= 1;
  EXPECT_NE(scenario_config_fingerprint(internet), fp);
  auto provider = base;
  provider.provider.pop_count += 1;
  EXPECT_NE(scenario_config_fingerprint(provider), fp);
  auto clients = base;
  clients.clients.prefixes_per_eyeball_city += 1;
  EXPECT_NE(scenario_config_fingerprint(clients), fp);
  auto demand = base;
  demand.demand.zipf_exponent += 0.05;
  EXPECT_NE(scenario_config_fingerprint(demand), fp);
  auto congestion = base;
  congestion.congestion.queue_scale_ms += 0.5;
  EXPECT_NE(scenario_config_fingerprint(congestion), fp);
  auto latency = base;
  latency.latency.per_hop_processing_ms += 0.1;
  EXPECT_NE(scenario_config_fingerprint(latency), fp);
}

// A hostile serving snapshot with a valid header hash and a table count its
// payload cannot hold must fail the count's bound check, not reserve
// 0xFFFFFFFF tables.
TEST(ServingSnapshot, HugeTableCountReportsCountPastPayload) {
  const auto cfg = small_config();
  const auto world = ServingWorld::build(cfg, small_serving());
  const auto path = tmp_path("serving_huge_table_count.snap");
  world->save(path);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // The tables section closes the payload: a u32 count, then per warmed
  // origin a u32 origin, a u32 row count and one 11-byte row per AS.
  const std::size_t rows = world->scenario().internet.graph.as_count();
  const std::size_t tables_bytes = 4 + world->warmed().size() * (4 + 4 + rows * 11);
  const std::size_t count_at = bytes.size() - tables_bytes;
  for (std::size_t i = 0; i < 4; ++i) bytes[count_at + i] = static_cast<char>(0xff);
  // Re-seal payload_hash (@40; the size is unchanged) so the failure comes
  // from the tables decode, not from the whole-file integrity gates.
  const std::uint64_t hash = topo::snapshot_hash(
      std::string_view{bytes}.substr(topo::kSnapshotHeaderSize));
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[40 + i] = static_cast<char>((hash >> (8 * i)) & 0xff);
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ScopedCheckThrows guard;
  try {
    (void)ServingWorld::load(path, cfg);
    FAIL() << "huge table count was accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string{e.what()}.find("count runs past the payload"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace bgpcmp::core
