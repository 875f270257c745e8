#include "bgpcmp/traffic/clients.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace bgpcmp::traffic {
namespace {

topo::Internet small_net(std::uint64_t seed = 31) {
  topo::InternetConfig cfg;
  cfg.seed = seed;
  cfg.tier1_count = 4;
  cfg.transit_count = 10;
  cfg.eyeball_count = 20;
  cfg.stub_count = 8;
  return topo::build_internet(cfg);
}

class ClientBaseTest : public ::testing::Test {
 protected:
  topo::Internet net_ = small_net();
  ClientBase clients_ = ClientBase::generate(net_, ClientBaseConfig{});
};

TEST_F(ClientBaseTest, GeneratesPrefixesForEveryEyeballCity) {
  const ClientBaseConfig cfg;
  std::size_t expected = 0;
  for (const auto eb : net_.eyeballs) {
    expected += net_.graph.node(eb).presence.size() *
                static_cast<std::size_t>(cfg.prefixes_per_eyeball_city);
  }
  expected += net_.stubs.size();  // one per stub
  EXPECT_EQ(clients_.size(), expected);
}

TEST_F(ClientBaseTest, PrefixesAreUniqueSlash24s) {
  std::set<std::uint32_t> networks;
  for (const auto& c : clients_.prefixes()) {
    EXPECT_EQ(c.prefix.length(), 24);
    EXPECT_TRUE(networks.insert(c.prefix.network().bits()).second)
        << c.prefix.str();
  }
}

TEST_F(ClientBaseTest, ClientsSitInTheirOriginFootprint) {
  for (const auto& c : clients_.prefixes()) {
    EXPECT_TRUE(net_.graph.has_presence(c.origin_as, c.city));
  }
}

TEST_F(ClientBaseTest, WeightsPositiveAndAccessInRange) {
  const ClientBaseConfig cfg;
  for (const auto& c : clients_.prefixes()) {
    EXPECT_GT(c.user_weight, 0.0);
    EXPECT_GE(c.access.base_rtt_ms, cfg.access_base_rtt_min_ms);
    EXPECT_LE(c.access.base_rtt_ms, cfg.access_base_rtt_max_ms);
  }
}

// Each origin's prefixes form one contiguous run, in generation order
// (eyeballs, then stubs): the Fig 1 planner computes one Adj-RIB-in per run,
// so a split run would mean a second RIB for the same origin.
TEST_F(ClientBaseTest, OriginPrefixesFormOneRunEach) {
  std::vector<AsIndex> runs;
  for (const auto& c : clients_.prefixes()) {
    if (runs.empty() || runs.back() != c.origin_as) runs.push_back(c.origin_as);
  }
  std::vector<AsIndex> expected = net_.eyeballs;
  expected.insert(expected.end(), net_.stubs.begin(), net_.stubs.end());
  std::erase_if(expected, [&](AsIndex as) { return net_.graph.node(as).presence.empty(); });
  EXPECT_EQ(runs, expected);
}

TEST_F(ClientBaseTest, DeterministicForSameSeed) {
  const auto again = ClientBase::generate(net_, ClientBaseConfig{});
  ASSERT_EQ(again.size(), clients_.size());
  for (PrefixId i = 0; i < clients_.size(); ++i) {
    EXPECT_EQ(again.at(i).prefix, clients_.at(i).prefix);
    EXPECT_DOUBLE_EQ(again.at(i).user_weight, clients_.at(i).user_weight);
  }
}

TEST_F(ClientBaseTest, StubsCanBeExcluded) {
  ClientBaseConfig cfg;
  cfg.include_stubs = false;
  const auto no_stubs = ClientBase::generate(net_, cfg);
  EXPECT_EQ(no_stubs.size(), clients_.size() - net_.stubs.size());
  for (const auto& c : no_stubs.prefixes()) {
    EXPECT_NE(net_.graph.node(c.origin_as).cls, topo::AsClass::Stub);
  }
}

TEST_F(ClientBaseTest, BigMetrosCarryMoreWeight) {
  // Aggregate prefix weight by city: the heaviest city should outweigh the
  // lightest by a wide margin, reflecting the population weighting.
  const topo::CityDb& db = net_.city_db();
  std::map<topo::CityId, double> by_city;
  for (const auto& c : clients_.prefixes()) by_city[c.city] += c.user_weight;
  double heaviest = 0.0;
  double lightest = 1e18;
  for (const auto& [city, w] : by_city) {
    (void)city;
    heaviest = std::max(heaviest, w);
    lightest = std::min(lightest, w);
  }
  EXPECT_GT(heaviest, 4.0 * lightest);
  (void)db;
}

}  // namespace
}  // namespace bgpcmp::traffic
