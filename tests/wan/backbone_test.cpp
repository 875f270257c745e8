#include "bgpcmp/wan/backbone.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace bgpcmp::wan {
namespace {

const CityDb& db() { return CityDb::world(); }

std::vector<CityId> global_sites() {
  std::vector<CityId> sites;
  for (const char* name : {"New York", "Chicago", "Los Angeles", "Seattle",
                           "London", "Frankfurt", "Paris", "Tokyo", "Singapore",
                           "Mumbai", "Sydney", "Sao Paulo", "Miami"}) {
    sites.push_back(*db().find(name));
  }
  return sites;
}

class BackboneTest : public ::testing::Test {
 protected:
  Backbone bb_{&db(), global_sites()};
};

TEST_F(BackboneTest, SitesAreDeduplicated) {
  auto sites = global_sites();
  sites.push_back(sites.front());
  const Backbone bb{&db(), sites};
  EXPECT_EQ(bb.sites().size(), global_sites().size());
}

TEST_F(BackboneTest, HasSite) {
  const auto has_site = [&](const char* name) {
    return std::ranges::count(bb_.sites(), *db().find(name)) == 1;
  };
  EXPECT_TRUE(has_site("Tokyo"));
  EXPECT_FALSE(has_site("Lagos"));
}

TEST_F(BackboneTest, FullyConnected) {
  // The connectivity repair guarantees every pair is reachable.
  const auto sites = bb_.sites();
  for (const CityId a : sites) {
    for (const CityId b : sites) {
      EXPECT_TRUE(bb_.transit_time(a, b).has_value())
          << db().at(a).name << " -> " << db().at(b).name;
    }
  }
}

TEST_F(BackboneTest, ZeroSelfTransit) {
  const auto t = bb_.transit_time(*db().find("Tokyo"), *db().find("Tokyo"));
  ASSERT_TRUE(t);
  EXPECT_DOUBLE_EQ(t->value(), 0.0);
}

TEST_F(BackboneTest, TransitTimeSymmetric) {
  const auto a = *db().find("London");
  const auto b = *db().find("Tokyo");
  EXPECT_DOUBLE_EQ(bb_.transit_time(a, b)->value(), bb_.transit_time(b, a)->value());
}

TEST_F(BackboneTest, TriangleInequalityOverSites) {
  const auto sites = bb_.sites();
  for (std::size_t i = 0; i < sites.size(); i += 3) {
    for (std::size_t j = 0; j < sites.size(); j += 4) {
      for (std::size_t k = 0; k < sites.size(); k += 5) {
        const double ij = bb_.transit_time(sites[i], sites[j])->value();
        const double jk = bb_.transit_time(sites[j], sites[k])->value();
        const double ik = bb_.transit_time(sites[i], sites[k])->value();
        EXPECT_LE(ik, ij + jk + 1e-9);
      }
    }
  }
}

TEST_F(BackboneTest, TransitNeverFasterThanGeodesic) {
  const auto sites = bb_.sites();
  for (std::size_t i = 0; i < sites.size(); ++i) {
    for (std::size_t j = i + 1; j < sites.size(); ++j) {
      const double wan = bb_.transit_distance(sites[i], sites[j])->value();
      const double geo = db().distance(sites[i], sites[j]).value();
      EXPECT_GE(wan, geo - 1e-9);
    }
  }
}

TEST_F(BackboneTest, RouteEndpointsAndContiguity) {
  const auto from = *db().find("Mumbai");
  const auto to = *db().find("Chicago");
  const auto route = bb_.route(from, to);
  ASSERT_GE(route.size(), 2u);
  EXPECT_EQ(route.front(), from);
  EXPECT_EQ(route.back(), to);
}

TEST_F(BackboneTest, IndiaRoutesEastNotViaEurope) {
  // The corridor catalog has no Europe<->South-Asia link: Mumbai's path to a
  // US site runs east across the Pacific (the §3.3.2 case study's geography),
  // never through a European site.
  const auto route = bb_.route(*db().find("Mumbai"), *db().find("Chicago"));
  ASSERT_GE(route.size(), 3u);
  bool via_pacific = false;
  for (const CityId c : route) {
    EXPECT_NE(db().at(c).region, topo::Region::Europe)
        << "WAN must not carry India traffic via Europe";
    if (db().at(c).region == topo::Region::Asia && db().at(c).country != "India") {
      via_pacific = true;  // an East-Asian waypoint
    }
  }
  EXPECT_TRUE(via_pacific);
}

TEST_F(BackboneTest, IndiaWanLongerThanGeodesic) {
  // The eastward detour is what lets the public Internet win for India.
  const auto mumbai = *db().find("Mumbai");
  const auto chicago = *db().find("Chicago");
  const double wan = bb_.transit_distance(mumbai, chicago)->value();
  const double geo = db().distance(mumbai, chicago).value();
  EXPECT_GT(wan, 1.3 * geo);
}

TEST_F(BackboneTest, TransAtlanticIsDirect) {
  // NY-London rides its corridor without detour.
  const double wan = bb_.transit_distance(*db().find("New York"),
                                          *db().find("London"))
                         ->value();
  const double geo = db().distance(*db().find("New York"), *db().find("London")).value();
  EXPECT_LT(wan, 1.05 * geo);
}

TEST_F(BackboneTest, UnknownCityYieldsNullopt) {
  EXPECT_FALSE(bb_.transit_time(*db().find("Lagos"), *db().find("Tokyo")));
  EXPECT_TRUE(bb_.route(*db().find("Lagos"), *db().find("Tokyo")).empty());
}

TEST(BackboneConfigTest, InflationScalesTime) {
  BackboneConfig fast;
  fast.inflation = 1.0;
  BackboneConfig slow;
  slow.inflation = 1.5;
  const Backbone a{&db(), global_sites(), fast};
  const Backbone b{&db(), global_sites(), slow};
  const auto from = *db().find("New York");
  const auto to = *db().find("London");
  EXPECT_NEAR(b.transit_time(from, to)->value(),
              1.5 * a.transit_time(from, to)->value(), 1e-9);
}

TEST(BackboneConfigTest, SingleSiteBackboneIsTrivial) {
  const Backbone bb{&db(), {*db().find("Tokyo")}};
  EXPECT_EQ(bb.sites().size(), 1u);
  EXPECT_DOUBLE_EQ(bb.transit_time(*db().find("Tokyo"), *db().find("Tokyo"))->value(),
                   0.0);
}

TEST(DefaultCorridors, NoEuropeSouthAsiaLink) {
  for (const auto& c : default_corridors()) {
    const auto a = db().find(c.a);
    const auto b = db().find(c.b);
    ASSERT_TRUE(a) << c.a;
    ASSERT_TRUE(b) << c.b;
    const bool eu_sa = (db().at(*a).region == topo::Region::Europe &&
                        db().at(*b).country == "India") ||
                       (db().at(*b).region == topo::Region::Europe &&
                        db().at(*a).country == "India");
    EXPECT_FALSE(eu_sa) << c.a << " -- " << c.b;
  }
}

}  // namespace
}  // namespace bgpcmp::wan
