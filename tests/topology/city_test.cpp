#include "bgpcmp/topology/city.h"

#include <gtest/gtest.h>

#include <set>

namespace bgpcmp::topo {
namespace {

TEST(CityDb, WorldHasGlobalCoverage) {
  const CityDb& db = CityDb::world();
  EXPECT_GE(db.size(), 150u);
  for (const Region r :
       {Region::NorthAmerica, Region::SouthAmerica, Region::Europe, Region::Asia,
        Region::Oceania, Region::Africa, Region::MiddleEast}) {
    EXPECT_GE(db.in_region(r).size(), 5u) << region_name(r);
  }
}

TEST(CityDb, FindByName) {
  const CityDb& db = CityDb::world();
  const auto london = db.find("London");
  ASSERT_TRUE(london);
  EXPECT_EQ(db.at(*london).country, "United Kingdom");
  EXPECT_FALSE(db.find("Atlantis"));
}

TEST(CityDb, CaseStudyCitiesPresent) {
  // Cities the reproduction's scenarios depend on by name.
  const CityDb& db = CityDb::world();
  for (const char* name :
       {"Mumbai", "Chennai", "Singapore", "Kansas City", "Chicago", "Tokyo",
        "Sydney", "Frankfurt", "Sao Paulo", "Miami", "Seattle", "London"}) {
    EXPECT_TRUE(db.find(name)) << name;
  }
}

TEST(CityDb, IndiaHasMultipleMetros) {
  const CityDb& db = CityDb::world();
  std::size_t metros = 0;
  for (const City& c : db.all()) metros += c.country == "India" ? 1 : 0;
  EXPECT_GE(metros, 5u);
}

TEST(CityDb, CoordinatesAreValid) {
  const CityDb& db = CityDb::world();
  for (const City& c : db.all()) {
    EXPECT_GE(c.location.lat_deg, -90.0) << c.name;
    EXPECT_LE(c.location.lat_deg, 90.0) << c.name;
    EXPECT_GE(c.location.lon_deg, -180.0) << c.name;
    EXPECT_LE(c.location.lon_deg, 180.0) << c.name;
    EXPECT_GT(c.user_weight, 0.0) << c.name;
  }
}

TEST(CityDb, NamesAreUnique) {
  const CityDb& db = CityDb::world();
  std::set<std::string_view> names;
  for (const City& c : db.all()) {
    EXPECT_TRUE(names.insert(c.name).second) << "duplicate: " << c.name;
  }
}

TEST(CityDb, DistanceConsistentWithGeo) {
  const CityDb& db = CityDb::world();
  const auto ny = *db.find("New York");
  const auto ld = *db.find("London");
  EXPECT_NEAR(db.distance(ny, ld).value(), 5570.0, 60.0);
  EXPECT_DOUBLE_EQ(db.distance(ny, ny).value(), 0.0);
}

TEST(CityDb, RegionNamesAreDistinct) {
  std::set<std::string_view> names;
  for (const Region r :
       {Region::NorthAmerica, Region::SouthAmerica, Region::Europe, Region::Asia,
        Region::Oceania, Region::Africa, Region::MiddleEast}) {
    EXPECT_TRUE(names.insert(region_name(r)).second);
  }
}

TEST(CityDb, MiddleEastSeparateFromAsia) {
  // Fig 5 discusses the Middle East separately; Dubai and Cairo must not be
  // classified as Asia/Africa interchangeably with e.g. Mumbai.
  const CityDb& db = CityDb::world();
  EXPECT_EQ(db.at(*db.find("Dubai")).region, Region::MiddleEast);
  EXPECT_EQ(db.at(*db.find("Cairo")).region, Region::MiddleEast);
  EXPECT_EQ(db.at(*db.find("Mumbai")).region, Region::Asia);
}

}  // namespace
}  // namespace bgpcmp::topo
