#include "bgpcmp/bgp/prefix_map.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "bgpcmp/netbase/rng.h"

namespace bgpcmp::bgp {
namespace {

/// "a.b.c.d/len" as a Prefix (test inputs are always well formed).
Prefix p(std::string_view text) {
  const auto slash = text.find('/');
  const int len = std::stoi(std::string{text.substr(slash + 1)});
  return Prefix::make(*Ipv4Address::parse(text.substr(0, slash)),
                      static_cast<std::uint8_t>(len));
}
Ipv4Address ip(const char* text) { return *Ipv4Address::parse(text); }

TEST(PrefixMap, EmptyLookupsMiss) {
  PrefixMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.lookup(ip("1.2.3.4")), nullptr);
  EXPECT_EQ(map.exact(p("10.0.0.0/8")), nullptr);
}

TEST(PrefixMap, ExactInsertAndLookup) {
  PrefixMap<int> map;
  EXPECT_FALSE(map.insert(p("10.0.0.0/8"), 1));
  EXPECT_EQ(map.size(), 1u);
  ASSERT_NE(map.exact(p("10.0.0.0/8")), nullptr);
  EXPECT_EQ(*map.exact(p("10.0.0.0/8")), 1);
  EXPECT_EQ(map.exact(p("10.0.0.0/16")), nullptr);  // different length
}

TEST(PrefixMap, InsertOverwrites) {
  PrefixMap<int> map;
  map.insert(p("10.0.0.0/8"), 1);
  EXPECT_TRUE(map.insert(p("10.0.0.0/8"), 2));
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.exact(p("10.0.0.0/8")), 2);
}

TEST(PrefixMap, LongestPrefixWins) {
  PrefixMap<int> map;
  map.insert(p("10.0.0.0/8"), 8);
  map.insert(p("10.1.0.0/16"), 16);
  map.insert(p("10.1.2.0/24"), 24);
  EXPECT_EQ(*map.lookup(ip("10.1.2.3")), 24);
  EXPECT_EQ(*map.lookup(ip("10.1.9.1")), 16);
  EXPECT_EQ(*map.lookup(ip("10.9.9.9")), 8);
  EXPECT_EQ(map.lookup(ip("11.0.0.1")), nullptr);
}

TEST(PrefixMap, DefaultRouteCoversEverything) {
  PrefixMap<int> map;
  map.insert(p("0.0.0.0/0"), 0);
  map.insert(p("192.168.0.0/16"), 16);
  EXPECT_EQ(*map.lookup(ip("8.8.8.8")), 0);
  EXPECT_EQ(*map.lookup(ip("192.168.3.4")), 16);
}

TEST(PrefixMap, HostRoutes) {
  PrefixMap<int> map;
  map.insert(p("192.0.2.7/32"), 32);
  map.insert(p("192.0.2.0/24"), 24);
  EXPECT_EQ(*map.lookup(ip("192.0.2.7")), 32);
  EXPECT_EQ(*map.lookup(ip("192.0.2.8")), 24);
}

TEST(PrefixMap, EraseRestoresCoveringPrefix) {
  PrefixMap<int> map;
  map.insert(p("10.0.0.0/8"), 8);
  map.insert(p("10.1.0.0/16"), 16);
  EXPECT_TRUE(map.erase(p("10.1.0.0/16")));
  EXPECT_FALSE(map.erase(p("10.1.0.0/16")));
  EXPECT_EQ(*map.lookup(ip("10.1.2.3")), 8);
  EXPECT_EQ(map.size(), 1u);
}

TEST(PrefixMap, SiblingsDontInterfere) {
  PrefixMap<int> map;
  map.insert(p("128.0.0.0/1"), 1);
  map.insert(p("0.0.0.0/1"), 2);
  EXPECT_EQ(*map.lookup(ip("200.0.0.1")), 1);
  EXPECT_EQ(*map.lookup(ip("100.0.0.1")), 2);
}

TEST(PrefixMap, RandomizedAgainstLinearScan) {
  Rng rng{77};
  PrefixMap<std::uint32_t> map;
  std::vector<Prefix> prefixes;
  for (int i = 0; i < 300; ++i) {
    const auto bits = static_cast<std::uint32_t>(rng.uniform_int(0, 1LL << 31));
    const auto len = static_cast<std::uint8_t>(rng.uniform_int(4, 28));
    const auto prefix = Prefix::make(Ipv4Address{bits}, len);
    map.insert(prefix, static_cast<std::uint32_t>(prefixes.size()));
    prefixes.push_back(prefix);
  }
  // Overwrites make earlier entries stale; rebuild the reference view.
  for (int trial = 0; trial < 2000; ++trial) {
    const auto addr =
        Ipv4Address{static_cast<std::uint32_t>(rng.uniform_int(0, 1LL << 31))};
    // Linear-scan reference: most-specific covering prefix, latest insert wins.
    int best = -1;
    for (std::size_t i = 0; i < prefixes.size(); ++i) {
      if (!prefixes[i].contains(addr)) continue;
      if (best < 0 || prefixes[i].length() > prefixes[best].length() ||
          (prefixes[i].length() == prefixes[best].length() &&
           i > static_cast<std::size_t>(best))) {
        best = static_cast<int>(i);
      }
    }
    const auto* hit = map.lookup(addr);
    if (best < 0) {
      EXPECT_EQ(hit, nullptr);
    } else {
      ASSERT_NE(hit, nullptr);
      // The stored value is the index of the last insert of that exact
      // prefix; compare by prefix identity instead of index.
      EXPECT_TRUE(prefixes[*hit].contains(addr));
      EXPECT_EQ(prefixes[*hit].length(), prefixes[best].length());
    }
  }
}

TEST(PrefixMap, MoveOnlyValues) {
  PrefixMap<std::unique_ptr<int>> map;
  map.insert(p("10.0.0.0/8"), std::make_unique<int>(42));
  const auto* hit = map.lookup(ip("10.1.1.1"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(**hit, 42);
}

}  // namespace
}  // namespace bgpcmp::bgp
