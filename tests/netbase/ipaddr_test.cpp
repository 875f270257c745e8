#include "bgpcmp/netbase/ipaddr.h"

#include <gtest/gtest.h>

#include <ostream>

namespace bgpcmp {
namespace {

/// The prefix of length `len` covering the dotted-quad address `addr`.
Prefix pfx(const char* addr, int len) {
  return Prefix::make(*Ipv4Address::parse(addr), static_cast<std::uint8_t>(len));
}

TEST(Ipv4Address, ParsesDottedQuad) {
  const auto a = Ipv4Address::parse("192.0.2.1");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->bits(), 0xC0000201u);
  EXPECT_EQ(a->str(), "192.0.2.1");
}

TEST(Ipv4Address, ParsesExtremes) {
  EXPECT_EQ(Ipv4Address::parse("0.0.0.0")->bits(), 0u);
  EXPECT_EQ(Ipv4Address::parse("255.255.255.255")->bits(), 0xFFFFFFFFu);
}

struct MalformedCase {
  const char* name;
  const char* text;
};

// Printing the case by name keeps the listed test names the same from run to
// run; gtest's default would print the pointers' bytes.
void PrintTo(const MalformedCase& c, std::ostream* os) { *os << c.name; }

class MalformedAddress : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(MalformedAddress, IsRejected) {
  EXPECT_FALSE(Ipv4Address::parse(GetParam().text)) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Parsing, MalformedAddress,
    ::testing::Values(MalformedCase{"Empty", ""},
                      MalformedCase{"ThreeOctets", "1.2.3"},
                      MalformedCase{"FiveOctets", "1.2.3.4.5"},
                      MalformedCase{"OctetOver255", "256.0.0.1"},
                      MalformedCase{"NonDigit", "1.2.3.x"},
                      MalformedCase{"LeadingZero", "01.2.3.4"},
                      MalformedCase{"EmptyOctet", "1..2.3"},
                      MalformedCase{"LeadingSpace", " 1.2.3.4"},
                      MalformedCase{"TrailingSpace", "1.2.3.4 "},
                      MalformedCase{"NegativeOctet", "-1.2.3.4"}));

TEST(Ipv4Address, RoundTripsThroughString) {
  for (const std::uint32_t bits : {0u, 1u, 0x7F000001u, 0xC0A80101u, 0xFFFFFFFEu}) {
    const Ipv4Address a{bits};
    const auto parsed = Ipv4Address::parse(a.str());
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->bits(), bits);
  }
}

TEST(Prefix, ParsesAndMasksHostBits) {
  const auto p = pfx("203.0.113.77", 24);
  EXPECT_EQ(p.str(), "203.0.113.0/24");
  EXPECT_EQ(p.length(), 24);
}

TEST(Prefix, ContainsAddressesInRange) {
  const auto p = pfx("10.1.2.0", 24);
  EXPECT_TRUE(p.contains(*Ipv4Address::parse("10.1.2.0")));
  EXPECT_TRUE(p.contains(*Ipv4Address::parse("10.1.2.255")));
  EXPECT_FALSE(p.contains(*Ipv4Address::parse("10.1.3.0")));
  EXPECT_FALSE(p.contains(*Ipv4Address::parse("10.1.1.255")));
}

TEST(Prefix, ZeroLengthContainsEverything) {
  const auto p = Prefix::make(Ipv4Address{0x12345678}, 0);
  EXPECT_EQ(p.network().bits(), 0u);
  EXPECT_TRUE(p.contains(Ipv4Address{0xFFFFFFFF}));
  EXPECT_TRUE(p.contains(Ipv4Address{0}));
  EXPECT_EQ(p.size(), std::uint64_t{1} << 32);
}

TEST(Prefix, HostRouteContainsOnlyItself) {
  const auto p = pfx("192.0.2.7", 32);
  EXPECT_TRUE(p.contains(*Ipv4Address::parse("192.0.2.7")));
  EXPECT_FALSE(p.contains(*Ipv4Address::parse("192.0.2.8")));
  EXPECT_EQ(p.size(), 1u);
}

TEST(Prefix, CoversMoreSpecifics) {
  const auto p16 = pfx("10.1.0.0", 16);
  const auto p24 = pfx("10.1.2.0", 24);
  EXPECT_TRUE(p16.covers(p24));
  EXPECT_FALSE(p24.covers(p16));
  EXPECT_TRUE(p16.covers(p16));
  EXPECT_FALSE(p16.covers(pfx("10.2.0.0", 24)));
}

TEST(Prefix, SizeIsPowerOfTwo) {
  EXPECT_EQ(pfx("0.0.0.0", 8).size(), 1u << 24);
  EXPECT_EQ(pfx("0.0.0.0", 24).size(), 256u);
  EXPECT_EQ(pfx("0.0.0.0", 30).size(), 4u);
}

TEST(Prefix, HashDistinguishesLengths) {
  const auto a = pfx("10.0.0.0", 8);
  const auto b = pfx("10.0.0.0", 16);
  EXPECT_NE(a, b);
  EXPECT_NE(std::hash<Prefix>{}(a), std::hash<Prefix>{}(b));
}

}  // namespace
}  // namespace bgpcmp
