#include "bgpcmp/bgp/policy.h"

#include <gtest/gtest.h>

namespace bgpcmp::bgp {
namespace {

using topo::LinkKind;
using topo::NeighborRole;

TEST(EgressRank, OrderMatchesPaperPolicy) {
  // "prefers private peers with dedicated capacity first, then public peers,
  // and finally transit providers".
  const int pni = egress_rank(NeighborRole::Peer, LinkKind::PrivatePeering);
  const int pub = egress_rank(NeighborRole::Peer, LinkKind::PublicPeering);
  const int transit = egress_rank(NeighborRole::Provider, LinkKind::Transit);
  EXPECT_LT(pni, pub);
  EXPECT_LT(pub, transit);
}

TEST(EgressRank, ProviderRanksLastRegardlessOfKind) {
  EXPECT_EQ(egress_rank(NeighborRole::Provider, LinkKind::Transit),
            egress_rank(NeighborRole::Provider, LinkKind::PrivatePeering));
}

class PolicyCompareTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = g_.add_as(Asn{100}, topo::AsClass::Transit, "A", {0});
    b_ = g_.add_as(Asn{200}, topo::AsClass::Transit, "B", {0});
  }

  CandidateRoute make(topo::AsIndex nb, NeighborRole role, std::uint16_t len) {
    CandidateRoute c;
    c.neighbor = nb;
    c.neighbor_role = role;
    c.length = len;
    return c;
  }

  topo::AsGraph g_;
  topo::AsIndex a_, b_;
};

TEST_F(PolicyCompareTest, ClassBeatsLength) {
  // A long peer route still beats a short transit route.
  const auto peer = make(a_, NeighborRole::Peer, 6);
  const auto transit = make(b_, NeighborRole::Provider, 1);
  EXPECT_TRUE(egress_preferred(g_, peer, LinkKind::PublicPeering, transit,
                               LinkKind::Transit));
  EXPECT_FALSE(egress_preferred(g_, transit, LinkKind::Transit, peer,
                                LinkKind::PublicPeering));
}

TEST_F(PolicyCompareTest, PrivateBeatsPublicAmongPeers) {
  const auto pni = make(a_, NeighborRole::Peer, 3);
  const auto pub = make(b_, NeighborRole::Peer, 1);
  EXPECT_TRUE(egress_preferred(g_, pni, LinkKind::PrivatePeering, pub,
                               LinkKind::PublicPeering));
}

TEST_F(PolicyCompareTest, ShorterPathWinsWithinClass) {
  const auto shrt = make(a_, NeighborRole::Peer, 2);
  const auto lng = make(b_, NeighborRole::Peer, 3);
  EXPECT_TRUE(egress_preferred(g_, shrt, LinkKind::PublicPeering, lng,
                               LinkKind::PublicPeering));
  EXPECT_FALSE(egress_preferred(g_, lng, LinkKind::PublicPeering, shrt,
                                LinkKind::PublicPeering));
}

TEST_F(PolicyCompareTest, AsnBreaksFullTies) {
  const auto low = make(a_, NeighborRole::Provider, 2);   // ASN 100
  const auto high = make(b_, NeighborRole::Provider, 2);  // ASN 200
  EXPECT_TRUE(egress_preferred(g_, low, LinkKind::Transit, high, LinkKind::Transit));
  EXPECT_FALSE(egress_preferred(g_, high, LinkKind::Transit, low, LinkKind::Transit));
}

TEST(PolicyTieBreak, DuplicateAsnBreaksOnIndex) {
  // AsGraph accepts duplicate ASNs (they repeat in generated worlds from 72x
  // up). Two candidates tied on (rank, length, ASN) must still be ordered,
  // by AS index, or an unstable sort decides the BGP route.
  topo::AsGraph g;
  const topo::AsIndex lo = g.add_as(Asn{500}, topo::AsClass::Eyeball, "Lo", {0});
  const topo::AsIndex hi = g.add_as(Asn{500}, topo::AsClass::Eyeball, "Hi", {0});
  CandidateRoute a;
  a.neighbor = lo;
  a.neighbor_role = NeighborRole::Peer;
  a.length = 2;
  CandidateRoute b = a;
  b.neighbor = hi;
  EXPECT_TRUE(egress_preferred(g, a, LinkKind::PublicPeering, b, LinkKind::PublicPeering));
  EXPECT_FALSE(egress_preferred(g, b, LinkKind::PublicPeering, a, LinkKind::PublicPeering));
}

TEST_F(PolicyCompareTest, StrictWeakOrderingIrreflexive) {
  const auto c = make(a_, NeighborRole::Peer, 2);
  EXPECT_FALSE(egress_preferred(g_, c, LinkKind::PublicPeering, c,
                                LinkKind::PublicPeering));
}

}  // namespace
}  // namespace bgpcmp::bgp
