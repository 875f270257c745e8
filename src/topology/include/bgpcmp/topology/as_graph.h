// AS-level Internet graph with business relationships and geographically
// located interconnection links.
//
// Nodes are Autonomous Systems; edges carry a Gao-Rexford relationship
// (provider-customer or peer-peer); each edge is realized by one or more
// *links*, each pinned to a city — because "where" two ASes interconnect is
// what determines path geography, hot- vs cold-potato behaviour, and hence
// every latency in the study.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bgpcmp/netbase/asn.h"
#include "bgpcmp/netbase/units.h"
#include "bgpcmp/topology/city.h"

namespace bgpcmp::topo {

using AsIndex = std::uint32_t;
using EdgeId = std::uint32_t;
using LinkId = std::uint32_t;
inline constexpr AsIndex kNoAs = 0xffffffff;
inline constexpr EdgeId kNoEdge = 0xffffffff;
inline constexpr LinkId kNoLink = 0xffffffff;

/// Business class of an AS; drives presence footprint, intra-AS path quality,
/// and generation-time connectivity.
enum class AsClass : std::uint8_t {
  Tier1,    ///< global transit-free backbone
  Transit,  ///< regional/national transit provider
  Eyeball,  ///< access ISP hosting end users
  Stub,     ///< small enterprise/regional network, single-homed or dual-homed
  Content,  ///< content/cloud provider (CDN, hyperscaler)
};

[[nodiscard]] std::string_view as_class_name(AsClass c);

/// Relationship of edge endpoints: either `a` is the provider of `b`, or the
/// two are settlement-free peers.
enum class Relationship : std::uint8_t { ProviderCustomer, PeerPeer };

/// How a particular interconnection is realized. The paper's Fig 2 contrasts
/// peer-vs-transit and private-vs-public-exchange interconnections.
enum class LinkKind : std::uint8_t {
  Transit,         ///< customer-provider link
  PublicPeering,   ///< peering across a public IXP fabric
  PrivatePeering,  ///< private network interconnect (PNI), dedicated capacity
};

[[nodiscard]] std::string_view link_kind_name(LinkKind k);

/// One physical interconnection between the two ASes of an edge, in a city.
struct InterconnectLink {
  EdgeId edge = kNoEdge;
  CityId city = kNoCity;
  LinkKind kind = LinkKind::Transit;
  GigabitsPerSecond capacity{100.0};
};

/// An adjacency between two ASes. `rel == ProviderCustomer` means node `a` is
/// the provider and `b` the customer.
struct AsEdge {
  AsIndex a = kNoAs;
  AsIndex b = kNoAs;
  Relationship rel = Relationship::PeerPeer;
  /// Incident interconnect links; rebuilt from the link section on load, not
  /// part of the edge's own wire layout.
  std::vector<LinkId> links;  // lint:allow(D8)
};

/// An Autonomous System.
struct AsNode {
  Asn asn;
  AsClass cls = AsClass::Stub;
  std::string name;
  std::vector<CityId> presence;  ///< cities where the AS has routers
  CityId hub = kNoCity;          ///< backbone hub (detours route via here)
  double backbone_inflation = 1.3;  ///< intra-AS cable-vs-geodesic inflation
  /// Incident edges: derived adjacency, recomputed from the edge section on
  /// load rather than serialized.
  std::vector<EdgeId> edges;  // lint:allow(D8)
};

/// Role of a neighbor from one endpoint's point of view.
enum class NeighborRole : std::uint8_t { Customer, Peer, Provider };

/// A neighbor as seen from a node: which AS, via which edge, playing what role.
struct Neighbor {
  AsIndex as = kNoAs;
  EdgeId edge = kNoEdge;
  NeighborRole role = NeighborRole::Peer;
};

class AsGraph;

/// CSR (compressed-sparse-row) snapshot of every AS's incident edges.
///
/// `edges_of(i)` walks the edges in the same order as
/// `AsGraph::node(i).edges` (so swapping it in for `neighbors()` cannot
/// reorder any downstream output). Beside it, each relationship class has a
/// CSR of its own — up (toward providers), down (toward customers) and peer
/// — holding each AS's edges of that class in insertion order and, element
/// for element, their far endpoints, so route propagation relaxes exactly
/// the edge class a step needs without reading an AsEdge. Separate classes
/// keep the few provider-customer edges (~6% at 30x, the rest are peerings)
/// contiguous instead of strewn between peer rows. A dense ASN array and a
/// provider-first AS order complete what the propagation kernel reads.
/// Self-contained: valid for as long as the topology it was built from is
/// unchanged.
class EdgeIndex {
 public:
  explicit EdgeIndex(const AsGraph& graph);

  /// All edges incident to `i`, in `AsGraph::node(i).edges` order.
  [[nodiscard]] std::span<const EdgeId> edges_of(AsIndex i) const {
    return {incident_.data() + offsets_[i], incident_.data() + offsets_[i + 1]};
  }
  /// Edges on which `i` is the customer (the far endpoint is a provider).
  [[nodiscard]] std::span<const EdgeId> up_edges(AsIndex i) const { return up_.edges_of(i); }
  /// Edges on which `i` is the provider (the far endpoint is a customer).
  [[nodiscard]] std::span<const EdgeId> down_edges(AsIndex i) const {
    return down_.edges_of(i);
  }
  /// Peer-peer edges incident to `i`.
  [[nodiscard]] std::span<const EdgeId> peer_edges(AsIndex i) const {
    return peer_.edges_of(i);
  }
  /// The providers of `i`: far ends of up_edges(i), element for element.
  [[nodiscard]] std::span<const AsIndex> up_far(AsIndex i) const { return up_.far_of(i); }
  /// The customers of `i`: far ends of down_edges(i), element for element.
  [[nodiscard]] std::span<const AsIndex> down_far(AsIndex i) const { return down_.far_of(i); }
  /// The peers of `i`: far ends of peer_edges(i), element for element.
  [[nodiscard]] std::span<const AsIndex> peer_far(AsIndex i) const { return peer_.far_of(i); }
  /// Every AS's ASN value, by AS index.
  [[nodiscard]] std::span<const std::uint32_t> asns() const { return asns_; }
  /// Every AS once, each after all of its providers: Kahn's algorithm over
  /// the up/down groups, one level at a time, each level in index order.
  /// Empty iff the provider-customer edges form a cycle.
  [[nodiscard]] std::span<const AsIndex> provider_first() const { return provider_first_; }

  [[nodiscard]] std::size_t as_count() const { return offsets_.size() - 1; }

 private:
  /// One relationship class: row i lists i's edges of the class.
  struct Group {
    std::vector<std::uint32_t> offsets;  ///< n+1 row starts
    std::vector<EdgeId> edges;           ///< per AS, edge-insertion order
    std::vector<AsIndex> far;            ///< far endpoint of each edge

    [[nodiscard]] std::span<const EdgeId> edges_of(AsIndex i) const {
      return {edges.data() + offsets[i], edges.data() + offsets[i + 1]};
    }
    [[nodiscard]] std::span<const AsIndex> far_of(AsIndex i) const {
      return {far.data() + offsets[i], far.data() + offsets[i + 1]};
    }
  };

  std::vector<std::uint32_t> offsets_;   ///< n+1 row starts into incident_
  std::vector<EdgeId> incident_;         ///< per AS, edge-insertion order
  Group up_;
  Group down_;
  Group peer_;
  std::vector<std::uint32_t> asns_;      ///< AsNode::asn values, by index
  std::vector<AsIndex> provider_first_;  ///< topological order; empty if cyclic
};

class AsGraph {
 public:
  AsGraph() = default;
  // Copies and moves carry the cached edge index along (it is an immutable
  // snapshot of the same topology); a moved-from graph drops its cache. A
  // graph is built in place, never assigned over.
  AsGraph(const AsGraph& other);
  AsGraph& operator=(const AsGraph& other) = delete;
  AsGraph(AsGraph&& other) noexcept;
  AsGraph& operator=(AsGraph&& other) = delete;
  ~AsGraph() = default;

  /// Add an AS. `presence` must be non-empty; the first city is the hub
  /// unless `hub` is given.
  AsIndex add_as(Asn asn, AsClass cls, std::string name, std::vector<CityId> presence,
                 CityId hub = kNoCity, double backbone_inflation = 1.3);

  /// Create a provider->customer edge (no links yet).
  EdgeId connect_transit(AsIndex provider, AsIndex customer);
  /// Create a peer-peer edge (no links yet).
  EdgeId connect_peering(AsIndex a, AsIndex b);
  /// Extend an AS into a city (no-op if already present). The only way to
  /// grow a presence footprint after add_as, so the presence index stays in
  /// sync. Does not invalidate the CSR edge index (incidence is unchanged).
  void add_presence(AsIndex i, CityId city);
  /// Attach a physical link to an edge at a city. Both ASes must be present
  /// in that city.
  LinkId add_link(EdgeId edge, CityId city, LinkKind kind, GigabitsPerSecond capacity);

  /// Trusted bulk restore for snapshot loads: adopt fully-formed node, edge,
  /// and link arrays (including the derived `AsNode::edges` / `AsEdge::links`
  /// lists, in mutator order) and rebuild every incremental index in one
  /// reserving pass. Only cross-reference ranges are checked here — the
  /// per-mutator semantic invariants (presence, duplicate edges, kind↔rel)
  /// are skipped, so callers must verify the adopted graph against a stored
  /// `internet_fingerprint`, as `load_world_snapshot` does.
  void adopt(std::vector<AsNode> nodes, std::vector<AsEdge> edges,
             std::vector<InterconnectLink> links);

  [[nodiscard]] std::size_t as_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  [[nodiscard]] const AsNode& node(AsIndex i) const { return nodes_.at(i); }
  [[nodiscard]] const AsEdge& edge(EdgeId e) const { return edges_.at(e); }
  [[nodiscard]] const InterconnectLink& link(LinkId l) const { return links_.at(l); }
  [[nodiscard]] std::span<const AsNode> nodes() const { return nodes_; }
  [[nodiscard]] std::span<const AsEdge> edges() const { return edges_; }
  [[nodiscard]] std::span<const InterconnectLink> links() const { return links_; }

  /// Neighbors of `i` with their roles (one entry per edge). Allocates;
  /// hot loops should walk `edge_index().edges_of(i)` instead.
  [[nodiscard]] std::vector<Neighbor> neighbors(AsIndex i) const;

  /// The CSR incident-edge index, built lazily on first use and cached
  /// until the next topology mutation (add_as / connect_*). Safe to call
  /// concurrently on an immutable graph: losers of the one-time build race
  /// adopt the winner's identical snapshot. Hot loops should grab the
  /// reference once rather than re-resolving per call; the reference stays
  /// valid until the next mutation.
  [[nodiscard]] const EdgeIndex& edge_index() const;

  /// Convenience for one-off walks: edge_index().edges_of(i).
  [[nodiscard]] std::span<const EdgeId> edges_of(AsIndex i) const {
    return edge_index().edges_of(i);
  }

  /// The other endpoint of `e` relative to `i`.
  [[nodiscard]] AsIndex other_end(EdgeId e, AsIndex i) const;
  /// Role the *other* endpoint plays relative to `i` on edge `e`.
  [[nodiscard]] NeighborRole role_of_other(EdgeId e, AsIndex i) const;

  /// Edge between a and b if one exists. O(1): hash lookup on the unordered
  /// endpoint pair, maintained incrementally by connect_transit/connect_peering.
  [[nodiscard]] std::optional<EdgeId> find_edge(AsIndex a, AsIndex b) const;

  /// True if the AS has a router in the city. O(1): hash lookup on the
  /// (AS, city) pair, maintained incrementally by add_as/add_presence.
  [[nodiscard]] bool has_presence(AsIndex i, CityId city) const;

  /// Lookup by ASN. O(1); if the same ASN was added twice the first (lowest
  /// index) wins, matching the historical linear-scan semantics.
  [[nodiscard]] std::optional<AsIndex> find_asn(Asn asn) const;

  /// All AS indices of a given class.
  [[nodiscard]] std::vector<AsIndex> of_class(AsClass c) const;

 private:
  /// Key for presence_set_: (AS index, city) packed into one word.
  [[nodiscard]] static std::uint64_t presence_key(AsIndex i, CityId city) {
    return (static_cast<std::uint64_t>(i) << 16) | city;
  }
  /// Key for edge_by_pair_: the unordered endpoint pair, min-first.
  [[nodiscard]] static std::uint64_t pair_key(AsIndex a, AsIndex b) {
    const AsIndex lo = a < b ? a : b;
    const AsIndex hi = a < b ? b : a;
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }

  std::vector<AsNode> nodes_;
  std::vector<AsEdge> edges_;
  std::vector<InterconnectLink> links_;
  // Incremental lookup indices, kept in sync by the mutating methods above.
  // Unlike the CSR snapshot below they are never invalidated wholesale —
  // every mutation updates them in place, so reads are always O(1) even
  // mid-construction (build_internet queries the half-built graph heavily).
  std::unordered_set<std::uint64_t> presence_set_;          ///< presence_key()
  std::unordered_map<std::uint64_t, EdgeId> edge_by_pair_;  ///< pair_key()
  std::unordered_map<std::uint32_t, AsIndex> index_by_asn_;
  /// Lazily-built CSR snapshot; null until first edge_index() call and after
  /// every incidence-changing mutation. Atomic so concurrent first reads of
  /// an immutable graph are race-free (see edge_index()).
  mutable std::atomic<std::shared_ptr<const EdgeIndex>> edge_index_cache_{nullptr};
};

}  // namespace bgpcmp::topo
