#include "bgpcmp/topology/as_graph.h"

#include <algorithm>
#include <utility>

#include "bgpcmp/netbase/check.h"

namespace bgpcmp::topo {

std::string_view as_class_name(AsClass c) {
  switch (c) {
    case AsClass::Tier1: return "tier1";
    case AsClass::Transit: return "transit";
    case AsClass::Eyeball: return "eyeball";
    case AsClass::Stub: return "stub";
    case AsClass::Content: return "content";
  }
  return "unknown";
}

std::string_view link_kind_name(LinkKind k) {
  switch (k) {
    case LinkKind::Transit: return "transit";
    case LinkKind::PublicPeering: return "public-peering";
    case LinkKind::PrivatePeering: return "private-peering";
  }
  return "unknown";
}

EdgeIndex::EdgeIndex(const AsGraph& graph) {
  const std::size_t n = graph.as_count();
  offsets_.resize(n + 1, 0);
  asns_.resize(n);
  // The class of edge `e` as seen from its endpoint `i`.
  const auto group_of = [&](EdgeId e, AsIndex i) -> Group& {
    const AsEdge& edge = graph.edge(e);
    BGPCMP_CHECK(edge.a == i || edge.b == i, "an AS's edge list must hold its own edges");
    if (edge.rel == Relationship::PeerPeer) return peer_;
    return edge.b == i ? up_ : down_;
  };
  // Count pass: row sizes per class, then prefix sums into row starts.
  for (Group* g : {&up_, &down_, &peer_}) g->offsets.assign(n + 1, 0);
  for (AsIndex i = 0; i < n; ++i) {
    const AsNode& node = graph.node(i);
    offsets_[i + 1] = offsets_[i] + static_cast<std::uint32_t>(node.edges.size());
    asns_[i] = node.asn.value();
    for (const EdgeId e : node.edges) ++group_of(e, i).offsets[i + 1];
  }
  for (Group* g : {&up_, &down_, &peer_}) {
    for (AsIndex i = 0; i < n; ++i) g->offsets[i + 1] += g->offsets[i];
    g->edges.resize(g->offsets[n]);
    g->far.resize(g->offsets[n]);
  }
  // Fill pass: each row keeps insertion order within its class.
  incident_.resize(offsets_[n]);
  for (AsIndex i = 0; i < n; ++i) {
    std::uint32_t at = offsets_[i];
    for (const EdgeId e : graph.node(i).edges) {
      incident_[at++] = e;
      Group& g = group_of(e, i);
      const std::uint32_t k = g.offsets[i]++;
      g.edges[k] = e;
      g.far[k] = graph.other_end(e, i);
    }
  }
  // The fill advanced each row start to the row's end; shift them back.
  for (Group* g : {&up_, &down_, &peer_}) {
    for (AsIndex i = static_cast<AsIndex>(n); i > 0; --i) g->offsets[i] = g->offsets[i - 1];
    g->offsets[0] = 0;
  }

  // Kahn's algorithm, one level at a time: an AS becomes ready once every
  // provider is placed. Each level is placed in index order, so a sweep over
  // the order walks the per-AS arrays mostly forward.
  std::vector<std::uint32_t> providers_left(n);
  provider_first_.reserve(n);
  for (AsIndex i = 0; i < n; ++i) {
    providers_left[i] = static_cast<std::uint32_t>(up_far(i).size());
    if (providers_left[i] == 0) provider_first_.push_back(i);
  }
  for (std::size_t level = 0; level < provider_first_.size();) {
    const std::size_t level_end = provider_first_.size();
    for (std::size_t h = level; h < level_end; ++h) {
      for (const AsIndex c : down_far(provider_first_[h])) {
        if (--providers_left[c] == 0) provider_first_.push_back(c);
      }
    }
    std::sort(provider_first_.begin() + static_cast<std::ptrdiff_t>(level_end),
              provider_first_.end());
    level = level_end;
  }
  if (provider_first_.size() != n) provider_first_.clear();
}

const EdgeIndex& AsGraph::edge_index() const {
  auto cached = edge_index_cache_.load(std::memory_order_acquire);
  if (!cached) {
    auto built = std::make_shared<const EdgeIndex>(*this);
    std::shared_ptr<const EdgeIndex> expected;
    if (edge_index_cache_.compare_exchange_strong(expected, built,
                                                  std::memory_order_acq_rel,
                                                  std::memory_order_acquire)) {
      cached = std::move(built);
    } else {
      cached = std::move(expected);  // a concurrent builder won; same content
    }
  }
  return *cached;
}

AsGraph::AsGraph(const AsGraph& other)
    : nodes_(other.nodes_),
      edges_(other.edges_),
      links_(other.links_),
      presence_set_(other.presence_set_),
      edge_by_pair_(other.edge_by_pair_),
      index_by_asn_(other.index_by_asn_),
      edge_index_cache_(other.edge_index_cache_.load(std::memory_order_acquire)) {}

AsGraph::AsGraph(AsGraph&& other) noexcept
    : nodes_(std::move(other.nodes_)),
      edges_(std::move(other.edges_)),
      links_(std::move(other.links_)),
      presence_set_(std::move(other.presence_set_)),
      edge_by_pair_(std::move(other.edge_by_pair_)),
      index_by_asn_(std::move(other.index_by_asn_)),
      edge_index_cache_(other.edge_index_cache_.load(std::memory_order_acquire)) {
  other.edge_index_cache_.store(nullptr, std::memory_order_release);
}

AsIndex AsGraph::add_as(Asn asn, AsClass cls, std::string name,
                        std::vector<CityId> presence, CityId hub,
                        double backbone_inflation) {
  BGPCMP_CHECK(asn.valid(), "an AS needs a valid ASN");
  BGPCMP_CHECK(!presence.empty(), "an AS must be present in at least one city");
  AsNode node;
  node.asn = asn;
  node.cls = cls;
  node.name = std::move(name);
  node.hub = hub == kNoCity ? presence.front() : hub;
  node.presence = std::move(presence);
  node.backbone_inflation = backbone_inflation;
  nodes_.push_back(std::move(node));
  const auto idx = static_cast<AsIndex>(nodes_.size() - 1);
  for (const CityId c : nodes_.back().presence) {
    presence_set_.insert(presence_key(idx, c));
  }
  index_by_asn_.try_emplace(asn.value(), idx);  // first add of an ASN wins
  edge_index_cache_.store(nullptr, std::memory_order_release);
  return idx;
}

void AsGraph::add_presence(AsIndex i, CityId city) {
  BGPCMP_CHECK_LT(i, nodes_.size(), "AS index out of range");
  if (!presence_set_.insert(presence_key(i, city))) return;
  nodes_[i].presence.push_back(city);
}

EdgeId AsGraph::connect_transit(AsIndex provider, AsIndex customer) {
  BGPCMP_CHECK_LT(provider, nodes_.size(), "transit provider out of range");
  BGPCMP_CHECK_LT(customer, nodes_.size(), "transit customer out of range");
  BGPCMP_CHECK_NE(provider, customer, "an AS cannot be its own transit provider");
  BGPCMP_CHECK(!find_edge(provider, customer), "duplicate transit edge");
  edges_.push_back(AsEdge{provider, customer, Relationship::ProviderCustomer, {}});
  const auto id = static_cast<EdgeId>(edges_.size() - 1);
  nodes_[provider].edges.push_back(id);
  nodes_[customer].edges.push_back(id);
  edge_by_pair_.try_emplace(pair_key(provider, customer), id);
  edge_index_cache_.store(nullptr, std::memory_order_release);
  return id;
}

EdgeId AsGraph::connect_peering(AsIndex a, AsIndex b) {
  BGPCMP_CHECK_LT(a, nodes_.size(), "peering endpoint out of range");
  BGPCMP_CHECK_LT(b, nodes_.size(), "peering endpoint out of range");
  BGPCMP_CHECK_NE(a, b, "an AS cannot peer with itself");
  BGPCMP_CHECK(!find_edge(a, b), "duplicate peering edge");
  edges_.push_back(AsEdge{a, b, Relationship::PeerPeer, {}});
  const auto id = static_cast<EdgeId>(edges_.size() - 1);
  nodes_[a].edges.push_back(id);
  nodes_[b].edges.push_back(id);
  edge_by_pair_.try_emplace(pair_key(a, b), id);
  edge_index_cache_.store(nullptr, std::memory_order_release);
  return id;
}

LinkId AsGraph::add_link(EdgeId edge, CityId city, LinkKind kind,
                         GigabitsPerSecond capacity) {
  BGPCMP_CHECK_LT(edge, edges_.size(), "edge out of range");
  const AsEdge& e = edges_[edge];
  BGPCMP_CHECK(has_presence(e.a, city) && has_presence(e.b, city),
               "link endpoints must both be present in the link city");
  // Transit links only on provider-customer edges; peering links only on
  // peer-peer edges.
  BGPCMP_CHECK((kind == LinkKind::Transit) == (e.rel == Relationship::ProviderCustomer),
               "transit links pair with provider-customer edges, peering with peer-peer");
  (void)e;
  links_.push_back(InterconnectLink{edge, city, kind, capacity});
  const auto id = static_cast<LinkId>(links_.size() - 1);
  edges_[edge].links.push_back(id);
  return id;
}

void AsGraph::adopt(std::vector<AsNode> nodes, std::vector<AsEdge> edges,
                    std::vector<InterconnectLink> links) {
  for (const AsEdge& e : edges) {
    BGPCMP_CHECK_LT(e.a, nodes.size(), "adopted edge endpoint out of range");
    BGPCMP_CHECK_LT(e.b, nodes.size(), "adopted edge endpoint out of range");
  }
  for (const InterconnectLink& l : links) {
    BGPCMP_CHECK_LT(l.edge, edges.size(), "adopted link edge out of range");
  }
  nodes_ = std::move(nodes);
  edges_ = std::move(edges);
  links_ = std::move(links);
  presence_set_.clear();
  edge_by_pair_.clear();
  index_by_asn_.clear();
  std::size_t presence_total = 0;
  for (const AsNode& n : nodes_) presence_total += n.presence.size();
  presence_set_.reserve(presence_total);
  index_by_asn_.reserve(nodes_.size());
  edge_by_pair_.reserve(edges_.size());
  for (AsIndex i = 0; i < nodes_.size(); ++i) {
    for (const CityId c : nodes_[i].presence) presence_set_.insert(presence_key(i, c));
    index_by_asn_.try_emplace(nodes_[i].asn.value(), i);  // first add of an ASN wins
  }
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    edge_by_pair_.try_emplace(pair_key(edges_[e].a, edges_[e].b), e);
  }
  edge_index_cache_.store(nullptr, std::memory_order_release);
}

std::vector<Neighbor> AsGraph::neighbors(AsIndex i) const {
  BGPCMP_CHECK_LT(i, nodes_.size(), "AS index out of range");
  std::vector<Neighbor> out;
  out.reserve(nodes_[i].edges.size());
  for (const EdgeId e : nodes_[i].edges) {
    out.push_back(Neighbor{other_end(e, i), e, role_of_other(e, i)});
  }
  return out;
}

AsIndex AsGraph::other_end(EdgeId e, AsIndex i) const {
  const AsEdge& edge = edges_.at(e);
  BGPCMP_CHECK(edge.a == i || edge.b == i, "edge is not incident to this AS");
  return edge.a == i ? edge.b : edge.a;
}

NeighborRole AsGraph::role_of_other(EdgeId e, AsIndex i) const {
  const AsEdge& edge = edges_.at(e);
  BGPCMP_CHECK(edge.a == i || edge.b == i, "edge is not incident to this AS");
  if (edge.rel == Relationship::PeerPeer) return NeighborRole::Peer;
  // a is the provider: from a's view the other (b) is a customer.
  return edge.a == i ? NeighborRole::Customer : NeighborRole::Provider;
}

std::optional<EdgeId> AsGraph::find_edge(AsIndex a, AsIndex b) const {
  if (a >= nodes_.size() || b >= nodes_.size()) return std::nullopt;
  const EdgeId* e = edge_by_pair_.find(pair_key(a, b));
  if (e == nullptr) return std::nullopt;
  return *e;
}

bool AsGraph::has_presence(AsIndex i, CityId city) const {
  BGPCMP_CHECK_LT(i, nodes_.size(), "AS index out of range");
  return presence_set_.contains(presence_key(i, city));
}

std::optional<AsIndex> AsGraph::find_asn(Asn asn) const {
  const AsIndex* i = index_by_asn_.find(asn.value());
  if (i == nullptr) return std::nullopt;
  return *i;
}

std::vector<AsIndex> AsGraph::of_class(AsClass c) const {
  std::vector<AsIndex> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].cls == c) out.push_back(static_cast<AsIndex>(i));
  }
  return out;
}

}  // namespace bgpcmp::topo
