// Private WAN backbone with explicit cable geography.
//
// Inside the AS graph, intra-AS travel is approximated as inflated geodesics;
// that is fine for transit networks but wrong for the question Fig 5 asks,
// because a cloud WAN's reach follows its actual fiber: Google's WAN carried
// India traffic *east* across the Pacific while Tier-1s carried it west via
// Europe (§3.3.2). The backbone is therefore a real graph: nodes are WAN edge
// sites, links follow a configurable catalog of long-haul corridors
// (submarine cable systems), and transit time is shortest-path over it.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "bgpcmp/netbase/units.h"
#include "bgpcmp/topology/city.h"

namespace bgpcmp::wan {

using topo::CityDb;
using topo::CityId;

/// One long-haul corridor between two metros (by city name).
struct Corridor {
  std::string_view a;
  std::string_view b;
};

struct BackboneConfig {
  /// Within a region, each site links to its `intra_region_neighbors` nearest
  /// sites (terrestrial fiber is dense).
  std::size_t intra_region_neighbors = 3;
  /// A catalog corridor is realized if both endpoints have a site within this
  /// distance (same region as the endpoint).
  double corridor_attach_km = 2500.0;
  /// Fiber route vs geodesic inflation on backbone segments.
  double inflation = 1.08;
};

/// The default corridor catalog: a coarse map of today's intercontinental
/// cable systems. Deliberately contains NO Europe<->South-Asia corridor —
/// this cloud WAN reaches India via Singapore, reproducing the case study
/// where the public Internet (via Europe) beats the private WAN for India.
[[nodiscard]] std::vector<Corridor> default_corridors();

class Backbone {
 public:
  /// Build over the given sites. Sites in the same region are meshed to
  /// nearest neighbors; catalog corridors bridge regions.
  Backbone(const CityDb* cities, std::vector<CityId> sites,
           const BackboneConfig& config = {},
           const std::vector<Corridor>& corridors = default_corridors());

  [[nodiscard]] std::span<const CityId> sites() const { return sites_; }

  /// One-way transit time between two sites over the backbone; nullopt if
  /// either city is not a site or they are disconnected.
  [[nodiscard]] std::optional<Milliseconds> transit_time(CityId from, CityId to) const;

  /// The site sequence of the shortest path (empty if disconnected).
  [[nodiscard]] std::vector<CityId> route(CityId from, CityId to) const;

  /// Total one-way fiber distance of the shortest path.
  [[nodiscard]] std::optional<Kilometers> transit_distance(CityId from,
                                                           CityId to) const;

  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

 private:
  struct BbLink {
    std::size_t a;
    std::size_t b;
    double km;
  };

  [[nodiscard]] std::optional<std::size_t> site_index(CityId city) const;
  void add_link(std::size_t a, std::size_t b);
  /// Dijkstra from a site; returns per-site distance (km) and predecessor.
  void shortest(std::size_t from, std::vector<double>& dist,
                std::vector<std::size_t>& prev) const;

  const CityDb* cities_;
  std::vector<CityId> sites_;
  std::vector<BbLink> links_;
  std::vector<std::vector<std::pair<std::size_t, double>>> adj_;  // (site, km)
  BackboneConfig config_;
};

}  // namespace bgpcmp::wan
