#include "bgpcmp/wan/backbone.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "bgpcmp/netbase/check.h"
#include "bgpcmp/netbase/geo.h"

namespace bgpcmp::wan {

std::vector<Corridor> default_corridors() {
  return {
      // Trans-Atlantic.
      {"New York", "London"},
      {"Washington DC", "Paris"},
      {"Boston", "Dublin"},
      {"Miami", "Lisbon"},
      // Trans-Pacific.
      {"Seattle", "Tokyo"},
      {"Los Angeles", "Tokyo"},
      {"San Francisco", "Osaka"},
      {"Los Angeles", "Sydney"},
      {"Seattle", "Seoul"},
      // Intra-Asia spine (reaches South Asia via Singapore only).
      {"Tokyo", "Seoul"},
      {"Tokyo", "Taipei"},
      {"Taipei", "Hong Kong"},
      {"Hong Kong", "Singapore"},
      {"Singapore", "Chennai"},
      {"Singapore", "Mumbai"},
      {"Singapore", "Jakarta"},
      {"Singapore", "Kuala Lumpur"},
      // Oceania.
      {"Sydney", "Singapore"},
      {"Sydney", "Auckland"},
      // Europe <-> Middle East (no onward corridor to South Asia).
      {"Frankfurt", "Dubai"},
      {"Marseille", "Cairo"},
      // Europe <-> Africa.
      {"London", "Lagos"},
      {"Lisbon", "Accra"},
      {"Marseille", "Johannesburg"},
      // Americas.
      {"Miami", "Fortaleza"},
      {"Miami", "Sao Paulo"},
      {"Miami", "Bogota"},
      {"Miami", "Panama City"},
      {"Sao Paulo", "Buenos Aires"},
  };
}

Backbone::Backbone(const CityDb* cities, std::vector<CityId> sites,
                   const BackboneConfig& config,
                   const std::vector<Corridor>& corridors)
    : cities_(cities), sites_(std::move(sites)), config_(config) {
  BGPCMP_CHECK(!sites_.empty(), "backbone has no sites");
  std::sort(sites_.begin(), sites_.end());
  sites_.erase(std::unique(sites_.begin(), sites_.end()), sites_.end());
  adj_.resize(sites_.size());

  // Intra-region nearest-neighbor mesh.
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    std::vector<std::pair<double, std::size_t>> near;
    for (std::size_t j = 0; j < sites_.size(); ++j) {
      if (i == j) continue;
      if (cities_->at(sites_[i]).region != cities_->at(sites_[j]).region) continue;
      near.emplace_back(cities_->distance(sites_[i], sites_[j]).value(), j);
    }
    std::sort(near.begin(), near.end());
    const std::size_t k = std::min(config_.intra_region_neighbors, near.size());
    for (std::size_t n = 0; n < k; ++n) add_link(i, near[n].second);
  }

  // Catalog corridors: attach to the nearest site of the endpoint's region.
  auto nearest_site = [&](std::string_view name) -> std::optional<std::size_t> {
    const auto endpoint = cities_->find(name);
    if (!endpoint) return std::nullopt;
    std::optional<std::size_t> best;
    double best_km = config_.corridor_attach_km;
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      if (cities_->at(sites_[i]).region != cities_->at(*endpoint).region) continue;
      const double km = cities_->distance(sites_[i], *endpoint).value();
      if (km <= best_km) {
        best_km = km;
        best = i;
      }
    }
    return best;
  };
  for (const Corridor& c : corridors) {
    const auto a = nearest_site(c.a);
    const auto b = nearest_site(c.b);
    if (a && b && *a != *b) add_link(*a, *b);
  }

  // Connectivity repair: a WAN with an unreachable edge site is not a WAN.
  // Repeatedly bridge the closest pair of sites across disconnected
  // components (the operator would lease exactly that capacity).
  for (;;) {
    std::vector<double> dist;
    std::vector<std::size_t> prev;
    shortest(0, dist, prev);
    std::size_t orphan = sites_.size();
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      if (dist[i] == std::numeric_limits<double>::max()) {
        orphan = i;
        break;
      }
    }
    if (orphan == sites_.size()) break;
    std::size_t best_in = 0;
    std::size_t best_out = orphan;
    double best_km = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      if (dist[i] == std::numeric_limits<double>::max()) continue;
      for (std::size_t j = 0; j < sites_.size(); ++j) {
        if (dist[j] != std::numeric_limits<double>::max()) continue;
        const double km = cities_->distance(sites_[i], sites_[j]).value();
        if (km < best_km) {
          best_km = km;
          best_in = i;
          best_out = j;
        }
      }
    }
    add_link(best_in, best_out);
  }
}

std::optional<std::size_t> Backbone::site_index(CityId city) const {
  const auto it = std::lower_bound(sites_.begin(), sites_.end(), city);
  if (it == sites_.end() || *it != city) return std::nullopt;
  return static_cast<std::size_t>(it - sites_.begin());
}

void Backbone::add_link(std::size_t a, std::size_t b) {
  BGPCMP_CHECK_LT(a, sites_.size(), "backbone site out of range");
  BGPCMP_CHECK_LT(b, sites_.size(), "backbone site out of range");
  BGPCMP_CHECK_NE(a, b, "backbone segment endpoints must differ");
  for (const auto& [other, km] : adj_[a]) {
    if (other == b) return;  // already linked
  }
  const double km = cities_->distance(sites_[a], sites_[b]).value();
  links_.push_back(BbLink{a, b, km});
  adj_[a].emplace_back(b, km);
  adj_[b].emplace_back(a, km);
}

void Backbone::shortest(std::size_t from, std::vector<double>& dist,
                        std::vector<std::size_t>& prev) const {
  constexpr double kInf = std::numeric_limits<double>::max();
  dist.assign(sites_.size(), kInf);
  prev.assign(sites_.size(), sites_.size());
  dist[from] = 0.0;
  using Item = std::pair<double, std::size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  pq.emplace(0.0, from);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    for (const auto& [v, km] : adj_[u]) {
      const double nd = d + km;
      if (nd < dist[v]) {
        dist[v] = nd;
        prev[v] = u;
        pq.emplace(nd, v);
      }
    }
  }
}

std::optional<Kilometers> Backbone::transit_distance(CityId from, CityId to) const {
  const auto a = site_index(from);
  const auto b = site_index(to);
  if (!a || !b) return std::nullopt;
  if (*a == *b) return Kilometers{0.0};
  std::vector<double> dist;
  std::vector<std::size_t> prev;
  shortest(*a, dist, prev);
  if (dist[*b] == std::numeric_limits<double>::max()) return std::nullopt;
  return Kilometers{dist[*b]};
}

std::optional<Milliseconds> Backbone::transit_time(CityId from, CityId to) const {
  const auto km = transit_distance(from, to);
  if (!km) return std::nullopt;
  return propagation_delay(*km, config_.inflation);
}

std::vector<CityId> Backbone::route(CityId from, CityId to) const {
  const auto a = site_index(from);
  const auto b = site_index(to);
  if (!a || !b) return {};
  std::vector<double> dist;
  std::vector<std::size_t> prev;
  shortest(*a, dist, prev);
  if (dist[*b] == std::numeric_limits<double>::max()) return {};
  std::vector<CityId> out;
  for (std::size_t cur = *b; cur != sites_.size(); cur = prev[cur]) {
    out.push_back(sites_[cur]);
    if (cur == *a) break;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace bgpcmp::wan
