// Internet exchange points.
//
// Public peering in the study (Fig 2's "public exchange" curve) happens
// across IXP fabrics; an IXP lives in a city and ASes present in that city
// may join and peer openly across it.
#pragma once

#include <string>
#include <vector>

#include "bgpcmp/topology/as_graph.h"
#include "bgpcmp/topology/city.h"

namespace bgpcmp::topo {

struct Ixp {
  std::string name;
  CityId city = kNoCity;
  std::vector<AsIndex> members;

  [[nodiscard]] bool is_member(AsIndex as) const;
};

/// Snapshot wire fields (world_snapshot.h), in declaration order.
template <class A>
void fields(A& a, Ixp& x) { a(x.name, x.city, x.members); }

/// Choose IXP host cities: the top `per_region` cities by user weight in each
/// region (major metros host the big exchanges).
[[nodiscard]] std::vector<CityId> choose_ixp_cities(const CityDb& db,
                                                    std::size_t per_region = 6);

}  // namespace bgpcmp::topo
