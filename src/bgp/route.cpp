#include "bgpcmp/bgp/route.h"

#include "bgpcmp/netbase/check.h"

namespace bgpcmp::bgp {

std::string_view route_class_name(RouteClass c) {
  switch (c) {
    case RouteClass::None: return "none";
    case RouteClass::Origin: return "origin";
    case RouteClass::Customer: return "customer";
    case RouteClass::Peer: return "peer";
    case RouteClass::Provider: return "provider";
  }
  return "unknown";
}

std::vector<AsIndex> RouteTable::path(AsIndex from) const {
  std::vector<AsIndex> out;
  if (!reachable(from)) return out;
  // Every hop contributes at least 1 to the stored route length (prepending
  // adds more), so length+1 bounds the node count: one reserve, no regrowth.
  out.reserve(static_cast<std::size_t>(routes_[from].length) + 1);
  AsIndex cur = from;
  // A forwarding loop would indicate a propagation bug; bound the walk.
  for (std::size_t steps = 0; steps <= routes_.size(); ++steps) {
    out.push_back(cur);
    if (cur == origin_) return out;
    cur = routes_[cur].next_hop;
    BGPCMP_CHECK_NE(cur, kNoAs, "route table has a gap on the path toward the origin");
  }
  BGPCMP_FAIL("forwarding loop in route table");
  return {};
}

}  // namespace bgpcmp::bgp
