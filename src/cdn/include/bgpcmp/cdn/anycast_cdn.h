// Anycast CDN front-end selection (§2.3.2 / §3.2).
//
// The provider announces one anycast prefix from every PoP; BGP steers each
// client to a catchment PoP, which may or may not be nearby. Each front-end
// also has a unicast prefix announced only at its own PoP, so measurements
// (and DNS redirection) can target specific front-ends, exactly like the
// instrumented Bing clients of the Microsoft study.
#pragma once

#include <optional>
#include <set>
#include <vector>

#include "bgpcmp/bgp/propagation.h"
#include "bgpcmp/cdn/provider.h"
#include "bgpcmp/latency/path_model.h"
#include "bgpcmp/traffic/clients.h"

namespace bgpcmp::cdn {

class AnycastCdn {
 public:
  /// `internet` and `provider` must outlive the CDN. Routes — the anycast
  /// table and every front-end's unicast table — are computed on
  /// construction with an unscoped (ungroomed) anycast announcement; the
  /// per-PoP tables fan out over the exec thread pool. After construction
  /// all route queries are read-only and safe to call concurrently.
  AnycastCdn(const Internet* internet, const ContentProvider* provider);

  /// Re-announce the anycast prefix with a groomed spec (prepends,
  /// suppressed sessions) and recompute routes. The spec's origin must be
  /// the provider AS.
  void set_anycast_spec(bgp::OriginSpec spec);

  [[nodiscard]] const bgp::OriginSpec& anycast_spec() const { return anycast_spec_; }
  [[nodiscard]] const bgp::RouteTable& anycast_table() const { return *anycast_table_; }
  [[nodiscard]] const ContentProvider& provider() const { return *provider_; }

  /// A client's BGP route to the anycast prefix, geographically realized; the
  /// catchment is the PoP where the path enters the provider.
  struct AnycastRoute {
    lat::GeoPath path;
    PopId pop = kNoPop;

    [[nodiscard]] bool valid() const { return path.valid(); }
  };
  // Const reads over tables the constructor computed: a constructed
  // AnycastCdn is complete, so parallel regions may call these freely.
  [[nodiscard]] AnycastRoute anycast_route(const traffic::ClientPrefix& client) const;

  /// The client's route to the unicast prefix of a specific front-end
  /// (announced only at that PoP). Invalid if unreachable or the PoP is down.
  [[nodiscard]] lat::GeoPath unicast_route(const traffic::ClientPrefix& client,
                                           PopId pop) const;

  /// Mark front-ends as failed: their unicast prefixes stop answering (the
  /// availability study, E13). Anycast withdrawal is separate — suppress the
  /// PoP's sessions in the anycast spec for that. Pass {} to restore.
  void set_failed_pops(std::set<PopId> failed);
  [[nodiscard]] const std::set<PopId>& failed_pops() const { return failed_pops_; }

  /// The `count` front-ends nearest to the client (candidates for unicast
  /// measurements / DNS redirection).
  [[nodiscard]] std::vector<PopId> nearby_front_ends(const traffic::ClientPrefix& client,
                                                     std::size_t count) const;

 private:
  /// Compute every front-end's scoped unicast table, one parallel task per
  /// PoP. Called once from the constructor; replaces the old lazy per-call
  /// population, which mutated mutable caches from const methods and raced
  /// under concurrent unicast_route callers.
  void warm_unicast_tables();

  const Internet* internet_;
  const ContentProvider* provider_;
  bgp::OriginSpec anycast_spec_;
  std::set<PopId> failed_pops_;
  std::optional<bgp::RouteTable> anycast_table_;
  std::vector<bgp::RouteTable> unicast_tables_;  ///< indexed by PopId
  std::vector<bgp::OriginSpec> unicast_specs_;   ///< indexed by PopId
};

}  // namespace bgpcmp::cdn
