#include "bgpcmp/core/snapshot.h"

#include <bit>
#include <utility>

#include "bgpcmp/netbase/check.h"
#include "bgpcmp/topology/world_snapshot.h"

namespace bgpcmp::core {
namespace {

constexpr std::uint32_t kServingSections =
    topo::kSectionWorld | topo::kSectionProvider | topo::kSectionClients |
    topo::kSectionTables;

/// Incremental FNV-1a over typed fields; the declaration-order walk below is
/// the fingerprint's definition.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void byte(unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>((v >> (8 * i)) & 0xff));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  void boolean(bool v) { byte(v ? 1 : 0); }
};

}  // namespace

std::uint64_t scenario_config_fingerprint(const ScenarioConfig& config) {
  Fnv fp;
  // internet: the existing non-seed knob fingerprint (with its own field-count
  // tripwire test) plus the seed.
  fp.u64(topo::internet_config_fingerprint(config.internet));
  fp.u64(config.internet.seed);
  // provider, declaration order.
  const auto& p = config.provider;
  fp.u64(p.seed);
  fp.str(p.name);
  fp.u64(p.asn);
  fp.u64(p.pop_count);
  fp.u64(p.extra_pop_cities.size());
  for (const auto city : p.extra_pop_cities) fp.str(city);
  fp.f64(p.pni_eyeball_fraction);
  fp.f64(p.ixp_peer_prob);
  fp.f64(p.transit_peer_scale);
  fp.f64(p.public_session_density);
  fp.u64(p.pni_max_links);
  fp.i64(p.transit_provider_count);
  fp.u64(p.transit_session_pops);
  fp.f64(p.pni_capacity_gbps);
  fp.f64(p.public_capacity_gbps);
  fp.f64(p.transit_capacity_gbps);
  fp.f64(p.backbone_inflation);
  // clients.
  const auto& c = config.clients;
  fp.u64(c.seed);
  fp.i64(c.prefixes_per_eyeball_city);
  fp.boolean(c.include_stubs);
  fp.f64(c.access_base_rtt_min_ms);
  fp.f64(c.access_base_rtt_max_ms);
  // demand.
  const auto& d = config.demand;
  fp.u64(d.seed);
  fp.f64(d.zipf_exponent);
  fp.f64(d.mean_bytes_per_window);
  fp.f64(d.diurnal_amplitude);
  // congestion.
  const auto& g = config.congestion;
  fp.f64(g.horizon_days);
  fp.f64(g.base_util_min);
  fp.f64(g.base_util_max);
  fp.f64(g.diurnal_amplitude);
  fp.f64(g.event_rate_per_day);
  fp.f64(g.event_duration_mean_hours);
  fp.f64(g.event_extra_util_mean);
  fp.f64(g.queue_scale_ms);
  fp.f64(g.queue_cap_ms);
  fp.f64(g.access_event_rate_per_day);
  fp.f64(g.access_event_duration_mean_hours);
  fp.f64(g.access_event_delay_mean_ms);
  fp.f64(g.access_diurnal_peak_ms);
  // latency.
  fp.f64(config.latency.per_hop_processing_ms);
  return fp.h;
}

void save_serving_snapshot(const std::string& path, const Scenario& scenario,
                           std::span<const topo::AsIndex> warmed,
                           const bgp::RouteCache& tables) {
  topo::SnapshotWriter w;
  // World, provider (its AS and PoPs) and clients sections.
  w(scenario.internet, scenario.provider.as_index(), scenario.provider.pops(),
    scenario.clients.prefixes());
  // Tables section: every warmed origin's full per-AS route rows.
  w(static_cast<std::uint32_t>(warmed.size()));
  for (const topo::AsIndex origin : warmed) {
    const bgp::RouteTable* table = tables.find(origin);
    BGPCMP_CHECK(table != nullptr, "saving a serving snapshot with an unwarmed origin");
    w(origin, table->routes());
  }

  topo::SnapshotHeader header;
  header.sections = kServingSections;
  header.config_fp = scenario_config_fingerprint(scenario.config);
  header.world_fp = topo::internet_fingerprint(scenario.internet);
  topo::write_snapshot_file(path, header, w.bytes());
}

ServingState load_serving_snapshot(const std::string& path,
                                   const ScenarioConfig& config,
                                   topo::SnapshotVerify verify) {
  const topo::SnapshotFile f = topo::read_snapshot_file(path);
  BGPCMP_CHECK_EQ(f.header().sections, kServingSections,
                  "expected a full serving snapshot");
  BGPCMP_CHECK_EQ(f.header().config_fp, scenario_config_fingerprint(config),
                  "serving snapshot was built from a different ScenarioConfig");
  topo::SnapshotReader r(f.payload());

  topo::Internet world = topo::deserialize_internet(r);
  if (verify == topo::SnapshotVerify::kFull) {
    BGPCMP_CHECK_EQ(topo::internet_fingerprint(world), f.header().world_fp,
                    "materialized world does not match the stored fingerprint");
  }

  // Provider: the AS and its links are already in the replayed world; restore
  // only the provider-side bookkeeping and sanity-bind it to the config.
  topo::AsIndex provider_as = topo::kNoAs;
  std::vector<cdn::Pop> pops;
  r(provider_as, pops);
  BGPCMP_CHECK_LT(provider_as, world.graph.as_count(),
                  "snapshot provider AS outside the world");
  BGPCMP_CHECK_EQ(world.graph.node(provider_as).asn.value(), config.provider.asn,
                  "snapshot provider AS does not carry the configured ASN");
  for (const cdn::Pop& pop : pops) {
    for (const topo::LinkId link : pop.links) {
      BGPCMP_CHECK_LT(link, world.graph.link_count(), "snapshot PoP link out of range");
    }
  }
  cdn::ContentProvider provider =
      cdn::ContentProvider::restore(provider_as, std::move(pops), config.provider);

  // Clients.
  std::vector<traffic::ClientPrefix> prefixes;
  r(prefixes);
  for (const traffic::ClientPrefix& client : prefixes) {
    BGPCMP_CHECK_LT(client.origin_as, world.graph.as_count(),
                    "snapshot client origin out of range");
  }
  traffic::ClientBase clients = traffic::ClientBase::restore(std::move(prefixes));

  ServingState state;
  state.scenario = Scenario::restore(config, std::move(world), std::move(provider),
                                     std::move(clients));
  // Tables decode against the scenario's (now final) graph address.
  const topo::AsGraph* graph = &state.scenario->internet.graph;
  const std::uint32_t table_count =
      r.count(topo::min_wire_size<topo::AsIndex>() +
              topo::min_wire_size<std::vector<bgp::BestRoute>>());
  state.warmed.reserve(table_count);
  state.tables.reserve(table_count);
  for (std::uint32_t i = 0; i < table_count; ++i) {
    topo::AsIndex origin = topo::kNoAs;
    r(origin);
    BGPCMP_CHECK_LT(origin, graph->as_count(), "snapshot table origin out of range");
    const std::uint32_t rows = r.count(topo::min_wire_size<bgp::BestRoute>());
    BGPCMP_CHECK_EQ(rows, graph->as_count(),
                    "snapshot route table does not cover every AS");
    std::vector<bgp::BestRoute> routes(rows);
    for (bgp::BestRoute& route : routes) {
      r(route);
      BGPCMP_CHECK_LE(route.cls, bgp::RouteClass::Provider,
                      "snapshot route class out of range");
    }
    state.warmed.push_back(origin);
    state.tables.emplace_back(graph, origin, std::move(routes));
  }
  BGPCMP_CHECK(r.done(), "trailing bytes after the tables section");
  return state;
}

}  // namespace bgpcmp::core
