// serve_10x: the resident query server's read-only hot path. A closed loop
// with one caller: each 512-query batch goes to QueryServer::answer_batch
// only after the previous one returned. Set-up is the snapshot load plus the
// warm-up batches; an operation is one batch.
#include <array>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bgpcmp/bgp/route_cache.h"
#include "bgpcmp/cdn/edge_fabric.h"
#include "bgpcmp/core/fingerprint.h"
#include "bgpcmp/core/serving.h"
#include "bgpcmp/core/snapshot.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/latency/path_model.h"
#include "bgpcmp/netbase/check.h"
#include "workloads.h"
#include "trace.h"

namespace bgpcmp::pipeline {

core::ScenarioConfig serving_scenario(bool smoke) { return scaled_config(smoke ? 1 : 10); }

void prepare_snapshot(const std::string& path, bool smoke) {
  core::ServingConfig serving;
  serving.warm_origins = 256;
  core::ServingWorld::build(serving_scenario(smoke), serving)->save(path);
}

namespace {

constexpr std::size_t kBatch = 512;
/// Queries per pool task. Both passes pass it explicitly (the timed
/// QueryServer and the traced replay), so the replay fans out exactly as the
/// server it attributes, whatever QueryServer's default becomes.
constexpr std::size_t kServerChunk = 16;

/// Seed of batch `b` of a run's query stream.
std::uint64_t batch_seed(std::uint64_t seed, std::size_t b) {
  return seed * 0x9e3779b97f4a7c15ULL + b;
}

/// The stages of ServingWorld::answer, in call order, and their layers.
enum Stage : std::size_t { kPath, kGeoPath, kPop, kRank, kRtt, kFormat, kStages };
constexpr std::array<const char*, kStages> kStageLayer = {
    "bgp.path", "latency.geo_path", "cdn.pop", "cdn.egress_rank", "latency.rtt",
    "core.format"};
using StageNs = std::array<std::int64_t, kStages>;

/// Charges the time since the previous lap to one stage.
class StageClock {
 public:
  explicit StageClock(StageNs& ns) : ns_(ns), mark_(now_ns()) {}
  void lap(Stage stage) {
    const std::int64_t t = now_ns();
    ns_[stage] += t - mark_;
    mark_ = t;
  }

 private:
  StageNs& ns_;
  std::int64_t mark_;
};

std::string formatted(StageClock& clock, const char* buf) {
  std::string out = buf;
  clock.lap(kFormat);
  return out;
}

/// ServingWorld::answer replayed through the same public calls, with every
/// stage timed. The text must match answer() byte for byte.
std::string answer_traced(const core::Scenario& sc, const bgp::RouteCache& tables,
                          const bgp::OriginSpec& anycast, const core::Query& q,
                          StageNs& ns) {
  StageClock clock{ns};
  const topo::AsGraph& graph = sc.internet.graph;
  const topo::CityDb& cities = *sc.internet.cities;
  const cdn::ContentProvider& provider = sc.provider;
  const traffic::ClientPrefix& client = sc.clients.at(q.prefix);
  char buf[200];

  if (q.kind == core::Query::Kind::Egress) {
    const cdn::PopId pop =
        provider.serving_pop(graph, cities, client.origin_as, client.city);
    clock.lap(kPop);
    const bgp::RouteTable* table = tables.find(client.origin_as);
    BGPCMP_CHECK(table != nullptr, "egress queries must target warmed origins");
    clock.lap(kPath);
    const std::vector<cdn::EgressOption> ranked = cdn::edge_fabric::rank_by_policy(
        graph, provider.egress_options(graph, *table, pop));
    clock.lap(kRank);
    if (ranked.empty()) {
      std::snprintf(buf, sizeof buf, "egress prefix=%u pop=%u options=0", q.prefix, pop);
      return formatted(clock, buf);
    }
    const cdn::EgressOption& best = ranked.front();
    const lat::GeoPath path = cdn::edge_fabric::egress_path(
        graph, cities, provider.as_index(), provider.pop(pop), best, client.city);
    clock.lap(kGeoPath);
    double best_ms = -1.0;
    if (path.valid()) {
      best_ms = sc.latency.rtt(path, q.t, client.access, client.origin_as, client.city)
                    .total()
                    .value();
    }
    clock.lap(kRtt);
    std::snprintf(buf, sizeof buf,
                  "egress prefix=%u pop=%u options=%zu best_kind=%u best_len=%u "
                  "best_nh=%u rtt_ms=%.3f",
                  q.prefix, pop, ranked.size(), static_cast<unsigned>(best.kind),
                  static_cast<unsigned>(best.route.length), best.route.neighbor, best_ms);
    return formatted(clock, buf);
  }

  // Latency and catchment queries follow the provider's anycast route.
  const char* kind = q.kind == core::Query::Kind::Latency ? "latency" : "catchment";
  const bgp::RouteTable* table = tables.find(provider.as_index());
  if (table == nullptr || !table->reachable(client.origin_as)) {
    clock.lap(kPath);
    std::snprintf(buf, sizeof buf, "%s prefix=%u unreachable", kind, q.prefix);
    return formatted(clock, buf);
  }
  const std::vector<topo::AsIndex> as_path = table->path(client.origin_as);
  clock.lap(kPath);
  lat::GeoPathOptions opts;
  opts.origin_scope = &anycast;
  const lat::GeoPath path =
      lat::build_geo_path(graph, cities, as_path, client.city, topo::kNoCity, opts);
  clock.lap(kGeoPath);
  if (!path.valid()) {
    std::snprintf(buf, sizeof buf, "%s prefix=%u norealization", kind, q.prefix);
    return formatted(clock, buf);
  }
  const std::optional<cdn::PopId> pop = provider.pop_in(path.entry_city);
  BGPCMP_CHECK(pop.has_value(), "anycast entry link must land at a PoP");
  clock.lap(kPop);
  if (q.kind == core::Query::Kind::Latency) {
    const lat::RttBreakdown rtt =
        sc.latency.rtt(path, q.t, client.access, client.origin_as, client.city);
    clock.lap(kRtt);
    std::snprintf(buf, sizeof buf, "latency prefix=%u pop=%u rtt_ms=%.3f", q.prefix, *pop,
                  rtt.total().value());
  } else {
    std::snprintf(buf, sizeof buf,
                  "catchment prefix=%u pop=%u entry_city=%u entry_link=%u hops=%zu",
                  q.prefix, *pop, static_cast<unsigned>(path.entry_city), path.entry_link,
                  as_path.size());
  }
  return formatted(clock, buf);
}

/// One batch through answer_traced over the pool, in QueryServer's chunks;
/// each query's stage times land in its own slot of `ns`.
BGPCMP_REQUIRES_WARMED(warm)
std::vector<std::string> replay_batch(const core::Scenario& sc, const bgp::RouteCache& tables,
                                      const bgp::OriginSpec& anycast,
                                      const std::vector<core::Query>& queries,
                                      std::vector<StageNs>& ns) {
  std::vector<std::string> answers(queries.size());
  ns.assign(queries.size(), StageNs{});
  exec::parallel_chunks(exec::global_pool(), queries.size(), kServerChunk,
                        [&](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i) {
                            answers[i] = answer_traced(sc, tables, anycast, queries[i], ns[i]);
                          }
                        });
  return answers;
}

/// The traced pass: load the snapshot's state, install its warmed tables in
/// a bench-owned cache, warm up like the untraced run, then replay the
/// timed batches first.. of the untraced stream, whose answer digests are
/// `expect`.
void trace_serve(const RunConfig& rc, const core::ServingWorld& world, std::size_t first,
                 const std::vector<std::uint64_t>& expect, RunResult& r) {
  exec::ThreadPool& pool = exec::global_pool();
  Tracer tr;
  const std::size_t setup = tr.open("setup", 0);
  core::ServingState state;
  {
    const ScopedSpan span{tr, "core.serving_load", 0};
    state = core::load_serving_snapshot(rc.snapshot, serving_scenario(rc.smoke),
                                        topo::SnapshotVerify::kPayload);
  }
  const core::Scenario& sc = *state.scenario;
  bgp::RouteCache tables{&sc.internet.graph};
  for (std::size_t i = 0; i < state.warmed.size(); ++i) {
    tables.install(state.warmed[i], std::move(state.tables[i]));
  }
  tables.warm(state.warmed, pool);  // every slot is installed: computes nothing
  const bgp::OriginSpec anycast = bgp::OriginSpec::everywhere(sc.provider.as_index());
  std::vector<StageNs> ns;
  {
    const ScopedSpan span{tr, "core.answer_batch", 0};
    for (std::size_t b = 0; b < first; ++b) {
      (void)replay_batch(sc, tables, anycast,
                         world.generate_queries(kBatch, batch_seed(rc.seed, b)), ns);
    }
  }
  tr.close(setup);

  for (std::size_t k = 0; k < expect.size(); ++k) {
    const auto b = static_cast<std::int64_t>(first + k);
    const auto queries = world.generate_queries(kBatch, batch_seed(rc.seed, first + k));
    std::vector<std::string> answers;
    const std::int64_t t0 = now_ns();
    {
      const ScopedSpan op{tr, "op", b};
      const ScopedSpan batch{tr, "core.answer_batch", b};
      answers = replay_batch(sc, tables, anycast, queries, ns);
      for (std::size_t s = 0; s < kStages; ++s) {
        std::int64_t total = 0;
        for (const StageNs& q : ns) total += q[s];
        tr.busy(batch.index(), kStageLayer[s], total, queries.size(), pool.size());
      }
    }
    r.traced_op_ms.push_back(ms_since(t0));
    tr.count("core.queries", static_cast<double>(queries.size()));
    check(r, core::answers_digest(answers) == expect[k],
          "serve_10x: traced replay of batch " + std::to_string(b) +
              " differs from the untraced answers");
  }
  finish_trace(tr, rc, r);
}

}  // namespace

RunResult run_serve(const RunConfig& rc) {
  RunResult r;
  const core::ScenarioConfig cfg = serving_scenario(rc.smoke);
  const std::size_t setups = rc.smoke ? 1 : 5;
  const std::size_t warmup = rc.smoke ? 16 : 256;
  const std::size_t min_batches = rc.smoke ? 64 : 1000;
  const std::size_t traced = rc.smoke ? 16 : 200;
  exec::ThreadPool& pool = exec::global_pool();

  // Batches 0..warmup-1 of the seeded stream warm the server up; the timed
  // batches follow on the same stream.
  std::unique_ptr<core::ServingWorld> world;
  for (std::size_t s = 0; s < setups; ++s) {
    world.reset();
    const std::int64_t t0 = now_ns();
    world = core::ServingWorld::load(rc.snapshot, cfg);
    double setup_ms = ms_since(t0);
    const core::QueryServer server{world.get(), &pool, kServerChunk};
    for (std::size_t b = 0; b < warmup; ++b) {
      const auto queries = world->generate_queries(kBatch, batch_seed(rc.seed, b));
      const std::int64_t t1 = now_ns();
      const auto answers = server.answer_batch(queries);
      setup_ms += ms_since(t1);
    }
    r.setup_s.push_back(setup_ms / 1e3);
  }

  const core::QueryServer server{world.get(), &pool, kServerChunk};
  std::vector<std::uint64_t> digests;  // of the first min_batches timed batches
  const std::int64_t start = now_ns();
  for (std::size_t k = 0; keep_going(k, min_batches, start, rc.seconds); ++k) {
    const auto queries = world->generate_queries(kBatch, batch_seed(rc.seed, warmup + k));
    const std::int64_t t0 = now_ns();
    const auto answers = server.answer_batch(queries);
    r.op_ms.push_back(ms_since(t0));
    r.work += static_cast<double>(queries.size());
    if (k < min_batches) digests.push_back(core::answers_digest(answers));
    if (k == 0) {
      // The pooled batch must equal answering one query at a time.
      bool same = true;
      for (std::size_t i = 0; i < queries.size(); ++i) {
        same = same && world->answer(queries[i]) == answers[i];
      }
      if (!same) ++r.failed;
      check(r, same, "serve_10x: pooled answers differ from serial answer()");
    }
  }
  r.peak_rss_mb = peak_rss_mb();

  std::string joined;
  for (const std::uint64_t d : digests) joined += hex64(d);
  r.digests["answers"] = hex64(core::fnv1a64(joined));

  if (!rc.trace.empty()) {
    trace_serve(rc, *world, warmup,
                std::vector<std::uint64_t>(digests.begin(), digests.begin() + traced), r);
  }
  return r;
}

}  // namespace bgpcmp::pipeline
