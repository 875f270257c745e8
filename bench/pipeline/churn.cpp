// churn_10x: incremental route re-convergence beside reads. A bench-owned
// RouteCache over the serving snapshot's client origins absorbs seeded event
// waves through RouteCache::reconverge, and each wave ends with a read pass
// of find()->path(). Set-up is the snapshot load plus the cache warm; an
// operation is one wave with its read pass.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bgpcmp/bgp/propagation.h"
#include "bgpcmp/bgp/route_cache.h"
#include "bgpcmp/core/fingerprint.h"
#include "bgpcmp/core/serving.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/netbase/rng.h"
#include "workloads.h"
#include "trace.h"

namespace bgpcmp::pipeline {
namespace {

constexpr std::size_t kReadsPerTable = 64;

struct Wave {
  std::vector<bgp::OriginChurn> churn;  ///< one event per touched origin
  std::vector<topo::AsIndex> reads;     ///< kReadsPerTable per touched origin
};

/// Seeded churn waves over a fixed origin set. Each origin has at most one
/// "down" event outstanding, and its next event is that event's inverse, so
/// every withdraw, prepend, link flap and facility outage is later undone.
class WaveSource {
 public:
  WaveSource(const topo::AsGraph& graph, std::vector<topo::AsIndex> origins,
             std::uint64_t seed)
      : graph_(graph), origins_(std::move(origins)), undo_(origins_.size()), rng_(seed) {}

  /// Each origin joins with probability 1/4 and brings its next event.
  Wave next() {
    Wave w;
    for (std::size_t i = 0; i < origins_.size(); ++i) {
      if (!rng_.chance(0.25)) continue;
      bgp::ChurnEvent ev;
      if (undo_[i]) {
        ev = *undo_[i];
        undo_[i].reset();
      } else {
        ev = down(i);
      }
      w.churn.push_back({origins_[i], {ev}});
      for (std::size_t k = 0; k < kReadsPerTable; ++k) {
        w.reads.push_back(static_cast<topo::AsIndex>(rng_.index(graph_.as_count())));
      }
    }
    return w;
  }

  /// The wave that undoes every outstanding event.
  Wave restore() {
    Wave w;
    for (std::size_t i = 0; i < origins_.size(); ++i) {
      if (undo_[i]) w.churn.push_back({origins_[i], {*undo_[i]}});
      undo_[i].reset();
    }
    return w;
  }

 private:
  /// Draw a "down" event on one of origin i's sessions and remember its inverse.
  bgp::ChurnEvent down(std::size_t i) {
    using bgp::ChurnEvent;
    const auto edges = graph_.edges_of(origins_[i]);
    const topo::EdgeId e = edges[rng_.index(edges.size())];
    const auto& links = graph_.edge(e).links;
    const std::size_t kind = rng_.index(4);
    if (kind == 1) {
      undo_[i] = ChurnEvent::prepend_set(e, 0);
      return ChurnEvent::prepend_set(e, 1 + static_cast<int>(rng_.index(3)));
    }
    if (kind >= 2 && !links.empty()) {
      const topo::LinkId l = links[rng_.index(links.size())];
      if (kind == 2) {
        undo_[i] = ChurnEvent::link_flap(l);
        return ChurnEvent::link_flap(l);
      }
      const topo::CityId city = graph_.link(l).city;
      undo_[i] = ChurnEvent::facility_outage(city);
      return ChurnEvent::facility_outage(city);
    }
    undo_[i] = ChurnEvent::announce(e);
    return ChurnEvent::withdraw(e);
  }

  const topo::AsGraph& graph_;
  std::vector<topo::AsIndex> origins_;
  std::vector<std::optional<bgp::ChurnEvent>> undo_;
  Rng rng_;
};

/// The wave's read pass; returns the total path length read (a checksum).
std::size_t read_pass(const bgp::RouteCache& cache, const Wave& w) {
  std::size_t hops = 0;
  for (std::size_t j = 0; j < w.churn.size(); ++j) {
    const bgp::RouteTable* table = cache.find(w.churn[j].origin);
    for (std::size_t k = 0; k < kReadsPerTable; ++k) {
      hops += table->path(w.reads[j * kReadsPerTable + k]).size();
    }
  }
  return hops;
}

std::uint64_t wave_digest(const std::vector<bgp::ChurnStats>& stats, std::size_t hops) {
  std::string s = "hops " + std::to_string(hops);
  for (const bgp::ChurnStats& st : stats) {
    for (const std::size_t v : {st.events, st.changed_sessions, st.invalidated_customer,
                                st.invalidated_peer, st.invalidated_provider,
                                st.worklist_pops, st.changed_routes}) {
      s += ' ' + std::to_string(v);
    }
  }
  return core::fnv1a64(s);
}

/// Every AS's selected route (class, length, next hop, edge) as raw bytes.
std::string table_bytes(const bgp::RouteTable& t) {
  std::string out;
  out.reserve(t.size() * sizeof(bgp::BestRoute));
  for (topo::AsIndex as = 0; as < t.size(); ++as) {
    const bgp::BestRoute& r = t.at(as);
    for (const std::uint32_t v : {static_cast<std::uint32_t>(r.cls),
                                  static_cast<std::uint32_t>(r.length), r.next_hop,
                                  static_cast<std::uint32_t>(r.via_edge)}) {
      out.append(reinterpret_cast<const char*>(&v), sizeof v);
    }
  }
  return out;
}

struct ChurnWorld {
  std::unique_ptr<core::ServingWorld> world;
  std::vector<topo::AsIndex> origins;  ///< the warm set minus the provider
  std::unique_ptr<bgp::RouteCache> cache;
};

/// Run `fn` inside a span when tracing.
template <typename Fn>
void step(Tracer* tr, const char* layer, Fn fn) {
  if (tr == nullptr) return fn();
  const ScopedSpan span{*tr, layer, 0};
  fn();
}

/// Load the snapshot and warm a cache over its client origins. Warm-up waves
/// from a separate stream then build every origin's churn engine and grow
/// its scratch state, and their restoring wave returns each table to the
/// warmed routes, so the timed waves start from steady state.
ChurnWorld setup(const RunConfig& rc, Tracer* tr) {
  exec::ThreadPool& pool = exec::global_pool();
  ChurnWorld cw;
  step(tr, "core.serving_load", [&] {
    cw.world = core::ServingWorld::load(rc.snapshot, serving_scenario(rc.smoke));
  });
  const core::Scenario& sc = cw.world->scenario();
  for (const topo::AsIndex as : cw.world->warmed()) {
    if (as != sc.provider.as_index()) cw.origins.push_back(as);
  }
  cw.cache = std::make_unique<bgp::RouteCache>(&sc.internet.graph);
  step(tr, "bgp.warm", [&] { cw.cache->warm(cw.origins, pool); });
  step(tr, "bgp.reconverge", [&] {
    WaveSource warmup{sc.internet.graph, cw.origins, ~rc.seed};
    for (std::size_t w = 0; w < (rc.smoke ? 16 : 256); ++w) {
      (void)cw.cache->reconverge(warmup.next().churn, pool);
    }
    (void)cw.cache->reconverge(warmup.restore().churn, pool);
  });
  return cw;
}

void trace_churn(const RunConfig& rc, const std::vector<std::uint64_t>& expect,
                 RunResult& r) {
  exec::ThreadPool& pool = exec::global_pool();
  Tracer tr;
  ChurnWorld cw;
  {
    const ScopedSpan span{tr, "setup", 0};
    cw = setup(rc, &tr);
  }
  WaveSource source{cw.world->scenario().internet.graph, cw.origins, rc.seed};
  for (std::size_t w = 0; w < expect.size(); ++w) {
    const auto id = static_cast<std::int64_t>(w);
    const Wave wave = source.next();
    std::vector<bgp::ChurnStats> stats;
    std::size_t hops = 0;
    const std::int64_t t0 = now_ns();
    {
      const ScopedSpan op{tr, "op", id};
      {
        const ScopedSpan span{tr, "bgp.reconverge", id};
        stats = cw.cache->reconverge(wave.churn, pool);
      }
      const ScopedSpan span{tr, "bgp.read", id};
      hops = read_pass(*cw.cache, wave);
    }
    r.traced_op_ms.push_back(ms_since(t0));
    for (const bgp::ChurnStats& st : stats) {
      tr.count("bgp.events", static_cast<double>(st.events));
      tr.count("bgp.changed_routes", static_cast<double>(st.changed_routes));
      tr.count("bgp.worklist_pops", static_cast<double>(st.worklist_pops));
      tr.count("bgp.invalidated", static_cast<double>(st.invalidated()));
    }
    check(r, wave_digest(stats, hops) == expect[w],
          "churn_10x: traced replay of wave " + std::to_string(w) +
              " differs from the untraced run");
  }
  finish_trace(tr, rc, r);
}

}  // namespace

RunResult run_churn(const RunConfig& rc) {
  RunResult r;
  const std::size_t setups = rc.smoke ? 1 : 5;
  const std::size_t min_waves = rc.smoke ? 50 : 1000;
  exec::ThreadPool& pool = exec::global_pool();

  ChurnWorld cw;
  for (std::size_t s = 0; s < setups; ++s) {
    cw.cache.reset();  // before the world its tables point into
    cw.world.reset();
    const std::int64_t t0 = now_ns();
    cw = setup(rc, nullptr);
    r.setup_s.push_back(ms_since(t0) / 1e3);
  }

  const topo::AsGraph& graph = cw.world->scenario().internet.graph;
  WaveSource source{graph, cw.origins, rc.seed};
  std::vector<std::uint64_t> digests;  // of the first min_waves waves
  const std::int64_t start = now_ns();
  for (std::size_t w = 0; keep_going(w, min_waves, start, rc.seconds); ++w) {
    const Wave wave = source.next();
    const std::int64_t t0 = now_ns();
    const auto stats = cw.cache->reconverge(wave.churn, pool);
    const std::size_t hops = read_pass(*cw.cache, wave);
    r.op_ms.push_back(ms_since(t0));
    r.work += static_cast<double>(wave.churn.size());
    if (w < min_waves) digests.push_back(wave_digest(stats, hops));
    if (w + 1 == min_waves) {
      std::string tables;
      for (const topo::AsIndex o : cw.origins) tables += table_bytes(*cw.cache->find(o));
      r.digests["tables"] = hex64(core::fnv1a64(tables));
    }
  }
  r.peak_rss_mb = peak_rss_mb();

  std::string joined;
  for (const std::uint64_t d : digests) joined += hex64(d);
  r.digests["waves"] = hex64(core::fnv1a64(joined));

  // Once every event is undone, each incrementally maintained table must equal
  // a full recompute.
  (void)cw.cache->reconverge(source.restore().churn, pool);
  std::size_t drifted = 0;
  for (const topo::AsIndex o : cw.origins) {
    if (table_bytes(*cw.cache->find(o)) != table_bytes(bgp::compute_routes(graph, o))) {
      ++drifted;
    }
  }
  check(r, drifted == 0,
        "churn_10x: " + std::to_string(drifted) +
            " tables differ from compute_routes after the restoring wave");

  if (!rc.trace.empty()) trace_churn(rc, digests, r);
  return r;
}

}  // namespace bgpcmp::pipeline
