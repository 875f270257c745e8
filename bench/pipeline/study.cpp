// fig1_1x and study_30x: Study 1 (Fig 1) through the eager and the
// streaming kernel. An operation is one study iteration: the study run plus
// its reduce step. Each iteration builds a fresh world first; that build is
// the run's set-up.
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "bgpcmp/bgp/route_cache.h"
#include "bgpcmp/core/fingerprint.h"
#include "bgpcmp/core/pop_pair.h"
#include "bgpcmp/core/report.h"
#include "bgpcmp/core/scale_study.h"
#include "bgpcmp/core/study_pop.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/latency/rtt_sampler.h"
#include "workloads.h"
#include "trace.h"

namespace bgpcmp::pipeline {
namespace {

/// Minimum timed iterations per run, and the traced pass's iterations. An
/// iteration takes seconds, so this many fill the default budget; the
/// slowest of them is the run's tail.
constexpr std::size_t kStudyIterations = 4;

/// Fig 1 observations in the eager visit order (pair-major, window-minor)
/// as raw (value, weight) doubles, plus the pair count: the replay must
/// reproduce these bit for bit.
struct Fig1Points {
  std::size_t pairs = 0;
  std::string bytes;

  void add(double value, double weight) {
    char raw[2 * sizeof(double)];
    std::memcpy(raw, &value, sizeof value);
    std::memcpy(raw + sizeof value, &weight, sizeof weight);
    bytes.append(raw, sizeof raw);
  }
};

Fig1Points points_of(const core::PopStudyResult& r) {
  Fig1Points p;
  p.pairs = r.series.size();
  for (const auto& s : r.series) {
    for (std::size_t w = 0; w < r.windows.size(); ++w) {
      p.add(static_cast<double>(s.diff(w)), static_cast<double>(s.volume[w]));
    }
  }
  return p;
}

Fig1Points points_of(const core::ScaleStudyResult& r) {
  Fig1Points p;
  p.pairs = r.pair_count();
  for (const auto& chunk : r.chunks) {
    for (const auto& obs : chunk.fig1) p.add(obs.value, obs.weight);
  }
  return p;
}

/// The reduce step: Fig 1 CDFs (sorted on first query) sampled as the fig1
/// bench prints them, and the §3.1 headline fraction.
std::string render_reduce(const std::vector<std::string>& names,
                          const std::vector<const stats::WeightedCdf*>& cdfs,
                          double improvable) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "improvable_5ms %a\n", improvable);
  return core::render_cdfs("diff_ms", names, cdfs, -10.0, 10.0, 21) + buf;
}

std::string reduce(const core::PopStudyResult& r) {
  using Bound = core::PopStudyResult::Fig1Bound;
  const auto point = r.fig1_cdf(Bound::Point);
  const auto lower = r.fig1_cdf(Bound::Lower);
  const auto upper = r.fig1_cdf(Bound::Upper);
  return render_reduce({"cdf", "ci_lower", "ci_upper"}, {&point, &lower, &upper},
                       r.improvable_traffic_fraction(5.0));
}

std::string reduce(const core::ScaleStudyResult& r) {
  const auto point = r.fig1_cdf();
  return render_reduce({"cdf"}, {&point}, r.improvable_traffic_fraction(5.0));
}

/// The fig1 series digest: points, pair count and reduced output.
std::string fig1_digest(const Fig1Points& p, const std::string& reduced) {
  return hex64(core::fnv1a64(p.bytes + "\npairs " + std::to_string(p.pairs) + "\n" +
                             reduced));
}

std::int64_t sum(const std::vector<std::int64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::int64_t{0});
}

/// Warm a route cache over `origins`, then plan each of the `n` prefixes of
/// a client window against it, timing every item into its own slot. Returns
/// the measurable plans in prefix order.
template <typename ClientAt, typename IdAt>
std::vector<core::PairPlan> traced_warm_plan(Tracer& tr, std::int64_t id,
                                             std::span<const topo::AsIndex> origins,
                                             std::size_t n, const topo::AsGraph& graph,
                                             const topo::CityDb& db,
                                             const cdn::ContentProvider& provider,
                                             int top_k, ClientAt client_at, IdAt id_at) {
  exec::ThreadPool& pool = exec::global_pool();
  bgp::RouteCache tables{&graph};
  {
    const ScopedSpan span{tr, "bgp.warm", id};
    tables.warm(origins, pool);
  }
  tr.count("bgp.warm_tables", static_cast<double>(tables.size()));

  std::vector<core::PairPlan> planned;
  {
    const ScopedSpan span{tr, "core.plan", id};
    std::vector<std::int64_t> busy(n);
    planned = exec::parallel_map(pool, n, [&](std::size_t i) {
      const std::int64_t t0 = now_ns();
      const traffic::ClientPrefix& client = client_at(i);
      const bgp::RouteTable* table = tables.find(client.origin_as);
      core::PairPlan plan =
          core::plan_pop_pair(graph, db, provider, client, id_at(i), *table, top_k);
      busy[i] = now_ns() - t0;
      return plan;
    });
    tr.busy(span.index(), "core.plan", sum(busy), n, pool.size());
  }
  std::vector<core::PairPlan> plans;
  for (auto& plan : planned) {
    if (plan.measurable()) plans.push_back(std::move(plan));
  }
  tr.count("core.plan_attempted", static_cast<double>(n));
  tr.count("core.plan_measurable", static_cast<double>(plans.size()));
  return plans;
}

/// Measure planned pairs, timing each into its own slot.
template <typename Measure>
std::vector<core::PopPrefixSeries> traced_measure(Tracer& tr, std::int64_t id,
                                                  const std::vector<core::PairPlan>& plans,
                                                  std::size_t windows, Measure measure) {
  exec::ThreadPool& pool = exec::global_pool();
  const ScopedSpan span{tr, "core.measure", id};
  std::vector<std::int64_t> busy(plans.size());
  auto series = exec::parallel_map(pool, plans.size(), [&](std::size_t p) {
    const std::int64_t t0 = now_ns();
    core::PopPrefixSeries s = measure(plans[p]);
    busy[p] = now_ns() - t0;
    return s;
  });
  tr.busy(span.index(), "core.measure", sum(busy), plans.size(), pool.size());
  tr.count("core.pair_windows", static_cast<double>(plans.size() * windows));
  return series;
}

/// run_pop_study's warm -> plan -> measure body, one span per layer call.
core::PopStudyResult replay_pop_study(const core::Scenario& sc,
                                      const core::PopStudyConfig& config, Tracer& tr,
                                      std::int64_t id) {
  const auto& graph = sc.internet.graph;
  const topo::CityDb& db = sc.internet.city_db();
  core::PopStudyResult result;
  result.windows = core::study_windows(config);

  std::vector<topo::AsIndex> origins;
  origins.reserve(sc.clients.size());
  for (const auto& client : sc.clients.prefixes()) origins.push_back(client.origin_as);
  const auto plans = traced_warm_plan(
      tr, id, origins, sc.clients.size(), graph, db, sc.provider, config.top_k_routes,
      [&](std::size_t i) -> const traffic::ClientPrefix& {
        return sc.clients.at(static_cast<traffic::PrefixId>(i));
      },
      [](std::size_t i) { return static_cast<traffic::PrefixId>(i); });

  const lat::RttSampler sampler;
  const Rng root{config.seed};
  result.series = traced_measure(
      tr, id, plans, result.windows.size(), [&](const core::PairPlan& plan) {
        const auto& client = sc.clients.at(plan.prefix);
        return core::measure_pop_pair(plan, client, result.windows,
                                      sc.demand.popularity(plan.prefix),
                                      db.at(client.city).location.lon_deg,
                                      sc.config.demand, sc.latency, sampler, root, config);
      });
  return result;
}

/// run_scale_study's per-chunk chunk -> warm -> plan -> measure -> fold body.
/// The fold keeps the Fig 1 points and pair counts; the series digest needs
/// the kernel's private serializer and is checked through the untraced
/// fingerprint instead.
core::ScaleStudyResult replay_scale_study(const core::ScaleWorld& world,
                                          const core::ScaleStudyConfig& config,
                                          Tracer& tr) {
  const auto& graph = world.internet.graph;
  const topo::CityDb& db = world.internet.city_db();
  core::ScaleStudyResult result;
  result.windows = core::study_windows(config.study);
  const traffic::ClientStream stream{&world.internet, world.config.clients,
                                     config.chunk_origins};
  traffic::DemandStream demand{world.config.demand};
  const lat::RttSampler sampler;
  const Rng root{config.study.seed};

  for (std::size_t c = 0; c < stream.chunk_count(); ++c) {
    const auto id = static_cast<std::int64_t>(c);
    const ScopedSpan chunk_span{tr, "chunk", id};
    traffic::ClientChunk window;
    std::vector<double> popularity;
    {
      const ScopedSpan span{tr, "traffic.chunk", id};
      window = stream.chunk(c);
      popularity = demand.next(window);
    }
    const auto plans = traced_warm_plan(
        tr, id, stream.chunk_origin_ases(c), window.prefixes.size(), graph, db,
        world.provider, config.study.top_k_routes,
        [&](std::size_t i) -> const traffic::ClientPrefix& { return window.prefixes[i]; },
        [&](std::size_t i) { return window.id(i); });
    const auto series = traced_measure(
        tr, id, plans, result.windows.size(), [&](const core::PairPlan& plan) {
          const std::size_t i = plan.prefix - window.first_prefix;
          const auto& client = window.prefixes[i];
          return core::measure_pop_pair(plan, client, result.windows, popularity[i],
                                        db.at(client.city).location.lon_deg,
                                        world.config.demand, world.latency, sampler, root,
                                        config.study);
        });

    const ScopedSpan span{tr, "core.fold", id};
    core::ScaleChunkResult out;
    out.chunk = static_cast<std::uint32_t>(c);
    out.pairs = static_cast<std::uint32_t>(series.size());
    for (const auto& s : series) {
      for (std::size_t w = 0; w < result.windows.size(); ++w) {
        out.fig1.push_back({static_cast<double>(s.diff(w)), static_cast<double>(s.volume[w])});
      }
    }
    result.chunks.push_back(std::move(out));
  }
  return result;
}

std::size_t pair_windows(const core::PopStudyResult& r) {
  return r.series.size() * r.windows.size();
}
std::size_t pair_windows(const core::ScaleStudyResult& r) {
  return r.pair_count() * r.windows.size();
}

/// Record one of an iteration's digests; an iteration that disagrees with
/// the first one fails.
void record(RunResult& r, const std::string& name, const std::string& digest) {
  auto [first, fresh] = r.digests.emplace(name, digest);
  if (!fresh && first->second != digest) ++r.failed;
}

void record_digests(RunResult& r, const core::PopStudyResult& result,
                    const std::string& reduced) {
  record(r, "fig1", fig1_digest(points_of(result), reduced));
}
void record_digests(RunResult& r, const core::ScaleStudyResult& result,
                    const std::string& reduced) {
  record(r, "fig1", fig1_digest(points_of(result), reduced));
  record(r, "fingerprint", hex64(result.fingerprint()));
}

/// The untraced pass: each iteration builds a fresh world with `build`
/// (set-up), then times `run` on it plus the reduce step (the operation).
/// `extra_setups` more builds go first when a build is too short for a few
/// samples to give a steady median.
template <typename Build, typename Run>
void iterate(const RunConfig& rc, RunResult& r, std::size_t min_iters,
             std::size_t extra_setups, Build build, Run run) {
  for (std::size_t i = 0; i < extra_setups; ++i) {
    const std::int64_t t0 = now_ns();
    const auto world = build();
    r.setup_s.push_back(ms_since(t0) / 1e3);
  }
  const std::int64_t start = now_ns();
  for (std::size_t it = 0; keep_going(it, min_iters, start, rc.seconds); ++it) {
    const std::int64_t t0 = now_ns();
    const auto world = build();
    r.setup_s.push_back(ms_since(t0) / 1e3);
    const std::int64_t t1 = now_ns();
    const auto result = run(*world);
    const std::string reduced = reduce(result);
    r.op_ms.push_back(ms_since(t1));
    r.work += static_cast<double>(pair_windows(result));
    record_digests(r, result, reduced);
  }
  r.peak_rss_mb = peak_rss_mb();
  check(r, r.failed == 0, rc.workload + ": study iterations disagree");
}

/// The traced pass: `replay` is `run` through the per-layer calls, with
/// spans; its fig1 digest must equal the untraced one.
template <typename Build, typename Replay>
void trace_iterations(const RunConfig& rc, RunResult& r, std::size_t iters, Build build,
                      Replay replay) {
  Tracer tr;
  for (std::size_t it = 0; it < iters; ++it) {
    const auto id = static_cast<std::int64_t>(it);
    decltype(build()) world;
    {
      const ScopedSpan setup{tr, "setup", id};
      const ScopedSpan span{tr, "topology.build", id};
      world = build();
    }
    const std::int64_t t0 = now_ns();
    decltype(replay(*world, tr, id)) result;
    std::string reduced;
    {
      const ScopedSpan op{tr, "op", id};
      result = replay(*world, tr, id);
      const ScopedSpan span{tr, "stats.reduce", id};
      reduced = reduce(result);
    }
    r.traced_op_ms.push_back(ms_since(t0));
    check(r, fig1_digest(points_of(result), reduced) == r.digests["fig1"],
          rc.workload + ": traced replay differs from the untraced run");
  }
  finish_trace(tr, rc, r);
}

}  // namespace

RunResult run_fig1(const RunConfig& rc) {
  RunResult r;
  const core::ScenarioConfig world;  // the default 1x world
  core::PopStudyConfig study;
  study.seed = rc.seed;
  study.days = rc.smoke ? 1.0 : 5.0;
  const std::size_t iters = rc.smoke ? 1 : kStudyIterations;
  const auto build = [&] { return core::Scenario::make(world); };

  // A 1x build takes milliseconds: take its median over 30 or more builds.
  iterate(rc, r, iters, rc.smoke ? 0 : 30 - kStudyIterations, build,
          [&](const core::Scenario& sc) { return core::run_pop_study(sc, study); });
  if (!rc.trace.empty()) {
    trace_iterations(rc, r, iters, build,
                     [&](const core::Scenario& sc, Tracer& tr, std::int64_t id) {
                       return replay_pop_study(sc, study, tr, id);
                     });
  }
  return r;
}

RunResult run_study_30x(const RunConfig& rc) {
  RunResult r;
  const core::ScenarioConfig world = scaled_config(rc.smoke ? 1 : 30);
  core::ScaleStudyConfig study;
  study.study.seed = rc.seed;
  study.study.days = 0.011;  // one 15-minute window
  study.chunk_origins = rc.smoke ? 16 : 256;
  const std::size_t iters = rc.smoke ? 1 : kStudyIterations;
  const auto build = [&] { return core::ScaleWorld::make(world); };

  iterate(rc, r, iters, 0, build,
          [&](const core::ScaleWorld& sw) { return core::run_scale_study(sw, study); });
  if (!rc.trace.empty()) {
    trace_iterations(rc, r, iters, build,
                     [&](const core::ScaleWorld& sw, Tracer& tr, std::int64_t) {
                       return replay_scale_study(sw, study, tr);
                     });
  }
  return r;
}

}  // namespace bgpcmp::pipeline
