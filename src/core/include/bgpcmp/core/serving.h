// The resident serving layer: warm state held in memory, queries answered
// from it (docs/SERVING.md).
//
// A ServingWorld is a built Scenario plus a warmed RouteCache for a chosen
// origin set — the provider's anycast table and the top client origins by
// demand. It comes up two ways: build() (full topology generation + route
// warming) or load() (replay a serving snapshot, core/snapshot.h — the 10x
// cold-start path bench/e19_serving.cpp measures). Either way the object is
// complete on construction and every query is a const read of it, so reads
// are valid from any thread for its whole lifetime.
//
// QueryServer batches queries over a thread pool with exec::parallel_chunks:
// each chunk writes only its own answer slots, so a batch's answers — and
// their digest — are byte-identical at any pool width and for
// snapshot-loaded vs freshly built worlds (the serving_default determinism
// audit scenario pins both).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bgpcmp/bgp/route_cache.h"
#include "bgpcmp/core/scenario.h"
#include "bgpcmp/netbase/simtime.h"
#include "bgpcmp/topology/world_snapshot.h"

namespace bgpcmp::exec {
class ThreadPool;
}  // namespace bgpcmp::exec

namespace bgpcmp::core {

struct ServingConfig {
  /// Origins to warm: the provider plus the top (warm_origins - 1) client
  /// origin ASes by summed demand popularity (ties broken on lower AsIndex).
  /// Egress queries are drawn from warmed origins only; latency/catchment
  /// queries need just the provider table and cover every client prefix.
  std::size_t warm_origins = 256;
};

/// One serving-plane request against a client prefix at an instant.
struct Query {
  enum class Kind : std::uint8_t {
    Latency,    ///< anycast RTT from the prefix to its catchment PoP
    Egress,     ///< Edge-Fabric egress ranking at the prefix's serving PoP
    Catchment,  ///< which PoP the prefix's anycast route lands at
  };
  Kind kind = Kind::Latency;
  traffic::PrefixId prefix = 0;
  SimTime t;
};

/// The resident warm state. Construction warms every table it will ever
/// serve from; the object is immutable afterwards, so concurrent readers
/// need no synchronization.
class ServingWorld {
 public:
  /// Cold start from scratch: generate the world, rank the warm set, warm.
  [[nodiscard]] static std::unique_ptr<ServingWorld> build(
      const ScenarioConfig& config = {}, const ServingConfig& serving = {});

  /// Cold start from a serving snapshot: materialize the world and install
  /// the stored tables instead of recomputing them. The warmed origin set
  /// comes from the snapshot, so a world loaded from save() of a build() with
  /// the same configs serves byte-identical answers. The default kPayload
  /// verification keeps load latency independent of the deep fingerprint
  /// walk; pass kFull to additionally re-pin the materialized world against
  /// the stored internet_fingerprint (tests and the serving_default audit
  /// scenario do).
  [[nodiscard]] static std::unique_ptr<ServingWorld> load(
      const std::string& path, const ScenarioConfig& config,
      topo::SnapshotVerify verify = topo::SnapshotVerify::kPayload);

  /// Write this world and its warmed tables as a serving snapshot.
  void save(const std::string& path) const;

  /// Answer one query as a canonical one-line string (stable field=value
  /// text; doubles printed with %.3f) — the unit the batch digest hashes.
  [[nodiscard]] std::string answer(const Query& query) const;

  /// A deterministic query stream: kinds round-robin Latency/Egress/
  /// Catchment, prefixes drawn popularity-weighted (egress from warmed
  /// origins' prefixes only), instants uniform over the congestion horizon.
  /// Serial draws from one Rng{seed} — same stream every run and width.
  [[nodiscard]] std::vector<Query> generate_queries(std::size_t count,
                                                    std::uint64_t seed) const;

  [[nodiscard]] const Scenario& scenario() const { return *scenario_; }
  [[nodiscard]] std::span<const topo::AsIndex> warmed() const { return warmed_; }
  [[nodiscard]] const ServingConfig& serving_config() const { return serving_; }

  ServingWorld(const ServingWorld&) = delete;
  ServingWorld& operator=(const ServingWorld&) = delete;

 private:
  /// Fresh build: rank the warm set from demand, then warm.
  ServingWorld(std::unique_ptr<Scenario> scenario, ServingConfig serving);
  /// Snapshot load: adopt the stored warm set and install its tables.
  ServingWorld(std::unique_ptr<Scenario> scenario,
               std::vector<topo::AsIndex> warmed,
               std::vector<bgp::RouteTable> tables);

  /// Shared post-warm setup: membership flags and the two popularity CDFs.
  void index_prefixes();

  std::string answer_latency(const traffic::ClientPrefix& client,
                             const Query& query) const;
  std::string answer_egress(const traffic::ClientPrefix& client,
                            const Query& query) const;
  std::string answer_catchment(const traffic::ClientPrefix& client,
                               const Query& query) const;

  std::unique_ptr<Scenario> scenario_;
  ServingConfig serving_;
  bgp::RouteCache tables_;
  std::vector<topo::AsIndex> warmed_;     ///< provider first, then by demand
  std::vector<char> origin_warmed_;       ///< by AsIndex: in warmed_?
  bgp::OriginSpec anycast_spec_;          ///< provider announced everywhere
  std::vector<double> cum_all_;           ///< popularity CDF over all prefixes
  std::vector<traffic::PrefixId> egress_prefixes_;  ///< warmed-origin prefixes
  std::vector<double> cum_egress_;        ///< popularity CDF over those
};

/// Batch front-end: fans answer() over a pool in contiguous chunks.
class QueryServer {
 public:
  /// `chunk` queries per work item; 0 behaves as 1. The world and pool must
  /// outlive the server.
  QueryServer(const ServingWorld* world, exec::ThreadPool* pool,
              std::size_t chunk = 16)
      : world_(world), pool_(pool), chunk_(chunk) {}

  /// Answers in query order, byte-identical at any pool width.
  [[nodiscard]] std::vector<std::string> answer_batch(
      std::span<const Query> queries) const;

 private:
  const ServingWorld* world_;
  exec::ThreadPool* pool_;
  std::size_t chunk_;
};

/// FNV-1a over the answers joined with '\n' — the equality token the audit,
/// tests, and `bgpcmp serve --digest` compare across widths and start paths.
[[nodiscard]] std::uint64_t answers_digest(std::span<const std::string> answers);

}  // namespace bgpcmp::core
