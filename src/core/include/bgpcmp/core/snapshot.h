// Serving snapshots: a built scenario plus warmed route tables on disk.
//
// Extends the topology-layer world snapshot (bgpcmp/topology/world_snapshot.h)
// with three more sections — provider, clients, warmed tables — so a resident
// server's cold start is a load-and-replay instead of a rebuild-and-rewarm.
// Configs are never serialized (ProviderConfig::extra_pop_cities holds
// non-owning string_views); instead the caller supplies its ScenarioConfig and
// the loader verifies the stored `scenario_config_fingerprint` before
// decoding, then re-derives the cheap models (demand, congestion, latency)
// from it via Scenario::restore.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bgpcmp/bgp/route_cache.h"
#include "bgpcmp/core/scenario.h"
#include "bgpcmp/topology/world_snapshot.h"

namespace bgpcmp::core {

/// FNV-1a over EVERY ScenarioConfig field — seeds included, strings by bytes,
/// doubles by bit pattern — in declaration order. Unlike the WorldCache key
/// (which splits seed from knobs) a serving snapshot stores one fully bound
/// world, so everything folds into one hash. Adding a config field requires
/// extending this; ServingSnapshotTest.FingerprintCoversEveryConfigSection
/// trips when a knob stops changing the hash.
[[nodiscard]] std::uint64_t scenario_config_fingerprint(const ScenarioConfig& config);

/// What load_serving_snapshot() hands back: the rehydrated scenario plus the
/// warmed origins and their tables, in saved order (provider first). Tables
/// reference the scenario's graph, so keep the scenario alive.
struct ServingState {
  std::unique_ptr<Scenario> scenario;
  std::vector<topo::AsIndex> warmed;
  std::vector<bgp::RouteTable> tables;
};

/// Serialize `scenario` and the warmed tables for `warmed` (every origin must
/// have a table in `tables` — BGPCMP_CHECKed) into a four-section snapshot.
void save_serving_snapshot(const std::string& path, const Scenario& scenario,
                           std::span<const topo::AsIndex> warmed,
                           const bgp::RouteCache& tables);

/// Load, verify (magic, version, payload hash, config fingerprint; plus the
/// recomputed world fingerprint under SnapshotVerify::kFull — see that enum
/// for the two-tier integrity rationale), and rehydrate. Any mismatch trips a
/// BGPCMP_CHECK — callers that want a fallback rebuild catch CheckError via
/// ScopedCheckThrows.
[[nodiscard]] ServingState load_serving_snapshot(
    const std::string& path, const ScenarioConfig& config,
    topo::SnapshotVerify verify = topo::SnapshotVerify::kFull);

}  // namespace bgpcmp::core
