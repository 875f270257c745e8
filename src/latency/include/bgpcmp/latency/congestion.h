// Time-varying congestion over interconnection links and destination access
// networks.
//
// Two processes, matching the decomposition in §3.1.1:
//
//   * per-link congestion: baseline utilization + a diurnal swing in the
//     link's local time + occasional transient overload events. Queueing
//     delay is a convex function of utilization, so delay is negligible off
//     peak and spikes during events. Only the route crossing the congested
//     link suffers — this is the component a performance-aware controller
//     *can* route around.
//
//   * destination access congestion: a shared last-mile/metro process per
//     (access AS, city). It hits every route to those clients equally — the
//     paper's explanation of why "whenever the path chosen by BGP experiences
//     congestion, so do other alternative routes".
//
// Everything is a deterministic function of (seed, link/AS identity, time),
// so benches are reproducible and different routes can be compared at the
// same instant.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "bgpcmp/netbase/rng.h"
#include "bgpcmp/netbase/thread_annotations.h"
#include "bgpcmp/netbase/simtime.h"
#include "bgpcmp/netbase/units.h"
#include "bgpcmp/topology/as_graph.h"
#include "bgpcmp/topology/city.h"

namespace bgpcmp::lat {

using topo::AsGraph;
using topo::AsIndex;
using topo::CityDb;
using topo::CityId;
using topo::LinkId;

struct CongestionConfig {
  double horizon_days = 12.0;  ///< events are generated over this horizon

  // Link utilization process.
  double base_util_min = 0.10;
  double base_util_max = 0.45;
  double diurnal_amplitude = 0.18;  ///< peak-hour utilization swing
  double event_rate_per_day = 0.8;      ///< transient overloads per link-day
  double event_duration_mean_hours = 0.8;
  double event_extra_util_mean = 0.38;
  double queue_scale_ms = 18.0;   ///< queueing delay scale at high utilization
  double queue_cap_ms = 90.0;     ///< retransmission/ECMP cap on queue delay

  // Destination access congestion (shared by all routes to the clients).
  double access_event_rate_per_day = 0.5;
  double access_event_duration_mean_hours = 1.2;
  double access_event_delay_mean_ms = 18.0;
  double access_diurnal_peak_ms = 2.0;  ///< evening-peak extra delay
};

/// A transient overload interval. Event lists are always sorted by start
/// with disjoint intervals (each event ends before the next begins), which
/// lets utilization queries binary-search instead of scanning the horizon.
struct CongestionEvent {
  SimTime start;
  SimTime end;
  double magnitude = 0.0;  ///< extra utilization (links) or ms (access)
};

/// Deterministic congestion state for one interconnection link.
class LinkProcess {
 public:
  LinkProcess() = default;
  LinkProcess(double base_util, double diurnal_phase_hours, double local_hour_offset,
              std::vector<CongestionEvent> events);

  /// Instantaneous utilization in [0, 0.99], after applying `load_scale`
  /// (capacity-reduction experiments scale the offered load).
  [[nodiscard]] double utilization(SimTime t, double load_scale,
                                   const CongestionConfig& cfg) const;

 private:
  double base_util_ = 0.3;
  double diurnal_phase_hours_ = 0.0;
  double local_hour_offset_ = 0.0;  ///< city longitude / 15
  std::vector<CongestionEvent> events_;
};

class CongestionField {
 public:
  CongestionField(const AsGraph* graph, const CityDb* cities,
                  const CongestionConfig& config, std::uint64_t seed);

  /// One-way queueing delay crossing a link now.
  [[nodiscard]] Milliseconds link_delay(LinkId link, SimTime t) const;
  [[nodiscard]] double link_utilization(LinkId link, SimTime t) const;

  /// Extra delay shared by every route to clients of (access AS, city).
  [[nodiscard]] Milliseconds access_delay(AsIndex access_as, CityId city,
                                          SimTime t) const;

  /// Scale the offered load on a link (capacity-reduction ablation, E7).
  /// 1.0 = nominal.
  void set_load_scale(LinkId link, double scale);

  [[nodiscard]] const CongestionConfig& config() const { return config_; }

 private:
  struct AccessProcess {
    std::vector<CongestionEvent> events;
    double local_hour_offset = 0.0;
  };

  /// Thread-safe lazy lookup: derives the (access AS, city) process from the
  /// seed on first use. The returned reference stays valid for the field's
  /// lifetime (map nodes are stable and never erased).
  const AccessProcess& access_process(AsIndex as, CityId city) const;

  /// Thread-safe lazy lookup of one link's process; same memoization
  /// contract as access_process() (pure function of (seed, link id), slot
  /// written once, reference valid for the field's lifetime).
  const LinkProcess& link_process(LinkId link) const;
  [[nodiscard]] LinkProcess make_link_process(LinkId link) const;

  const AsGraph* graph_;
  const CityDb* cities_;
  CongestionConfig config_;
  std::uint64_t seed_;
  // Link processes are memoized on first touch exactly like the access cache
  // below — each is a pure function of (seed, link id), so whichever thread
  // generates an entry produces identical bytes and query answers cannot
  // depend on touch order. Generating all of them eagerly was ~1.8 s of the
  // 10x serving cold start, nearly all of it events no query ever read.
  // Slots are preallocated (stable references) and written once under
  // link_mutex_; link_ready_[l] is the publication flag — release on store,
  // acquire on the lock-free fast-path read — so steady-state lookups never
  // take the lock.
  mutable Mutex link_mutex_ BGPCMP_ACQUIRES_ORDER(45);
  mutable std::vector<LinkProcess> links_ BGPCMP_GUARDED_BY(link_mutex_);
  mutable std::unique_ptr<std::atomic<std::uint8_t>[]> link_ready_;
  std::vector<double> load_scale_;
  // The access cache is memoization of a pure function of (seed, key), so a
  // single mutex around find/emplace keeps concurrent RTT queries exact:
  // whichever thread populates a key, the entry is identical. References
  // returned by access_process() outlive the lock on purpose: map nodes are
  // stable and entries are never erased or rewritten.
  // Leaf lock: held only around the find/emplace, never across a call that
  // could take another lock.
  mutable Mutex access_mutex_ BGPCMP_ACQUIRES_ORDER(50);
  mutable std::map<std::pair<AsIndex, CityId>, AccessProcess> access_cache_
      BGPCMP_GUARDED_BY(access_mutex_);
};

/// Convex queueing-delay curve: negligible below ~60% utilization, steep near
/// saturation, capped (loss/retransmit effects bound MinRTT inflation).
[[nodiscard]] Milliseconds queueing_delay(double utilization,
                                          const CongestionConfig& cfg);

}  // namespace bgpcmp::lat
