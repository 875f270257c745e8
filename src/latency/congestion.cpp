#include "bgpcmp/latency/congestion.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "bgpcmp/netbase/check.h"

namespace bgpcmp::lat {

namespace {

constexpr double kTwoPi = 6.28318530717958647692;

std::vector<CongestionEvent> generate_events(Rng& rng, double rate_per_day,
                                             double duration_mean_hours,
                                             double magnitude_mean,
                                             double horizon_days) {
  std::vector<CongestionEvent> events;
  if (rate_per_day <= 0.0) return events;
  double t_hours = rng.exponential(24.0 / rate_per_day);
  const double horizon_hours = horizon_days * 24.0;
  while (t_hours < horizon_hours) {
    const double dur = std::max(0.05, rng.exponential(duration_mean_hours));
    const double mag = magnitude_mean * rng.lognormal(0.0, 0.5);
    events.push_back(CongestionEvent{SimTime::hours(t_hours),
                                     SimTime::hours(t_hours + dur), mag});
    // The next event starts after this one ends, so the list is sorted by
    // start with disjoint intervals — the invariant active_magnitude's
    // binary search relies on.
    t_hours += dur + rng.exponential(24.0 / rate_per_day);
    BGPCMP_CHECK_GE(t_hours, events.back().end.hours_f(),
                    "congestion events must stay disjoint and start-sorted");
  }
  return events;
}

/// Total magnitude of events covering `t`. Events are sorted by start and
/// disjoint, so only the last event starting at or before `t` can cover it;
/// binary-search that candidate instead of scanning the whole horizon
/// (E5-scale fields hold thousands of events per process).
double active_magnitude(const std::vector<CongestionEvent>& events, SimTime t) {
  auto it = std::upper_bound(
      events.begin(), events.end(), t,
      [](SimTime tt, const CongestionEvent& e) { return tt < e.start; });
  double total = 0.0;
  while (it != events.begin()) {
    --it;
    if (it->end <= t) break;  // earlier events end earlier still (disjoint)
    total += it->magnitude;   // start <= t < end: covering
  }
  return total;
}

/// Evening-peak factor in [0,1] for a local hour (peaks ~20:00, trough ~04:00).
double diurnal_factor(double local_hour) {
  return 0.5 * (1.0 + std::sin(kTwoPi * (local_hour - 14.0) / 24.0));
}

}  // namespace

Milliseconds queueing_delay(double utilization, const CongestionConfig& cfg) {
  const double u = std::clamp(utilization, 0.0, 0.99);
  const double raw = cfg.queue_scale_ms * std::pow(u, 6) / (1.0 - u);
  return Milliseconds{std::min(raw, cfg.queue_cap_ms)};
}

LinkProcess::LinkProcess(double base_util, double diurnal_phase_hours,
                         double local_hour_offset,
                         std::vector<CongestionEvent> events)
    : base_util_(base_util),
      diurnal_phase_hours_(diurnal_phase_hours),
      local_hour_offset_(local_hour_offset),
      events_(std::move(events)) {}

double LinkProcess::utilization(SimTime t, double load_scale,
                                const CongestionConfig& cfg) const {
  const double local_hour =
      std::fmod(t.hour_of_day() + local_hour_offset_ + diurnal_phase_hours_ + 48.0,
                24.0);
  const double diurnal = cfg.diurnal_amplitude * diurnal_factor(local_hour);
  const double u = (base_util_ + diurnal) * load_scale + active_magnitude(events_, t);
  return std::clamp(u, 0.0, 0.99);
}

CongestionField::CongestionField(const AsGraph* graph, const CityDb* cities,
                                 const CongestionConfig& config, std::uint64_t seed)
    : graph_(graph), cities_(cities), config_(config), seed_(seed) {
  // Slots only — event generation is deferred to the first touch of each
  // link (link_process), which keeps resident-serving cold start independent
  // of link count. fork() never advances the parent stream, so the deferred
  // draws are byte-identical to what eager construction produced.
  links_.assign(graph_->link_count(), LinkProcess{});
  link_ready_ = std::make_unique<std::atomic<std::uint8_t>[]>(graph_->link_count());
  load_scale_.assign(graph_->link_count(), 1.0);
}

LinkProcess CongestionField::make_link_process(LinkId link) const {
  Rng rng = Rng{seed_}.fork("link-" + std::to_string(link));
  const double base = rng.uniform(config_.base_util_min, config_.base_util_max);
  const double phase = rng.uniform(-1.5, 1.5);
  const double lon = cities_->at(graph_->link(link).city).location.lon_deg;
  auto events = generate_events(rng, config_.event_rate_per_day,
                                config_.event_duration_mean_hours,
                                config_.event_extra_util_mean, config_.horizon_days);
  return LinkProcess{base, phase, lon / 15.0, std::move(events)};
}

// Double-checked publication the analysis cannot model: the fast path reads
// links_[link] without the lock after an acquire-load of the ready flag,
// which pairs with the release-store made under link_mutex_ below.
const LinkProcess& CongestionField::link_process(LinkId link) const
    BGPCMP_NO_THREAD_SAFETY_ANALYSIS {
  BGPCMP_CHECK_LT(link, load_scale_.size(), "link out of range");
  if (link_ready_[link].load(std::memory_order_acquire) == 0) {
    const MutexLock lock{link_mutex_};
    if (link_ready_[link].load(std::memory_order_relaxed) == 0) {
      links_[link] = make_link_process(link);
      link_ready_[link].store(1, std::memory_order_release);
    }
  }
  return links_[link];
}

Milliseconds CongestionField::link_delay(LinkId link, SimTime t) const {
  return queueing_delay(link_utilization(link, t), config_);
}

double CongestionField::link_utilization(LinkId link, SimTime t) const {
  return link_process(link).utilization(t, load_scale_[link], config_);
}

const CongestionField::AccessProcess& CongestionField::access_process(
    AsIndex as, CityId city) const {
  const auto key = std::make_pair(as, city);
  // Serialize cache population: concurrent RTT queries for the same fresh
  // key must not both emplace (the old unguarded insert was a data race).
  // Generation happens at most once per key and is a pure function of the
  // seed, so holding the lock across it costs one miss per key.
  const MutexLock lock{access_mutex_};
  auto it = access_cache_.find(key);
  if (it != access_cache_.end()) return it->second;
  Rng rng = Rng{seed_}.fork("access-" + std::to_string(as) + "-" +
                            std::to_string(city));
  AccessProcess proc;
  proc.events = generate_events(
      rng, config_.access_event_rate_per_day,
      config_.access_event_duration_mean_hours,
      config_.access_event_delay_mean_ms, config_.horizon_days);
  proc.local_hour_offset = cities_->at(city).location.lon_deg / 15.0;
  return access_cache_.emplace(key, std::move(proc)).first->second;
}

Milliseconds CongestionField::access_delay(AsIndex access_as, CityId city,
                                           SimTime t) const {
  const AccessProcess& proc = access_process(access_as, city);
  const double local_hour =
      std::fmod(t.hour_of_day() + proc.local_hour_offset + 48.0, 24.0);
  const double diurnal =
      config_.access_diurnal_peak_ms * diurnal_factor(local_hour);
  return Milliseconds{diurnal + active_magnitude(proc.events, t)};
}

void CongestionField::set_load_scale(LinkId link, double scale) {
  BGPCMP_CHECK_LT(link, load_scale_.size(), "link out of range");
  BGPCMP_CHECK_GE(scale, 0.0, "load scale cannot be negative");
  load_scale_[link] = scale;
}

}  // namespace bgpcmp::lat
