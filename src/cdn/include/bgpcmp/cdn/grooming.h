// Anycast route grooming (§3.2.2 "nurture").
//
// CDN operators improve anycast at human timescales: find clients whose
// catchment is much worse than their best front-end, identify the BGP session
// whose announcement attracts that misrouted traffic, and prepend (or
// withdraw) on it. This module automates that operator loop over the
// simulated CDN so the nature-vs-nurture experiment (E8) can measure how much
// of anycast's quality comes from grooming versus the footprint itself.
#pragma once

#include <vector>

#include "bgpcmp/cdn/dns_redirect.h"
#include "bgpcmp/cdn/odin.h"

namespace bgpcmp::cdn {

struct GroomingConfig {
  std::uint64_t seed = 41;
  int max_iterations = 10;
  int sample_clients = 400;
  /// A session is groomed when the weighted mean anycast-vs-best-unicast gap
  /// of the traffic it attracts exceeds this.
  double badness_threshold_ms = 25.0;
  int prepend_step = 2;
  SimTime measure_time = SimTime::hours(12.0);
};

struct GroomingStep {
  topo::EdgeId edge = topo::kNoEdge;
  int total_prepend = 0;
  double weighted_gap_ms = 0.0;  ///< the badness that triggered this step
  /// This step withdrew the announcement from the session instead of
  /// prepending (the escalation when LocalPref shrugs prepends off).
  bool withdrawn = false;
  /// The operator measured after the change, saw regression (or lost
  /// client coverage), and rolled it back.
  bool reverted = false;
};

struct GroomingReport {
  std::vector<GroomingStep> steps;
  /// Weighted mean (anycast - best unicast) gap after each iteration,
  /// index 0 = ungroomed baseline.
  std::vector<double> mean_gap_by_iteration;
};

class AnycastGroomer {
 public:
  AnycastGroomer(AnycastCdn* cdn, const lat::LatencyModel* latency,
                 const traffic::ClientBase* clients, GroomingConfig config = {})
      : cdn_(cdn), latency_(latency), clients_(clients), config_(config) {}

  /// Run the operator loop, mutating the CDN's anycast announcement spec.
  GroomingReport groom();

 private:
  AnycastCdn* cdn_;
  const lat::LatencyModel* latency_;
  const traffic::ClientBase* clients_;
  GroomingConfig config_;
};

}  // namespace bgpcmp::cdn
