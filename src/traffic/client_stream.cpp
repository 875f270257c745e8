#include "bgpcmp/traffic/client_stream.h"

#include <algorithm>
#include <string>

#include "bgpcmp/netbase/check.h"

namespace bgpcmp::traffic {

namespace {

/// Deterministic /24 allocation: the i-th client prefix of the world is
/// 20.0.0.0 + i*256.
Prefix nth_slash24(std::uint32_t i) {
  constexpr std::uint32_t kBase = (20u << 24);
  return Prefix::make(Ipv4Address{kBase + i * 256u}, 24);
}

}  // namespace

ClientStream::ClientStream(const Internet* internet, const ClientBaseConfig& config,
                           std::size_t chunk_origins)
    : internet_(internet),
      config_(config),
      chunk_origins_(chunk_origins == 0 ? 1 : chunk_origins) {
  // Walk the generation order (eyeballs, then stubs) accumulating each
  // origin's deterministic prefix count. No RNG is touched here: counts
  // depend only on presence sizes, so offsets are a pure prefix sum.
  const auto add = [&](AsIndex as, int per_city) {
    OriginSpan span;
    span.as = as;
    span.first_prefix = static_cast<std::uint32_t>(total_);
    span.per_city = static_cast<std::uint16_t>(per_city);
    const std::size_t count =
        internet_->graph.node(as).presence.size() * static_cast<std::size_t>(per_city);
    origins_.push_back(span);
    total_ += count;
  };
  for (const AsIndex as : internet_->eyeballs) {
    add(as, config_.prefixes_per_eyeball_city);
  }
  if (config_.include_stubs) {
    for (const AsIndex as : internet_->stubs) add(as, 1);
  }
  BGPCMP_CHECK(total_ > 0, "client stream generated no prefixes");
}

std::size_t ClientStream::chunk_count() const {
  // Divide before rounding up: (n + chunk_origins - 1) overflows for chunk
  // sizes near SIZE_MAX and would report an empty stream.
  const std::size_t n = origins_.size();
  return n / chunk_origins_ + (n % chunk_origins_ != 0 ? 1 : 0);
}

std::pair<std::size_t, std::size_t> ClientStream::origin_range(std::size_t c) const {
  BGPCMP_CHECK_LT(c, chunk_count(), "chunk index outside the stream");
  const std::size_t begin = c * chunk_origins_;
  return {begin, begin + std::min(chunk_origins_, origins_.size() - begin)};
}

ClientChunk ClientStream::chunk(std::size_t c) const {
  const auto [begin, end] = origin_range(c);
  ClientChunk out;
  out.index = c;
  out.first_prefix = origins_[begin].first_prefix;
  out.prefixes.reserve(chunk_prefix_range(c).second);

  const topo::CityDb& db = internet_->city_db();
  const Rng root{config_.seed};
  for (std::size_t o = begin; o < end; ++o) {
    const OriginSpan& span = origins_[o];
    const auto& node = internet_->graph.node(span.as);
    // One fork per origin AS, then per-(city, k) lognormal weight and
    // uniform access RTT in order. How many eyeball ASes share a city's users
    // is unknowable here; the city weight is split evenly across this AS's
    // prefixes in the city, which preserves relative metro sizes.
    Rng rng = root.fork("clients-" + std::to_string(span.as));
    std::uint32_t next_prefix = span.first_prefix;
    for (const CityId city : node.presence) {
      for (int k = 0; k < span.per_city; ++k) {
        ClientPrefix p;
        p.prefix = nth_slash24(next_prefix++);
        p.origin_as = span.as;
        p.city = city;
        p.user_weight = db.at(city).user_weight /
                        static_cast<double>(span.per_city) * rng.lognormal(0.0, 0.4);
        p.access.base_rtt_ms = rng.uniform(config_.access_base_rtt_min_ms,
                                           config_.access_base_rtt_max_ms);
        out.prefixes.push_back(p);
      }
    }
  }
  return out;
}

std::vector<AsIndex> ClientStream::chunk_origin_ases(std::size_t c) const {
  const auto [begin, end] = origin_range(c);
  std::vector<AsIndex> out;
  out.reserve(end - begin);
  for (std::size_t o = begin; o < end; ++o) out.push_back(origins_[o].as);
  return out;
}

std::pair<PrefixId, std::uint32_t> ClientStream::chunk_prefix_range(
    std::size_t c) const {
  const auto [begin, end] = origin_range(c);
  const std::uint32_t first = origins_[begin].first_prefix;
  const std::uint32_t next = end < origins_.size()
                                 ? origins_[end].first_prefix
                                 : static_cast<std::uint32_t>(total_);
  return {first, next - first};
}

DemandStream::DemandStream(const DemandConfig& config)
    : config_(config), rng_(Rng{config.seed}.fork("popularity")) {}

double DemandStream::draw() {
  // One serial draw per prefix: the heavy-tail factor that modulates its
  // user weight, so big metros still dominate but some small prefixes are
  // disproportionately hot.
  return rng_.pareto(1.0, 1.0 / config_.zipf_exponent);
}

std::vector<double> DemandStream::next(const ClientChunk& chunk) {
  return next(chunk.first_prefix, chunk.prefixes);
}

std::vector<double> DemandStream::next(PrefixId first_prefix,
                                       std::span<const ClientPrefix> prefixes) {
  BGPCMP_CHECK_EQ(position_, static_cast<std::size_t>(first_prefix),
                  "demand cursor out of step with the client stream");
  std::vector<double> out;
  out.reserve(prefixes.size());
  for (const ClientPrefix& p : prefixes) {
    const double skew = draw();
    out.push_back(p.user_weight * std::min(skew, 50.0));
  }
  position_ += prefixes.size();
  return out;
}

void DemandStream::skip(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) (void)draw();
  position_ += n;
}

}  // namespace bgpcmp::traffic
