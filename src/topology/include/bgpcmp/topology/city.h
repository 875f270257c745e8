// Embedded world-city database.
//
// The substrate's geography: every AS presence, PoP, IXP, client prefix, and
// vantage point sits in one of these metros. Population weights are coarse
// stand-ins for APNIC-style Internet-user estimates (the paper uses APNIC
// only to weight vantage selection, §3.3).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bgpcmp/netbase/check.h"
#include "bgpcmp/netbase/geo.h"

namespace bgpcmp::topo {

/// Dense city identifier (index into the database).
using CityId = std::uint16_t;
inline constexpr CityId kNoCity = 0xffff;

/// Reporting region. MiddleEast is split from Asia because Fig 5 discusses it
/// separately ("some countries in the Middle East ... better performance for
/// Standard Tier").
enum class Region : std::uint8_t {
  NorthAmerica,
  SouthAmerica,
  Europe,
  Asia,
  Oceania,
  Africa,
  MiddleEast,
};

[[nodiscard]] std::string_view region_name(Region r);

struct City {
  std::string_view name;
  std::string_view country;       ///< country name used for Fig 5 aggregation
  std::string_view country_code;  ///< ISO-ish 2-letter code
  Region region;
  GeoPoint location;
  double user_weight;  ///< relative Internet-user population weight
};

/// Immutable database of world metros.
class CityDb {
 public:
  /// The built-in database (~170 metros across all regions).
  static const CityDb& world();

  [[nodiscard]] std::size_t size() const { return cities_.size(); }
  [[nodiscard]] const City& at(CityId id) const { return cities_.at(id); }
  [[nodiscard]] std::span<const City> all() const { return cities_; }

  /// Find a city by exact name; nullopt if absent.
  [[nodiscard]] std::optional<CityId> find(std::string_view name) const;

  /// All cities in a region.
  [[nodiscard]] std::vector<CityId> in_region(Region r) const;

  /// Great-circle distance between two metros. Served from a dense matrix
  /// precomputed at construction (the generator's farthest-point spreading
  /// calls this millions of times at scale); values are the exact doubles
  /// `great_circle_distance` produces for the same pair.
  [[nodiscard]] Kilometers distance(CityId a, CityId b) const {
    BGPCMP_CHECK_LT(a, cities_.size(), "city id out of range");
    BGPCMP_CHECK_LT(b, cities_.size(), "city id out of range");
    return Kilometers{dist_km_[static_cast<std::size_t>(a) * cities_.size() + b]};
  }

  explicit CityDb(std::vector<City> cities);

 private:
  std::vector<City> cities_;
  std::vector<double> dist_km_;  ///< row-major size() x size() distance matrix
};

}  // namespace bgpcmp::topo
