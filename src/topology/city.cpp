#include "bgpcmp/topology/city.h"

#include <algorithm>

namespace bgpcmp::topo {

std::string_view region_name(Region r) {
  switch (r) {
    case Region::NorthAmerica: return "North America";
    case Region::SouthAmerica: return "South America";
    case Region::Europe: return "Europe";
    case Region::Asia: return "Asia";
    case Region::Oceania: return "Oceania";
    case Region::Africa: return "Africa";
    case Region::MiddleEast: return "Middle East";
  }
  return "Unknown";
}

namespace {

using R = Region;

// name, country, cc, region, lat, lon, user_weight (millions of users, coarse)
const City kCities[] = {
    // --- North America ---
    {"New York", "United States", "US", R::NorthAmerica, {40.71, -74.01}, 18.0},
    {"Los Angeles", "United States", "US", R::NorthAmerica, {34.05, -118.24}, 13.0},
    {"Chicago", "United States", "US", R::NorthAmerica, {41.88, -87.63}, 9.0},
    {"Dallas", "United States", "US", R::NorthAmerica, {32.78, -96.80}, 7.0},
    {"Houston", "United States", "US", R::NorthAmerica, {29.76, -95.37}, 6.5},
    {"Miami", "United States", "US", R::NorthAmerica, {25.76, -80.19}, 6.0},
    {"Atlanta", "United States", "US", R::NorthAmerica, {33.75, -84.39}, 5.8},
    {"Washington DC", "United States", "US", R::NorthAmerica, {38.91, -77.04}, 6.0},
    {"Boston", "United States", "US", R::NorthAmerica, {42.36, -71.06}, 4.6},
    {"Philadelphia", "United States", "US", R::NorthAmerica, {39.95, -75.17}, 5.7},
    {"Phoenix", "United States", "US", R::NorthAmerica, {33.45, -112.07}, 4.4},
    {"Seattle", "United States", "US", R::NorthAmerica, {47.61, -122.33}, 3.8},
    {"San Francisco", "United States", "US", R::NorthAmerica, {37.77, -122.42}, 4.6},
    {"San Jose", "United States", "US", R::NorthAmerica, {37.34, -121.89}, 1.9},
    {"Denver", "United States", "US", R::NorthAmerica, {39.74, -104.99}, 2.8},
    {"Minneapolis", "United States", "US", R::NorthAmerica, {44.98, -93.27}, 3.4},
    {"Detroit", "United States", "US", R::NorthAmerica, {42.33, -83.05}, 4.0},
    {"St. Louis", "United States", "US", R::NorthAmerica, {38.63, -90.20}, 2.6},
    {"Kansas City", "United States", "US", R::NorthAmerica, {39.10, -94.58}, 2.0},
    {"Salt Lake City", "United States", "US", R::NorthAmerica, {40.76, -111.89}, 1.2},
    {"Portland", "United States", "US", R::NorthAmerica, {45.52, -122.68}, 2.3},
    {"Charlotte", "United States", "US", R::NorthAmerica, {35.23, -80.84}, 2.4},
    {"Nashville", "United States", "US", R::NorthAmerica, {36.16, -86.78}, 1.8},
    {"Toronto", "Canada", "CA", R::NorthAmerica, {43.65, -79.38}, 6.0},
    {"Montreal", "Canada", "CA", R::NorthAmerica, {45.50, -73.57}, 4.0},
    {"Vancouver", "Canada", "CA", R::NorthAmerica, {49.28, -123.12}, 2.5},
    {"Calgary", "Canada", "CA", R::NorthAmerica, {51.05, -114.07}, 1.4},
    {"Mexico City", "Mexico", "MX", R::NorthAmerica, {19.43, -99.13}, 20.0},
    {"Guadalajara", "Mexico", "MX", R::NorthAmerica, {20.66, -103.35}, 5.0},
    {"Monterrey", "Mexico", "MX", R::NorthAmerica, {25.69, -100.32}, 4.5},
    {"Guatemala City", "Guatemala", "GT", R::NorthAmerica, {14.63, -90.51}, 3.0},
    {"San Jose CR", "Costa Rica", "CR", R::NorthAmerica, {9.93, -84.08}, 2.0},
    {"Panama City", "Panama", "PA", R::NorthAmerica, {8.98, -79.52}, 1.8},
    {"Havana", "Cuba", "CU", R::NorthAmerica, {23.11, -82.37}, 2.0},
    {"Santo Domingo", "Dominican Republic", "DO", R::NorthAmerica, {18.49, -69.93}, 3.5},
    {"San Juan", "Puerto Rico", "PR", R::NorthAmerica, {18.47, -66.11}, 1.5},
    // --- South America ---
    {"Sao Paulo", "Brazil", "BR", R::SouthAmerica, {-23.55, -46.63}, 22.0},
    {"Rio de Janeiro", "Brazil", "BR", R::SouthAmerica, {-22.91, -43.17}, 12.0},
    {"Brasilia", "Brazil", "BR", R::SouthAmerica, {-15.79, -47.88}, 4.0},
    {"Fortaleza", "Brazil", "BR", R::SouthAmerica, {-3.72, -38.54}, 3.8},
    {"Porto Alegre", "Brazil", "BR", R::SouthAmerica, {-30.03, -51.23}, 3.9},
    {"Buenos Aires", "Argentina", "AR", R::SouthAmerica, {-34.60, -58.38}, 14.0},
    {"Cordoba", "Argentina", "AR", R::SouthAmerica, {-31.42, -64.19}, 1.5},
    {"Santiago", "Chile", "CL", R::SouthAmerica, {-33.45, -70.67}, 7.0},
    {"Lima", "Peru", "PE", R::SouthAmerica, {-12.05, -77.04}, 9.0},
    {"Bogota", "Colombia", "CO", R::SouthAmerica, {4.71, -74.07}, 10.0},
    {"Medellin", "Colombia", "CO", R::SouthAmerica, {6.24, -75.58}, 3.5},
    {"Caracas", "Venezuela", "VE", R::SouthAmerica, {10.48, -66.90}, 4.5},
    {"Quito", "Ecuador", "EC", R::SouthAmerica, {-0.18, -78.47}, 2.5},
    {"Montevideo", "Uruguay", "UY", R::SouthAmerica, {-34.90, -56.16}, 1.7},
    {"Asuncion", "Paraguay", "PY", R::SouthAmerica, {-25.26, -57.58}, 2.3},
    {"La Paz", "Bolivia", "BO", R::SouthAmerica, {-16.49, -68.12}, 2.0},
    // --- Europe ---
    {"London", "United Kingdom", "GB", R::Europe, {51.51, -0.13}, 14.0},
    {"Manchester", "United Kingdom", "GB", R::Europe, {53.48, -2.24}, 3.4},
    {"Paris", "France", "FR", R::Europe, {48.86, 2.35}, 12.0},
    {"Lyon", "France", "FR", R::Europe, {45.76, 4.84}, 2.0},
    {"Marseille", "France", "FR", R::Europe, {43.30, 5.37}, 1.8},
    {"Frankfurt", "Germany", "DE", R::Europe, {50.11, 8.68}, 2.4},
    {"Berlin", "Germany", "DE", R::Europe, {52.52, 13.40}, 4.5},
    {"Munich", "Germany", "DE", R::Europe, {48.14, 11.58}, 2.9},
    {"Hamburg", "Germany", "DE", R::Europe, {53.55, 9.99}, 2.4},
    {"Dusseldorf", "Germany", "DE", R::Europe, {51.23, 6.77}, 3.0},
    {"Amsterdam", "Netherlands", "NL", R::Europe, {52.37, 4.90}, 2.7},
    {"Brussels", "Belgium", "BE", R::Europe, {50.85, 4.35}, 2.3},
    {"Madrid", "Spain", "ES", R::Europe, {40.42, -3.70}, 6.5},
    {"Barcelona", "Spain", "ES", R::Europe, {41.39, 2.17}, 5.0},
    {"Lisbon", "Portugal", "PT", R::Europe, {38.72, -9.14}, 2.8},
    {"Milan", "Italy", "IT", R::Europe, {45.46, 9.19}, 4.3},
    {"Rome", "Italy", "IT", R::Europe, {41.90, 12.50}, 4.3},
    {"Zurich", "Switzerland", "CH", R::Europe, {47.38, 8.54}, 1.4},
    {"Geneva", "Switzerland", "CH", R::Europe, {46.20, 6.14}, 0.6},
    {"Vienna", "Austria", "AT", R::Europe, {48.21, 16.37}, 2.8},
    {"Prague", "Czechia", "CZ", R::Europe, {50.08, 14.44}, 2.6},
    {"Warsaw", "Poland", "PL", R::Europe, {52.23, 21.01}, 3.1},
    {"Krakow", "Poland", "PL", R::Europe, {50.06, 19.94}, 1.5},
    {"Budapest", "Hungary", "HU", R::Europe, {47.50, 19.04}, 3.0},
    {"Bucharest", "Romania", "RO", R::Europe, {44.43, 26.10}, 2.2},
    {"Sofia", "Bulgaria", "BG", R::Europe, {42.70, 23.32}, 1.3},
    {"Athens", "Greece", "GR", R::Europe, {37.98, 23.73}, 3.2},
    {"Belgrade", "Serbia", "RS", R::Europe, {44.79, 20.45}, 1.4},
    {"Zagreb", "Croatia", "HR", R::Europe, {45.81, 15.98}, 1.1},
    {"Copenhagen", "Denmark", "DK", R::Europe, {55.68, 12.57}, 2.0},
    {"Stockholm", "Sweden", "SE", R::Europe, {59.33, 18.07}, 2.3},
    {"Oslo", "Norway", "NO", R::Europe, {59.91, 10.75}, 1.5},
    {"Helsinki", "Finland", "FI", R::Europe, {60.17, 24.94}, 1.5},
    {"Dublin", "Ireland", "IE", R::Europe, {53.35, -6.26}, 1.4},
    {"Kyiv", "Ukraine", "UA", R::Europe, {50.45, 30.52}, 3.0},
    {"Moscow", "Russia", "RU", R::Europe, {55.76, 37.62}, 12.0},
    {"St Petersburg", "Russia", "RU", R::Europe, {59.93, 30.34}, 5.0},
    {"Istanbul", "Turkey", "TR", R::Europe, {41.01, 28.98}, 15.0},
    {"Ankara", "Turkey", "TR", R::Europe, {39.93, 32.86}, 5.5},
    // --- Middle East ---
    {"Dubai", "United Arab Emirates", "AE", R::MiddleEast, {25.20, 55.27}, 3.3},
    {"Abu Dhabi", "United Arab Emirates", "AE", R::MiddleEast, {24.45, 54.38}, 1.5},
    {"Riyadh", "Saudi Arabia", "SA", R::MiddleEast, {24.71, 46.68}, 7.5},
    {"Jeddah", "Saudi Arabia", "SA", R::MiddleEast, {21.49, 39.19}, 4.2},
    {"Doha", "Qatar", "QA", R::MiddleEast, {25.29, 51.53}, 2.3},
    {"Kuwait City", "Kuwait", "KW", R::MiddleEast, {29.38, 47.99}, 3.0},
    {"Manama", "Bahrain", "BH", R::MiddleEast, {26.23, 50.59}, 1.2},
    {"Muscat", "Oman", "OM", R::MiddleEast, {23.59, 58.41}, 2.5},
    {"Tel Aviv", "Israel", "IL", R::MiddleEast, {32.09, 34.78}, 4.0},
    {"Amman", "Jordan", "JO", R::MiddleEast, {31.95, 35.93}, 4.0},
    {"Beirut", "Lebanon", "LB", R::MiddleEast, {33.89, 35.50}, 2.3},
    {"Baghdad", "Iraq", "IQ", R::MiddleEast, {33.31, 44.37}, 6.0},
    {"Tehran", "Iran", "IR", R::MiddleEast, {35.69, 51.39}, 9.0},
    {"Cairo", "Egypt", "EG", R::MiddleEast, {30.04, 31.24}, 20.0},
    // --- Africa ---
    {"Lagos", "Nigeria", "NG", R::Africa, {6.52, 3.38}, 15.0},
    {"Abuja", "Nigeria", "NG", R::Africa, {9.06, 7.50}, 3.5},
    {"Nairobi", "Kenya", "KE", R::Africa, {-1.29, 36.82}, 7.0},
    {"Johannesburg", "South Africa", "ZA", R::Africa, {-26.20, 28.05}, 6.0},
    {"Cape Town", "South Africa", "ZA", R::Africa, {-33.92, 18.42}, 3.0},
    {"Accra", "Ghana", "GH", R::Africa, {5.60, -0.19}, 3.5},
    {"Abidjan", "Ivory Coast", "CI", R::Africa, {5.36, -4.01}, 3.0},
    {"Dakar", "Senegal", "SN", R::Africa, {14.72, -17.47}, 2.5},
    {"Casablanca", "Morocco", "MA", R::Africa, {33.57, -7.59}, 5.0},
    {"Algiers", "Algeria", "DZ", R::Africa, {36.74, 3.09}, 6.0},
    {"Tunis", "Tunisia", "TN", R::Africa, {36.81, 10.18}, 2.8},
    {"Addis Ababa", "Ethiopia", "ET", R::Africa, {9.03, 38.74}, 4.5},
    {"Kampala", "Uganda", "UG", R::Africa, {0.35, 32.58}, 3.0},
    {"Dar es Salaam", "Tanzania", "TZ", R::Africa, {-6.79, 39.21}, 3.5},
    {"Kinshasa", "DR Congo", "CD", R::Africa, {-4.44, 15.27}, 3.0},
    {"Luanda", "Angola", "AO", R::Africa, {-8.84, 13.23}, 2.5},
    // --- Asia ---
    {"Tokyo", "Japan", "JP", R::Asia, {35.68, 139.69}, 30.0},
    {"Osaka", "Japan", "JP", R::Asia, {34.69, 135.50}, 15.0},
    {"Nagoya", "Japan", "JP", R::Asia, {35.18, 136.91}, 7.0},
    {"Seoul", "South Korea", "KR", R::Asia, {37.57, 126.98}, 20.0},
    {"Busan", "South Korea", "KR", R::Asia, {35.18, 129.08}, 5.5},
    {"Beijing", "China", "CN", R::Asia, {39.90, 116.41}, 20.0},
    {"Shanghai", "China", "CN", R::Asia, {31.23, 121.47}, 24.0},
    {"Shenzhen", "China", "CN", R::Asia, {22.54, 114.06}, 13.0},
    {"Guangzhou", "China", "CN", R::Asia, {23.13, 113.26}, 13.0},
    {"Chengdu", "China", "CN", R::Asia, {30.57, 104.07}, 10.0},
    {"Hong Kong", "Hong Kong", "HK", R::Asia, {22.32, 114.17}, 6.5},
    {"Taipei", "Taiwan", "TW", R::Asia, {25.03, 121.57}, 7.0},
    {"Singapore", "Singapore", "SG", R::Asia, {1.35, 103.82}, 5.5},
    {"Kuala Lumpur", "Malaysia", "MY", R::Asia, {3.14, 101.69}, 7.5},
    {"Bangkok", "Thailand", "TH", R::Asia, {13.76, 100.50}, 11.0},
    {"Jakarta", "Indonesia", "ID", R::Asia, {-6.21, 106.85}, 25.0},
    {"Surabaya", "Indonesia", "ID", R::Asia, {-7.26, 112.75}, 6.0},
    {"Manila", "Philippines", "PH", R::Asia, {14.60, 120.98}, 14.0},
    {"Cebu", "Philippines", "PH", R::Asia, {10.32, 123.89}, 3.0},
    {"Hanoi", "Vietnam", "VN", R::Asia, {21.03, 105.85}, 8.0},
    {"Ho Chi Minh City", "Vietnam", "VN", R::Asia, {10.82, 106.63}, 9.0},
    {"Mumbai", "India", "IN", R::Asia, {19.08, 72.88}, 21.0},
    {"Delhi", "India", "IN", R::Asia, {28.70, 77.10}, 30.0},
    {"Bangalore", "India", "IN", R::Asia, {12.97, 77.59}, 12.0},
    {"Chennai", "India", "IN", R::Asia, {13.08, 80.27}, 10.0},
    {"Hyderabad", "India", "IN", R::Asia, {17.39, 78.49}, 9.5},
    {"Kolkata", "India", "IN", R::Asia, {22.57, 88.36}, 14.0},
    {"Pune", "India", "IN", R::Asia, {18.52, 73.86}, 6.5},
    {"Karachi", "Pakistan", "PK", R::Asia, {24.86, 67.00}, 15.0},
    {"Lahore", "Pakistan", "PK", R::Asia, {31.55, 74.34}, 11.0},
    {"Dhaka", "Bangladesh", "BD", R::Asia, {23.81, 90.41}, 20.0},
    {"Colombo", "Sri Lanka", "LK", R::Asia, {6.93, 79.85}, 2.2},
    {"Kathmandu", "Nepal", "NP", R::Asia, {27.72, 85.32}, 3.0},
    {"Yangon", "Myanmar", "MM", R::Asia, {16.87, 96.20}, 5.0},
    {"Phnom Penh", "Cambodia", "KH", R::Asia, {11.56, 104.92}, 2.2},
    {"Almaty", "Kazakhstan", "KZ", R::Asia, {43.22, 76.85}, 2.0},
    {"Tashkent", "Uzbekistan", "UZ", R::Asia, {41.30, 69.24}, 2.5},
    {"Ulaanbaatar", "Mongolia", "MN", R::Asia, {47.89, 106.91}, 1.5},
    // --- Oceania ---
    {"Sydney", "Australia", "AU", R::Oceania, {-33.87, 151.21}, 5.3},
    {"Melbourne", "Australia", "AU", R::Oceania, {-37.81, 144.96}, 5.1},
    {"Brisbane", "Australia", "AU", R::Oceania, {-27.47, 153.03}, 2.5},
    {"Perth", "Australia", "AU", R::Oceania, {-31.95, 115.86}, 2.1},
    {"Adelaide", "Australia", "AU", R::Oceania, {-34.93, 138.60}, 1.3},
    {"Auckland", "New Zealand", "NZ", R::Oceania, {-36.85, 174.76}, 1.6},
    {"Wellington", "New Zealand", "NZ", R::Oceania, {-41.29, 174.78}, 0.5},
    {"Suva", "Fiji", "FJ", R::Oceania, {-18.14, 178.44}, 0.4},
    {"Port Moresby", "Papua New Guinea", "PG", R::Oceania, {-9.44, 147.18}, 0.6},
    {"Noumea", "New Caledonia", "NC", R::Oceania, {-22.26, 166.45}, 0.2},
    {"Honolulu", "United States", "US", R::Oceania, {21.31, -157.86}, 0.9},
};

}  // namespace

const CityDb& CityDb::world() {
  static const CityDb db{{std::begin(kCities), std::end(kCities)}};
  return db;
}

std::optional<CityId> CityDb::find(std::string_view name) const {
  for (std::size_t i = 0; i < cities_.size(); ++i) {
    if (cities_[i].name == name) return static_cast<CityId>(i);
  }
  return std::nullopt;
}

std::vector<CityId> CityDb::in_region(Region r) const {
  std::vector<CityId> out;
  for (std::size_t i = 0; i < cities_.size(); ++i) {
    if (cities_[i].region == r) out.push_back(static_cast<CityId>(i));
  }
  return out;
}

CityDb::CityDb(std::vector<City> cities) : cities_(std::move(cities)) {
  // Dense pairwise distance matrix (~170^2 doubles for the world database).
  // Both triangles are computed independently so each lookup returns the
  // bit-exact double the direct great_circle_distance call used to produce.
  const std::size_t n = cities_.size();
  dist_km_.resize(n * n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      dist_km_[a * n + b] =
          great_circle_distance(cities_[a].location, cities_[b].location).value();
    }
  }
}

}  // namespace bgpcmp::topo
