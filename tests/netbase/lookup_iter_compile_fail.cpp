// Compile-time check that LookupMap and LookupSet cannot be iterated, built
// only by the lookup_iter_* ctests (one shape per LOOKUP_ITER_SHAPE; see
// tests/CMakeLists.txt). Hash-container iteration order is unspecified, so
// every iterating shape (1-4) must fail to compile on the missing begin().
// Shape 0 is the control: point lookups, inserts and erases must compile, so
// a failing shape cannot pass for some other reason.
#include <algorithm>
#include <cstdint>
#include <iterator>

#include "bgpcmp/netbase/lookup.h"

std::int64_t lookup_shape(bgpcmp::LookupMap<int, int>& m, bgpcmp::LookupSet<int>& s) {
#if LOOKUP_ITER_SHAPE == 0
  m.try_emplace(1, 10);
  s.insert(2);
  const int* hit = m.find(1);
  const std::int64_t total =
      (hit != nullptr ? *hit : 0) + m.at(1) + (s.contains(2) ? 1 : 0);
  m.erase(1);
  s.erase(2);
  return total + static_cast<std::int64_t>(m.size() + s.size());
#elif LOOKUP_ITER_SHAPE == 1
  std::int64_t total = 0;
  for (const auto& kv : m) total += kv.second;  // range-for
  return total;
#elif LOOKUP_ITER_SHAPE == 2
  auto it = s.begin();  // iterator escape
  return *it;
#elif LOOKUP_ITER_SHAPE == 3
  auto it = std::begin(m);  // ADL/std::begin escape
  return it->second;
#elif LOOKUP_ITER_SHAPE == 4
  std::int64_t total = 0;
  std::for_each(m.begin(), m.end(), [&total](const auto& kv) { total += kv.second; });
  return total;
#endif
}
