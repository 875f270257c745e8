// detlint fixture: rule R7 (raw std::unordered_* container in src/). Hash
// containers live behind LookupMap/LookupSet (bgpcmp/netbase/lookup.h),
// which have no begin()/end(), so their unspecified iteration order cannot
// reach output; the lookup_iter_* ctests pin that. A comment or string that
// names std::unordered_map does not fire. Deliberately NOT compiled.
#include <unordered_map>  // expect: R7
#include <unordered_set>  // expect: R7

namespace fixture_r7 {

inline int raw(const std::unordered_map<int, int>& weights) {  // expect: R7
  std::unordered_multiset<int> seen;  // expect: R7
  return static_cast<int>(weights.size() + seen.size());
}

inline int waived(const std::unordered_set<int>& s) {  // lint:allow(R7): opt-out is honored
  return static_cast<int>(s.size());
}

inline const char* prose() { return "std::unordered_map<int, int>"; }

}  // namespace fixture_r7
