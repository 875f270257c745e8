// detlint fixture: rule R6 (bare assert() and <cassert> in src/). Invariants
// go through BGPCMP_CHECK*; static_assert is a compile-time check and does
// not fire, nor does a comment that says assert(x) or #include <cassert>.
// Deliberately NOT compiled.
#include <cassert>  // expect: R6
#include <cassert>  // lint:allow(R6): opt-out is honored

namespace fixture_r6 {

static_assert(sizeof(int) >= 2, "static_assert does not fire R6");

inline void check(int x) {
  assert(x > 0);  // expect: R6
  assert(x < 9);  // lint:allow(R6): opt-out is honored
}

inline const char* prose() { return "assert(false)"; }

}  // namespace fixture_r6
