// Compile-time check that bgpcmp::Rng is move-only, built only by the
// rng_copy_* ctests (one shape per RNG_COPY_SHAPE; see tests/CMakeLists.txt).
// A copy replays the parent's draws and silently forks draw order, so every
// copying shape (1-5) must fail to compile on the deleted copy operations.
// Shape 0 is the control: it moves and forks, never copies, and must compile,
// so a failing shape cannot pass for some other reason.
#include <cstdint>
#include <utility>

#include "bgpcmp/netbase/rng.h"

namespace {

std::int64_t draw(bgpcmp::Rng rng) { return rng.uniform_int(0, 9); }

}  // namespace

std::int64_t copy_shape(bgpcmp::Rng& a) {
#if RNG_COPY_SHAPE == 0
  bgpcmp::Rng b = a.fork("b");
  bgpcmp::Rng c{std::move(b)};
  auto d = a.fork("d");
  d = a.fork("d2");
  return draw(a.fork("draw")) + draw(std::move(c)) + draw(std::move(d));
#elif RNG_COPY_SHAPE == 1
  return draw(a);  // by-value parameter bound to an lvalue
#elif RNG_COPY_SHAPE == 2
  bgpcmp::Rng b = a;
  return draw(std::move(b));
#elif RNG_COPY_SHAPE == 3
  bgpcmp::Rng b{a};
  return draw(std::move(b));
#elif RNG_COPY_SHAPE == 4
  auto b = a;
  return draw(std::move(b));
#elif RNG_COPY_SHAPE == 5
  bgpcmp::Rng b{1};
  b = a;
  return draw(std::move(b));
#endif
}
