// detlint fixture header: drags <chrono> into every includer's closure.
// The D4 finding lands on the includer's `#include "d4_wallclock_header.h"`
// line with the chain spelled out; the steady_clock call below is R4's.
// Deliberately NOT compiled.
#pragma once

#include <chrono>
#include <vector>

namespace fixture {

inline double now_seconds() {
  const auto tick = std::chrono::steady_clock::now().time_since_epoch();  // expect: R4
  return std::chrono::duration<double>(tick).count();
}

}  // namespace fixture
