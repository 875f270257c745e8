// detlint fixture: rule R4 (wall-clock reads). Only <mutex> is included, so
// D4 sees no banned header, yet <mutex> brings <chrono> along in libstdc++
// and the steady_clock call compiles. R4 catches it; that is why R4 stays
// beside D4. A comment naming system_clock or time(nullptr) does not fire.
// Deliberately NOT compiled.
#include <mutex>

namespace fixture_r4 {

inline long long ticks() {
  return std::chrono::steady_clock::now().time_since_epoch().count();  // expect: R4
}

inline long long epoch() { return static_cast<long long>(std::time(nullptr)); }  // expect: R4

inline long long allowed() {
  return std::chrono::system_clock::now().time_since_epoch().count();  // lint:allow(R4)
}

inline const char* prose() { return "gettimeofday and localtime in a string"; }

// A member named like a clock call but taking a value is not a wall-clock read.
struct Event {
  double time(int step) const { return 0.5 * step; }
};
inline double at(const Event& e) { return e.time(3); }

}  // namespace fixture_r4
