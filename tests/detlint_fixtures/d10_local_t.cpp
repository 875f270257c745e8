// detlint fixture: rule D10 name scoping, the chunk half. Each `t` below is a
// local, a parameter or a member, never the mutable global `t` declared in
// d10_global_t.cpp (not included here), so no line reports D10.
// Deliberately NOT compiled; the macro stands in for the real header.
#define BGPCMP_PURE_CHUNK

namespace fixture_d10_local {

struct Window {
  double t = 0.0;
};

BGPCMP_PURE_CHUNK
inline double chunk_local_t(double x) {
  const double t = x * 2.0;
  return t + 1.0;
}

BGPCMP_PURE_CHUNK
inline double chunk_param_t(double t) { return t * t; }

BGPCMP_PURE_CHUNK
inline double chunk_member_t(const Window& w) { return w.t; }

}  // namespace fixture_d10_local
