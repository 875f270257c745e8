// detlint fixture: rule D10 (chunk purity), firing and clean cases.
//
// A BGPCMP_PURE_CHUNK function may not reach mutable function-local statics
// or unguarded namespace-scope state. Deliberately NOT compiled; the macros
// stand in for the real headers.
#define BGPCMP_PURE_CHUNK
#define BGPCMP_GUARDED_BY(x)

namespace fixture_d10 {

class Mutex {};

int g_call_count = 0;
const int kScale = 3;
Mutex g_mu;
int g_tally BGPCMP_GUARDED_BY(g_mu) = 0;

// Reached one hop down from a pure chunk: the static accumulates across
// chunks, so output depends on which chunks ran before.
inline int cached_helper(int x) {
  static int cache = 0;  // expect: D10
  cache += x;
  return cache;
}

BGPCMP_PURE_CHUNK
inline int chunk_hits_static(int x) { return cached_helper(x); }

// Direct read of a mutable unguarded global.
BGPCMP_PURE_CHUNK
inline int chunk_reads_global(int x) {
  return g_call_count + x;  // expect: D10
}

// Clean: const globals and const function-local statics are immutable, and a
// BGPCMP_GUARDED_BY global is the lock discipline's problem (D2/D6), not a
// purity leak.
BGPCMP_PURE_CHUNK
inline int chunk_clean(int x) {
  static const int kTable[4] = {1, 2, 3, 5};
  return kTable[x & 3] * kScale + g_tally;
}

// Clean: a parameter named like the mutable global shadows it.
BGPCMP_PURE_CHUNK
inline int chunk_shadows_global(int g_call_count) { return g_call_count * kScale; }

}  // namespace fixture_d10
