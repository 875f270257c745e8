// detlint fixture: rule R3 (raw mt19937 outside netbase/rng.{h,cpp}). Model
// code takes an Rng; a comment naming std::mt19937_64 does not fire.
// Deliberately NOT compiled.
namespace fixture_r3 {

inline unsigned draw(unsigned seed) {
  std::mt19937 gen{seed};  // expect: R3
  return gen();
}

inline unsigned allowed(unsigned seed) {
  std::mt19937_64 gen{seed};  // lint:allow(R3): opt-out is honored
  return static_cast<unsigned>(gen());
}

inline const char* prose() { return "std::mt19937"; }

}  // namespace fixture_r3
