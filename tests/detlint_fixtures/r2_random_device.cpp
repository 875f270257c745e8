// detlint fixture: rule R2 (std::random_device). Nondeterministic seeding is
// banned; a comment naming std::random_device does not fire.
// Deliberately NOT compiled.
namespace fixture_r2 {

inline unsigned seed() {
  std::random_device rd;  // expect: R2
  return rd();
}

inline unsigned allowed() {
  std::random_device rd;  // lint:allow(R2): opt-out is honored
  return rd();
}

inline const char* prose() { return "std::random_device"; }

}  // namespace fixture_r2
