// detlint fixture: rule R1 (C rand()/srand()). All randomness flows through
// bgpcmp::Rng. A comment that says rand() or srand(7) does not fire.
// Deliberately NOT compiled.
namespace fixture_r1 {

inline int roll() { return rand() % 6; }  // expect: R1

inline void reseed() { std::srand(7); }  // expect: R1

inline int allowed() { return rand(); }  // lint:allow(R1): opt-out is honored

inline const char* prose() { return "rand() in a string literal"; }

// Identifiers that merely end in "rand" are not calls to it.
inline int operand(int x) { return x; }
inline int brand() { return operand(1); }

}  // namespace fixture_r1
