// detlint fixture: tokenizer regressions. Raw string literals (with every
// encoding prefix) and multi-line comments must be skipped whole — the decoy
// declarations inside them must not register with any rule — and scanning
// must resume correctly afterwards (the trailing D2 case proves it).
#include <string>

#define BUFFER "prefix-"

namespace fixture_tok {

inline void raw_strings_skipped() {
  // Each literal contains text that would fire R7/D2 if the cleaner
  // mis-tracked the raw-string delimiter. The u8R case embeds quotes: a
  // scanner that misses the prefix and reads an ordinary string would leak
  // the decoy between the inner quotes back into live code.
  std::string plain = R"(mutable int decoy_a; std::unordered_map<int, int> m1;)";
  std::string with_delim = R"delim(Rng copied = base; for (auto& kv : m1) {})delim";
  std::string u8_prefix = u8R"(say "mutable int decoy_b;" done)";
  std::wstring wide = LR"(std::unordered_set<int> s1; auto c = s1.begin();)";
  (void)plain;
  (void)with_delim;
  (void)u8_prefix;
  (void)wide;
}

inline const char* not_a_raw_prefix() {
  // BUFFER ends in R and abuts the quote: an ordinary string concatenation,
  // not the opening of an R"..." raw literal. A scanner that mis-opens a raw
  // scan here would swallow the rest of the file looking for a )" that
  // never comes — losing the D2 finding below.
  return BUFFER"(this is not a raw string";
}

/* A multi-line comment full of decoys:
     mutable int decoy_d;
     Rng copy = parent;
     std::unordered_map<int, int> m2;
     for (auto& kv : m2) { }
   none of which may register as declarations or members. */

// Scanning must have resumed by here: this genuinely unguarded mutable
// member is still caught.
class AfterTheDecoys {
 private:
  mutable int hot_ = 0;  // expect: D2
};

}  // namespace fixture_tok
