// detlint fixture: rule D10 name scoping, the global half. A mutable
// namespace-scope `t` in a file that d10_local_t.cpp does not include: it is
// not in scope there, so the `t`s in that file's pure chunks must not report
// D10. Deliberately NOT compiled.
namespace fixture_d10_global {

double t = 0.0;

}  // namespace fixture_d10_global
