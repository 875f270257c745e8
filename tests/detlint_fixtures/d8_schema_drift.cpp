// detlint fixture: rule D8 (serialization-schema drift), firing cases.
//
// Each record type has one field list, `fields(A& a, T& t)`, which the
// snapshot writer and reader both run through, so the two cannot disagree.
// D8 checks that a list names every non-waived member exactly once, in
// declaration order, and pins each layout in the fixture lock file
// (d8_schema.lock, version 3). Its digests are correct for every type except
// DriftRec, whose locked digest was taken before a field rename.
// Deliberately NOT compiled.
namespace fixture_d8 {

constexpr unsigned kSnapshotVersion = 3;

// Fully clean: every non-waived member is listed once, in declaration
// order; `derived` is recomputed on load and waived.
struct GoodRec {
  unsigned a = 0;
  double b = 0.0;
  int derived = 0;  // lint:allow(D8)
};

template <class A>
void fields(A& ar, GoodRec& g) {
  ar(g.a, g.b);
}

// The lock was taken when the second field was still called `yy`; the digest
// no longer matches, and kSnapshotVersion was not bumped.
struct DriftRec {  // expect: D8
  unsigned x = 0;
  double y = 0.0;
};

template <class A>
void fields(A& ar, DriftRec& d) {
  ar(d.x, d.y);
}

// The field list forgets `r`: a member that never crosses the wire is an
// error even with a version bump.
struct SkipRec {
  unsigned p = 0;
  unsigned q = 0;
  unsigned r = 0;  // expect: D8
};

template <class A>
void fields(A& ar, SkipRec& s) {
  ar(s.p, s.q);
}

// Listed n before m: the wire order no longer follows the declaration order
// the lock digests, so reordering the list would go unnoticed by the lock.
struct OrderRec {
  unsigned m = 0;
  unsigned n = 0;
};

template <class A>
void fields(A& ar, OrderRec& o) {  // expect: D8
  ar(o.n, o.m);
}

}  // namespace fixture_d8
