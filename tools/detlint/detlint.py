#!/usr/bin/env python3
"""detlint - the bgpcmp lint: determinism and concurrency contracts.

One tool holds every repo lint rule (docs/TOOLING.md, "Static contracts").
The token rules R1-R6 are single-line patterns; the D rules need type
information, an include graph or a call graph. No rule is checked in two
places with different semantics.

Rules
-----
Token rules. Each is one TOKEN_RULES row matched line by line against the
source with comments and string literals blanked, so prose that names a
pattern never fires. tests/detlint_fixtures/ is outside every scope.
  R1  C rand()/srand(), in src tools bench examples tests. All randomness
      flows through bgpcmp::Rng.
  R2  std::random_device, same scope: nondeterministic seeding is banned.
  R3  mt19937 in src tools outside netbase/rng.{h,cpp}: model code takes an
      Rng.
  R4  wall-clock reads (system_clock, steady_clock, gettimeofday, time(0)
      ...) in src tools: simulation time is SimTime. D4 follows includes
      only through repo headers, so a file that reaches <chrono> through a
      standard header such as <mutex> passes D4; R4 still sees the call.
  R6  bare assert() or #include <cassert> in src: invariants go through
      BGPCMP_CHECK* so they print diagnostics and survive Release builds.
      static_assert does not match.

Semantic rules, over src tools bench.
  D1  unordered-container iteration in model code. Covers range-for,
      iterator-based loops (for (auto it = m.begin(); ...)), and .begin()
      escapes into algorithms - the cases the old grep rule R5 missed.
      Iteration order is unspecified and must never shape emitted tables or
      RNG draw order.
  D2  mutable class members in src/ that are none of: std::atomic, a mutex
      type, BGPCMP_GUARDED_BY-annotated, or BGPCMP_SINGLE_THREAD-marked
      (member- or class-level). Unsynchronized lazy state must either be
      locked or carry an explicit single-thread waiver.
  D3  retired: Rng is move-only, so the compiler rejects the stream copies
      this pass looked for (the rng_copy_* ctests pin that).
  D4  wall-clock / raw-randomness reach-through: a model translation unit
      whose include closure (through repo headers) pulls in <chrono>,
      <ctime>, <time.h>, <sys/time.h> or <random>. The Rng wrapper
      (netbase/rng.*) is the sanctioned home for <random>; everything else
      needs a lint:allow(D4) on the include line.
  D5  phase-contract violations. Functions declare their phase with
      BGPCMP_PHASE(build|warm|serve) and serve-phase entry points name the
      warm step that must dominate them with BGPCMP_REQUIRES_WARMED(fn).
      detlint builds an over-approximate call graph (symbol table over every
      scanned file plus its include closure) and reports (a) a serve call
      reachable from a parallel_for/parallel_map region with no dominating
      call to the named warm function earlier on the chain and no
      constructor that performs it, and (b) a serve-phase function that
      transitively reaches warm/build-phase work. Methods of
      BGPCMP_SINGLE_THREAD-waived classes (WeightedCdf's sort cache) are
      accepted without a phase annotation: their safety story is the
      OwningThread runtime pin, not the phase discipline.
      Reported with the offending call chain, like D4 does for includes.
  D6  lock-order cycles. Mutex declarations (optionally ranked with
      BGPCMP_ACQUIRES_ORDER(n)) plus MutexLock/.lock() sites feed a global
      acquisition graph: an edge A -> B means B was acquired while A was
      held, directly or through the call graph. Any cycle fails, as does
      acquiring a lower-ranked mutex while holding a higher-ranked one.
      Lambda bodies are excluded from held-while-calling analysis: a task
      queued under a lock runs after the lock is released.
  D7  parallel-reduction floating-point order: a compound assignment
      (+=, -=, *=, /=) to a variable declared outside the parallel region
      depends on thread interleaving. The sanctioned pattern is
      index-addressed slots written in the region and folded sequentially
      after the join (docs/PARALLELISM.md).
  D8  serialization-schema drift. Functions marked
      BGPCMP_SNAPSHOT_CODEC(section, writer|reader) form wire-codec pairs;
      detlint parses the struct definition of every type the pair touches,
      matches the writer's field-access sequence against the reader's
      (order-sensitive), and requires every non-waived field of a serialized
      struct to cross the wire in both directions. The full layout (field
      names and declared types, in declaration order) is digested into
      tools/detlint/snapshot_schema.lock next to the kSnapshotVersion it was
      taken at; any layout drift while the version stands still is an error,
      and --update-schema-lock refuses to regenerate until the version is
      bumped. Derived/reconstructed fields opt out with lint:allow(D8) on
      their declaration line.
  D9  RNG fork lineage. Inside a parallel region, a draw on an Rng declared
      outside the region (directly, or by passing it to a callee that draws
      through a non-const Rng& parameter) makes draw order depend on thread
      interleaving. Within a BGPCMP_PURE_CHUNK body, drawing on an unforked
      root (Rng constructed straight from a seed) couples chunks through
      cursor state. Label hygiene: two fork sites with the same label on the
      same receiver collide; a dynamic label whose literal prefix does not
      end in a separator ("s" + i: "s1"+"2" == "s12"+"") is collision-prone;
      and a fork in a loop body whose label depends on nothing bound by the
      loop replays the same substream every iteration.
  D10 chunk purity. A BGPCMP_PURE_CHUNK function must be pure in its
      explicit inputs: detlint chases every reachable call and fails on
      mutable function-local statics, references to non-const namespace-
      scope globals declared in the function's own file or a header it
      includes, unless a parameter or local of that name shadows them
      (Mutex declarations and BGPCMP_GUARDED_BY state are exempt - their
      safety story is the lock discipline D6 checks), and
      BGPCMP_REQUIRES_WARMED callees not dominated by a per-chunk warm
      inside the chunk body itself (the D5 domination machinery, with the
      whole body as the region).

A line opts out with a trailing comment: // lint:allow(D1), comma-separated
for several rules. D5/D7 findings anchor to the parallel-region line; D6
findings anchor to the second acquisition; D8 field findings anchor to the
field's declaration line.

Engines: with the libclang Python bindings installed the variable-type
registries for D1/D9 are augmented from a real AST; otherwise a tokenizer
fallback tracks declarations textually (including through the repo include
graph, so member types declared in headers are seen from their .cpp files).
--self-test always uses the tokenizer registries: the fixture corpus in
tests/detlint_fixtures pins the fallback semantics that every environment
has. The D5-D7 symbol table and call graph are always tokenizer-built.

--github prints findings as GitHub Actions workflow-command annotations.

Exit status: 0 clean, 1 findings, 2 usage/config error.
"""

import argparse
import json
import os
import re
import sys
from collections import OrderedDict

RULES = OrderedDict(
    [
        ("R1", "C rand()/srand() is banned; use bgpcmp::Rng"),
        ("R2", "std::random_device is nondeterministic; seed explicitly"),
        ("R3", "raw mt19937 outside the Rng wrapper; take an Rng instead"),
        ("R4", "wall-clock read in model code; use SimTime"),
        ("R6", "bare assert() or <cassert> in src/; use BGPCMP_CHECK* (bgpcmp/netbase/check.h)"),
        ("D1", "iteration over an unordered container in model code"),
        ("D2", "mutable member without atomic/lock/BGPCMP_SINGLE_THREAD contract"),
        ("D4", "wall-clock/raw-randomness header reaches model code"),
        ("D5", "serve-phase call without a dominating warm (phase contract)"),
        ("D6", "lock-order cycle or BGPCMP_ACQUIRES_ORDER inversion"),
        ("D7", "order-sensitive reduction inside a parallel region"),
        ("D8", "serialized struct layout drifted from the snapshot schema lock"),
        ("D9", "Rng fork lineage: unforked draw in a parallel/chunk region or a degenerate fork label"),
        ("D10", "BGPCMP_PURE_CHUNK function reaches shared mutable state"),
    ]
)

# Token rules: (rule, pattern over a comment/string-blanked line, path
# prefixes in scope, exempt files). The message is RULES[rule].
TOKEN_ROOTS = ("src", "tools", "bench", "examples", "tests")
_ALL = tuple(r + "/" for r in TOKEN_ROOTS)
_MODEL = ("src/", "tools/")
TOKEN_RULES = (
    ("R1", re.compile(r"(?<!\w)s?rand\s*\("), _ALL, ()),
    ("R2", re.compile(r"random_device"), _ALL, ()),
    ("R3", re.compile(r"mt19937"), _MODEL,
     ("src/netbase/include/bgpcmp/netbase/rng.h", "src/netbase/rng.cpp")),
    ("R4", re.compile(r"system_clock|steady_clock|high_resolution_clock|gettimeofday"
                      r"|clock_gettime|localtime|gmtime"
                      r"|(?<!\w)time\s*\(\s*(?:NULL|nullptr|0)\s*\)"), _MODEL, ()),
    ("R6", re.compile(r"(?<!\w)assert\s*\(|#\s*include\s*<cassert>"), ("src/",), ()),
)

BANNED_HEADERS = {"chrono", "ctime", "time.h", "sys/time.h", "random"}

# The sanctioned home of <random>: the deterministic Rng wrapper itself.
D4_SANCTIONED = ("netbase/rng.h", "netbase/rng.cpp")

UNORDERED_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\b")
ALLOW_RE = re.compile(r"lint:allow\(([A-Za-z0-9_, ]+)\)")
EXPECT_RE = re.compile(r"//\s*expect:\s*([A-Za-z0-9, ]+)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*(?:"([^"]+)"|<([^>]+)>)')

# -- structural-parse regexes (D5-D7) ---------------------------------------

PHASE_RE = re.compile(r"\bBGPCMP_PHASE\s*\(\s*(\w+)\s*\)")
REQWARM_RE = re.compile(r"\bBGPCMP_REQUIRES_WARMED\s*\(\s*([\w:,\s]*?)\s*\)")
PURE_CHUNK_RE = re.compile(r"\bBGPCMP_PURE_CHUNK\b")
CODEC_RE = re.compile(r"\bBGPCMP_SNAPSHOT_CODEC\s*\(\s*(\w+)\s*,\s*(\w+)\s*\)")
ORDER_RE = re.compile(r"\bBGPCMP_ACQUIRES_ORDER\s*\(\s*(\d+)\s*\)")
MUTEX_DECL_RE = re.compile(r"\bMutex\b\s+([A-Za-z_]\w*)")
MACRO_INV_RE = re.compile(r"\b[A-Z][A-Z0-9_]{2,}\s*\([^()]*\)")
ATTR_RE = re.compile(r"\[\[[^\[\]]*\]\]")
CALL_RE = re.compile(
    r"(?:([A-Za-z_]\w*)\s*(?:\.|->)\s*|((?:[A-Za-z_]\w*\s*::\s*)+))?"
    r"([A-Za-z_]\w*)\s*\("
)
MACRO_NAME_RE = re.compile(r"[A-Z][A-Z0-9_]{2,}")
REGION_RE = re.compile(r"\bparallel_(?:for|map|chunks)\s*\(")
LAMBDA_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\)\s*)?(?:mutable\s*)?"
    r"(?:noexcept\s*)?(?:->\s*[\w:<>&*,\s]+?)?\s*\{"
)
LOCK_SITE_RE = re.compile(r"\bMutexLock\b(?:\s+[A-Za-z_]\w*)?\s*([({])")
EXPLICIT_LOCK_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\.|->)\s*lock\s*\(\s*\)")
SMART_PTR_VAR_RE = re.compile(
    r"\b(?:unique_ptr|shared_ptr|optional)\s*<\s*(?:const\s+)?"
    r"(?:[A-Za-z_]\w*\s*::\s*)*([A-Za-z_]\w*)\s*>\s*&?\s*([A-Za-z_]\w*)"
)

# -- D8/D9/D10 regexes -------------------------------------------------------

# Rng's draw methods are exactly the non-const surface of the class; fork()
# and base_seed() are const, which is what makes "const Rng&" statically
# incapable of drawing and the interprocedural D9 chase sound.
DRAW_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*"
    r"(uniform_int|uniform|chance|normal|lognormal|exponential|pareto|"
    r"index|weighted_index|shuffle|engine)\s*\("
)
FORK_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*fork\s*\(")
RNG_ROOT_RE = re.compile(r"\bRng\s+([A-Za-z_]\w*)\s*[{(]")
RNG_REF_PARAM_RE = re.compile(r"(const\s+)?(?:[A-Za-z_]\w*\s*::\s*)*Rng\s*&\s*([A-Za-z_]\w*)")
LOOP_HEAD_RE = re.compile(r"\b(?:for|while)\s*\(")
# Dotted field-access chains (a.b, a->b.c ...) for the D8 codec model.
PATH_RE = re.compile(r"\b([A-Za-z_]\w*)((?:\s*(?:\.|->)\s*[A-Za-z_]\w*)+)")
INDEXED_PATH_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*\[[^\[\]]*\]((?:\s*(?:\.|->)\s*[A-Za-z_]\w*)+)"
)
SNAP_PRIM_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*(u8|u16|u32|u64|f64|str)\s*\(")
READER_MUTATOR_CALLS = frozenset({"push_back", "emplace_back"})
VERSION_CONST_RE = re.compile(r"\bkSnapshotVersion\s*=\s*(\d+)")
STRUCT_HEAD_RE = re.compile(
    r"\b(?:struct|class)\s+(?:[A-Z][A-Z0-9_]{2,}\s+)*([A-Za-z_]\w*)"
    r"(\s+final)?\s*(:[^:{;=()]*)?\{"
)
STATIC_LOCAL_RE = re.compile(r"\bstatic\b|\bthread_local\b")


def fnv1a64(s):
    h = 0xCBF29CE484222325
    for b in s.encode("utf-8"):
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def split_top_commas(s):
    """Split s at commas outside (), {}, [] and <> nesting."""
    parts, depth, angle, last = [], 0, 0, 0
    for i, ch in enumerate(s):
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        elif ch == "<":
            prev = _prev_nonspace(s, i)
            if prev.isalnum() or prev in "_>":
                angle += 1
        elif ch == ">" and angle > 0 and (i == 0 or s[i - 1] != "-"):
            angle -= 1
        elif ch == "," and depth == 0 and angle == 0:
            parts.append(s[last:i])
            last = i + 1
    parts.append(s[last:])
    return parts


def _match_brace(s, start):
    depth = 0
    for idx in range(start, len(s)):
        if s[idx] == "{":
            depth += 1
        elif s[idx] == "}":
            depth -= 1
            if depth == 0:
                return idx
    return None


def bare_type(t):
    """Last namespace component of a declared type, template args stripped:
    'const std::vector<topo::AsNode>&' -> 'vector', 'cdn::Pop' -> 'Pop'."""
    t = re.sub(r"\b(?:const|constexpr|inline|volatile|struct|class|typename)\b", " ", t)
    t = t.replace("&", " ").replace("*", " ").strip()
    lt = t.find("<")
    if lt >= 0:
        t = t[:lt]
    t = t.strip()
    return t.split("::")[-1].strip() if t else ""

CPP_KEYWORDS = frozenset(
    """if else for while do switch case default return break continue goto
    new delete sizeof alignof alignas decltype typeid noexcept throw try
    catch static_cast dynamic_cast const_cast reinterpret_cast static_assert
    using namespace template typename class struct union enum public private
    protected friend operator this nullptr true false const constexpr
    consteval constinit volatile mutable inline static extern register auto
    void bool char int short long float double signed unsigned requires
    concept co_await co_return co_yield asm export and or not assert
    defined""".split()
)

FN_TRAILER_TOKENS = frozenset(
    {"const", "noexcept", "override", "final", "mutable", "try"}
)


class Finding:
    def __init__(self, path, line, rule, message, chain=None):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.chain = chain or []

    def key(self):
        return (self.path, self.line, self.rule)

    def __str__(self):
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def clean_source(text):
    """Blank comments and string/char literals, preserving line structure.

    Returns (clean_text, allow_map) where allow_map maps 1-based line numbers
    to the set of rules allowed on that line (parsed from comments before
    they are blanked).
    """
    allow = {}
    for i, line in enumerate(text.splitlines(), start=1):
        m = ALLOW_RE.search(line)
        if m:
            allow[i] = {r.strip() for r in m.group(1).split(",") if r.strip()}
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                # Raw string literals (with any encoding prefix - R, u8R, uR,
                # UR, LR): skip to the closing delimiter whole. The prefix
                # must not be the tail of a longer identifier.
                pm = re.search(r"(?:u8|u|U|L)?R$", text[max(0, i - 3) : i])
                if pm:
                    j = i - len(pm.group(0))
                    if j > 0 and (text[j - 1].isalnum() or text[j - 1] == "_"):
                        pm = None
                dm = re.match(r'([^()\s\\]{0,16})\(', text[i + 1 : i + 18]) if pm else None
                if dm:
                    delim = ")" + dm.group(1) + '"'
                    end = text.find(delim, i)
                    end = n if end < 0 else end + len(delim)
                    out.append("".join("\n" if ch == "\n" else " " for ch in text[i:end]))
                    i = end
                else:
                    state = "string"
                    out.append('"')
                    i += 1
            elif c == "'":
                state = "char"
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # string or char
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(quote)
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out), allow


# -- structural model (D5-D7) ------------------------------------------------


class Func:
    """A function definition or declaration found by the structural parser."""

    __slots__ = (
        "sf", "cls", "bare", "line", "phase", "requires", "body_span",
        "pure_chunk", "codec", "param_types", "rng_ref_params",
    )

    def __init__(self, sf, cls, bare, line, phase, requires, body_span,
                 pure_chunk=False, codec=None, param_types=None,
                 rng_ref_params=()):
        self.sf = sf
        self.cls = cls
        self.bare = bare
        self.line = line
        self.phase = phase
        self.requires = requires
        self.body_span = body_span  # (start, end) offsets in pp_clean, or None
        self.pure_chunk = pure_chunk  # BGPCMP_PURE_CHUNK (D9/D10)
        self.codec = codec  # (section, role) from BGPCMP_SNAPSHOT_CODEC (D8)
        self.param_types = param_types or {}  # name -> declared type text
        self.rng_ref_params = rng_ref_params  # non-const Rng& parameter names

    @property
    def display(self):
        return f"{self.cls}::{self.bare}" if self.cls else self.bare


class GlobalVar:
    """A namespace-scope variable declaration (D10 purity facts)."""

    __slots__ = ("sf", "name", "is_const", "guarded", "line")

    def __init__(self, sf, name, is_const, guarded, line):
        self.sf = sf
        self.name = name
        self.is_const = is_const
        self.guarded = guarded  # BGPCMP_GUARDED_BY: lock discipline covers it
        self.line = line


class StructDef:
    """A parsed struct/class definition: ordered data members (D8)."""

    __slots__ = ("sf", "name", "line", "fields")

    def __init__(self, sf, name, line, fields):
        self.sf = sf
        self.name = name
        self.line = line
        self.fields = fields  # [(name, normalized type, line, waived)]

    def field_type(self, name):
        for fname, ftype, _, _ in self.fields:
            if fname == name:
                return ftype
        return None

    def waived(self, name):
        return any(f[0] == name and f[3] for f in self.fields)

    def canonical(self):
        parts = [
            f"{fname}:{ftype}" + ("!waived" if waived else "")
            for fname, ftype, _, waived in self.fields
        ]
        return f"{self.name}=" + ",".join(parts)


class MutexDecl:
    __slots__ = ("sf", "cls", "name", "order", "line")

    def __init__(self, sf, cls, name, order, line):
        self.sf = sf
        self.cls = cls
        self.name = name
        self.order = order
        self.line = line

    @property
    def key(self):
        return f"{self.cls}::{self.name}" if self.cls else self.name


class Call:
    __slots__ = ("off", "receiver", "quals", "name")

    def __init__(self, off, receiver, quals, name):
        self.off = off
        self.receiver = receiver
        self.quals = quals
        self.name = name


def _strip_angles(s):
    """Remove <...> spans (template argument lists) from a declaration head."""
    out = []
    depth = 0
    for ch in s:
        if ch == "<":
            depth += 1
        elif ch == ">":
            if depth > 0:
                depth -= 1
                continue
        if depth == 0:
            out.append(ch)
    return "".join(out)


def _prev_nonspace(s, idx):
    j = idx - 1
    while j >= 0 and s[j] in " \t\n":
        j -= 1
    return s[j] if j >= 0 else ""


def _find_top_paren(s):
    """Offset of the first '(' outside template angle brackets, or None."""
    depth = 0
    for idx, ch in enumerate(s):
        if ch == "<":
            prev = _prev_nonspace(s, idx)
            if prev.isalnum() or prev in "_>":
                depth += 1
        elif ch == ">" and depth > 0:
            if idx > 0 and s[idx - 1] == "-":  # ->
                continue
            depth -= 1
        elif ch == "(" and depth == 0:
            return idx
    return None


def _match_paren(s, start):
    depth = 0
    for idx in range(start, len(s)):
        if s[idx] == "(":
            depth += 1
        elif s[idx] == ")":
            depth -= 1
            if depth == 0:
                return idx
    return None


def _strip_template_header(s):
    s = s.lstrip()
    while s.startswith("template"):
        lt = s.find("<")
        if lt < 0:
            break
        depth = 0
        cut = None
        for idx in range(lt, len(s)):
            if s[idx] == "<":
                depth += 1
            elif s[idx] == ">":
                depth -= 1
                if depth == 0:
                    cut = idx + 1
                    break
        if cut is None:
            break
        s = s[cut:].lstrip()
    return s


OPERATOR_NAME_RE = re.compile(
    r"\boperator\s*(?:<=>|<<=?|>>=?|->\*?|\[\]|[+\-*/%^&|~!<>=]=?|&&|\|\||"
    r"\+\+|--|,)"
)


def _decl_name(seg):
    """(qualified_name, bare) of the function a declaration head names."""
    s = _strip_template_header(seg)
    s2 = ATTR_RE.sub(" ", MACRO_INV_RE.sub(" ", s))
    # Symbol-named operators (operator=, operator==, ...) read as synthetic
    # identifiers; without this, the '=' rejection below mistakes a
    # move-assignment definition for an initializer, and the walk then
    # mis-segments every later function in the file.
    s2 = OPERATOR_NAME_RE.sub("operator_fn", s2)
    ppos = _find_top_paren(s2)
    if ppos is None:
        return None, None, None
    head = s2[:ppos]
    if "=" in _strip_angles(head):
        return None, None, None
    nm = re.search(r"([\w~]+(?:\s*::\s*[\w~]+)*)\s*$", head)
    if not nm:
        return None, None, None
    qual = re.sub(r"\s+", "", nm.group(1))
    bare = qual.split("::")[-1]
    if bare in CPP_KEYWORDS or bare == "operator":
        return None, None, None
    return qual, bare, (s2, ppos)


def _function_trailer_ok(s2, ppos):
    """After the parameter list, only function-definition trailers may follow
    (cv/ref qualifiers, noexcept, override, trailing return, ctor init list
    ending at a closing paren/brace). Rejects mid-statement braces such as a
    brace-initialized member inside a constructor init list."""
    q = _match_paren(s2, ppos)
    if q is None:
        return False
    trailer = s2[q + 1 :].strip()
    if not trailer:
        return True
    if trailer[-1] in ")}>&":
        return True
    tok = re.search(r"([A-Za-z_]\w*)$", trailer)
    return bool(tok) and tok.group(1) in FN_TRAILER_TOKENS


def _classify_preamble(pre):
    """Classify the text before a '{' at declaration scope.

    Returns (kind, payload, waived): kind is one of namespace/class/enum/
    function/init/block; payload is the class name or the function's
    qualified name; waived marks a BGPCMP_SINGLE_THREAD class."""
    s = pre.strip()
    if not s:
        return "block", None, False
    if re.search(r"\bnamespace\b", _strip_angles(s)):
        return "namespace", None, False
    if re.search(r"\benum\b", s):
        return "enum", None, False
    cm = re.search(r"\b(class|struct|union)\b", s)
    if cm:
        tail = s[cm.end() :]
        tail2 = ATTR_RE.sub(" ", MACRO_INV_RE.sub(" ", tail))
        head = re.split(r"(?<!:):(?!:)", tail2, maxsplit=1)[0]
        if "(" not in head:
            nm = re.search(r"([A-Za-z_]\w*)\s*(?:final\s*)?$", head.strip())
            name = nm.group(1) if nm else None
            if name == "final":
                nm2 = re.search(r"([A-Za-z_]\w*)\s+final\s*$", head.strip())
                name = nm2.group(1) if nm2 else name
            return "class", name, "BGPCMP_SINGLE_THREAD" in tail
    qual, bare, ctx = _decl_name(s)
    if qual is None:
        return "init", None, False
    s2, ppos = ctx
    if not _function_trailer_ok(s2, ppos):
        return "init", None, False
    return "function", qual, False


class SourceFile:
    def __init__(self, root, relpath):
        self.rel = relpath
        self.abspath = os.path.join(root, relpath)
        with open(self.abspath, encoding="utf-8", errors="replace") as f:
            self.text = f.read()
        self.clean, self.allow = clean_source(self.text)
        self.clean_lines = self.clean.splitlines()
        self.includes = self._scan_includes()
        self._registry = None
        self._pp_clean = None
        self._structure = None
        self._class_vars = None

    def _scan_includes(self):
        """[(line_no, target, is_system)] from non-commented include lines."""
        out = []
        raw_lines = self.text.splitlines()
        for i, line in enumerate(self.clean_lines, start=1):
            # The clean line decides whether the directive is live (it blanks
            # commented-out includes); the raw line supplies the target, which
            # the cleaner blanks as a string literal.
            if not line.lstrip().startswith("#"):
                continue
            m = INCLUDE_RE.match(raw_lines[i - 1])
            if m:
                target = m.group(1) or m.group(2)
                out.append((i, target, m.group(2) is not None))
        return out

    def allows(self, line, rule):
        return rule in self.allow.get(line, ())

    def line_of_offset(self, off):
        return self.clean.count("\n", 0, off) + 1

    @property
    def pp_clean(self):
        """The clean text with preprocessor directive lines (and their
        backslash continuations) blanked, so #define bodies never read as
        declarations to the structural parser."""
        if self._pp_clean is not None:
            return self._pp_clean
        clean_lines = self.clean.splitlines(True)
        raw_lines = self.text.splitlines(True)
        out = []
        cont = False
        for idx, ln in enumerate(clean_lines):
            directive = cont or ln.lstrip().startswith("#")
            if directive:
                out.append(re.sub(r"[^\n]", " ", ln))
                raw = raw_lines[idx] if idx < len(raw_lines) else ""
                cont = raw.rstrip("\n").endswith("\\")
            else:
                out.append(ln)
                cont = False
        self._pp_clean = "".join(out)
        return self._pp_clean

    def registry(self):
        """Tokenizer-derived name registries: (unordered vars, Rng vars)."""
        if self._registry is not None:
            return self._registry
        unordered, rngs = set(), set()
        aliases = set()
        text = self.clean
        for m in UNORDERED_RE.finditer(text):
            i = m.end()
            # Skip the template argument list, if any, with balanced <>.
            while i < len(text) and text[i] in " \t\n":
                i += 1
            if i < len(text) and text[i] == "<":
                depth = 0
                while i < len(text):
                    if text[i] == "<":
                        depth += 1
                    elif text[i] == ">":
                        depth -= 1
                        if depth == 0:
                            i += 1
                            break
                    i += 1
            # `using Alias = std::unordered_map<...>;`
            before = text[: m.start()]
            am = re.search(r"\busing\s+(\w+)\s*=\s*(?:std::)?$", before[-64:])
            if am:
                aliases.add(am.group(1))
                continue
            dm = re.match(r"\s*[&*]{0,2}\s*(\w+)\s*([;,=({\[)]|$)", text[i : i + 160])
            if dm and dm.group(2) != "(":  # identifier( is a function name
                unordered.add(dm.group(1))
        for alias in aliases:
            for dm in re.finditer(r"\b" + re.escape(alias) + r"\b\s*[&*]{0,2}\s*(\w+)\s*[;,=({\[)]", text):
                unordered.add(dm.group(1))
        for dm in re.finditer(r"\bRng\s+(\w+)\s*[^(\w]", text):
            rngs.add(dm.group(1))
        self._registry = (unordered, rngs)
        return self._registry

    # -- structural parse (D5-D7) ------------------------------------------

    def structure(self):
        """(funcs, mutex_decls, single_thread_classes, globals) for this file."""
        if self._structure is not None:
            return self._structure
        text = self.pp_clean
        funcs, mutexes, st_classes, gvars = [], [], set(), []
        stack = []  # (kind, payload)
        last = 0
        func_depth = 0
        init_depth = 0
        for i, c in enumerate(text):
            if c == "{":
                pre = text[last:i]
                if func_depth or init_depth:
                    kind, payload, waived = "block", None, False
                else:
                    kind, payload, waived = _classify_preamble(pre)
                if kind == "init":
                    stack.append(("init", None))
                    init_depth += 1
                    continue
                if kind == "function":
                    fn = self._make_func(pre, payload, stack, i)
                    stack.append(("function", fn))
                    func_depth += 1
                elif kind == "class":
                    if waived and payload:
                        st_classes.add(payload)
                    stack.append(("class", payload))
                else:
                    stack.append((kind, payload))
                last = i + 1
            elif c == "}":
                if stack:
                    kind, payload = stack.pop()
                    if kind == "function":
                        func_depth -= 1
                        payload.body_span = (payload.body_span[0], i)
                        funcs.append(payload)
                    if kind == "init":
                        init_depth -= 1
                    else:
                        last = i + 1
                else:
                    last = i + 1
            elif c == ";":
                if func_depth == 0 and init_depth == 0:
                    self._decl_segment(text[last:i], last, stack, funcs, mutexes, gvars)
                    last = i + 1
        self._structure = (funcs, mutexes, st_classes, gvars)
        return self._structure

    def _enclosing_class(self, stack):
        for kind, payload in reversed(stack):
            if kind == "class" and payload:
                return payload
        return None

    def _annotations(self, s):
        phase = None
        pm = PHASE_RE.search(s)
        if pm:
            phase = pm.group(1)
        requires = []
        for rm in REQWARM_RE.finditer(s):
            for part in rm.group(1).split(","):
                part = part.strip().split("::")[-1]
                if part:
                    requires.append(part)
        pure = bool(PURE_CHUNK_RE.search(s))
        cm = CODEC_RE.search(s)
        codec = (cm.group(1), cm.group(2)) if cm else None
        return phase, tuple(requires), pure, codec

    @staticmethod
    def _parse_params(head):
        """(param_types, rng_ref_params) from a declaration head's parameter
        list. param_types maps parameter name -> declared type text."""
        s = _strip_template_header(head)
        # Annotation macros (BGPCMP_SNAPSHOT_CODEC(...) etc.) carry their own
        # parens; strip them or the macro's argument list reads as the
        # parameter list.
        s2 = ATTR_RE.sub(" ", MACRO_INV_RE.sub(" ", s))
        ppos = _find_top_paren(s2)
        if ppos is None:
            return {}, ()
        close = _match_paren(s2, ppos)
        if close is None:
            return {}, ()
        params_text = s2[ppos + 1 : close]
        types, rng_refs = {}, []
        for part in split_top_commas(params_text):
            part = part.split("=", 1)[0].strip()
            if not part or part == "void":
                continue
            pm = re.match(r"(.+?)[\s&*]+([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*$", part)
            if not pm:
                continue
            ptype, pname = pm.group(1).strip(), pm.group(2)
            if pname in CPP_KEYWORDS or not ptype:
                continue
            types[pname] = part[: len(part) - len(pname)].strip() or ptype
            rm = RNG_REF_PARAM_RE.search(part)
            if rm and rm.group(2) == pname and not rm.group(1) and "const" not in ptype.split():
                rng_refs.append(pname)
        return types, tuple(rng_refs)

    def _make_func(self, pre, qual, stack, brace_off):
        parts = qual.split("::")
        bare = parts[-1]
        cls = parts[-2] if len(parts) > 1 else self._enclosing_class(stack)
        phase, requires, pure, codec = self._annotations(pre)
        param_types, rng_refs = self._parse_params(pre)
        line = self.line_of_offset(brace_off)
        return Func(self, cls, bare, line, phase, requires, (brace_off + 1, None),
                    pure_chunk=pure, codec=codec, param_types=param_types,
                    rng_ref_params=rng_refs)

    def _decl_segment(self, seg, seg_off, stack, funcs, mutexes, globals_out):
        s = seg.strip()
        if not s:
            return
        s = _strip_template_header(s)
        if re.match(r"(?:using|typedef|friend|static_assert|extern)\b", s):
            return
        cls = self._enclosing_class(stack)
        line = self.line_of_offset(seg_off + (len(seg) - len(seg.lstrip())))
        mm = MUTEX_DECL_RE.search(s)
        if mm and "(" not in s[: mm.start()]:
            om = ORDER_RE.search(s)
            order = int(om.group(1)) if om else None
            mutexes.append(MutexDecl(self, cls, mm.group(1), order, line))
            return
        qual, bare, _ = _decl_name(s)
        if qual is None:
            if cls is None:
                self._global_var(s, line, globals_out)
            return
        parts = qual.split("::")
        if len(parts) > 1:
            cls = parts[-2]
        phase, requires, pure, codec = self._annotations(s)
        param_types, rng_refs = self._parse_params(s)
        funcs.append(Func(self, cls, parts[-1], line, phase, requires, None,
                          pure_chunk=pure, codec=codec, param_types=param_types,
                          rng_ref_params=rng_refs))

    def _global_var(self, s, line, globals_out):
        """Record a namespace-scope variable declaration (D10 facts)."""
        if re.match(r"(?:class|struct|union|enum|namespace|template|return|goto)\b", s):
            return
        guarded = "BGPCMP_GUARDED_BY" in s
        s2 = ATTR_RE.sub(" ", MACRO_INV_RE.sub(" ", s))
        head = split_top_commas(_strip_angles(s2).split("=", 1)[0])[0].strip()
        if not head or "(" in head or "{" in head:
            return
        nm = re.search(r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*$", head)
        if not nm or nm.group(1) in CPP_KEYWORDS:
            return
        name = nm.group(1)
        type_part = head[: nm.start()].strip()
        if not type_part:
            return
        is_const = bool(re.search(r"\bconst(?:expr|init)?\b", type_part))
        globals_out.append(GlobalVar(self, name, is_const, guarded, line))

    def class_vars(self, class_names_re, known_classes):
        """Map class name -> variable names declared with that type in this
        file (the receiver-typing registry for D5/D6 call resolution)."""
        if self._class_vars is not None:
            return self._class_vars
        out = {}
        if class_names_re is not None:
            for m in class_names_re.finditer(self.pp_clean):
                out.setdefault(m.group(1), set()).add(m.group(2))
            for m in SMART_PTR_VAR_RE.finditer(self.pp_clean):
                if m.group(1) in known_classes:
                    out.setdefault(m.group(1), set()).add(m.group(2))
        self._class_vars = out
        return out


def try_libclang_registry(sf, include_dirs):
    """AST-grade registry via libclang; None when unavailable or on error."""
    try:
        import clang.cindex as ci

        index = ci.Index.create()
        args = ["-std=c++20", "-xc++"] + [f"-I{d}" for d in include_dirs]
        tu = index.parse(sf.abspath, args=args)
        decl_kinds = (
            ci.CursorKind.VAR_DECL,
            ci.CursorKind.FIELD_DECL,
            ci.CursorKind.PARM_DECL,
        )
        unordered, rngs = set(), set()
        for cur in tu.cursor.walk_preorder():
            if cur.kind not in decl_kinds or not cur.spelling:
                continue
            t = cur.type.get_canonical().spelling
            if UNORDERED_RE.search(t) and "*" not in t:
                unordered.add(cur.spelling)
            elif re.search(r"\bRng\b", t) and "&" not in t and "*" not in t:
                rngs.add(cur.spelling)
        return unordered, rngs
    except Exception:  # missing bindings, missing libclang.so, parse error
        return None


class Analyzer:
    def __init__(self, root, include_dirs, use_libclang):
        self.root = root
        self.include_dirs = include_dirs
        self.use_libclang = use_libclang
        self.files = {}
        self.findings = []
        self.token_files = []
        self.libclang_active = False
        self._closure_memo = {}
        self._ctx_vars_memo = {}
        self._func_calls_memo = {}
        self._acquires_memo = {}
        # Symbol-table state, populated by build_symbols().
        self.symbols = {}
        self.defs = []
        self.mutex_decls = []
        self.st_classes = set()
        self.global_vars = []
        self.relevant_warms = set()
        self.discharged = set()
        self._class_names_re = None
        self._known_classes = frozenset()
        self._struct_index = None
        self._rng_draws_memo = {}
        self._schema_model_memo = None

    def load(self, relpath):
        if relpath not in self.files:
            self.files[relpath] = SourceFile(self.root, relpath)
        return self.files[relpath]

    def resolve_include(self, from_rel, target):
        """Repo-relative path of an included repo header, or None."""
        local = os.path.normpath(os.path.join(os.path.dirname(from_rel), target))
        if os.path.isfile(os.path.join(self.root, local)):
            return local
        for d in self.include_dirs:
            cand = os.path.normpath(os.path.join(d, target))
            rel = os.path.relpath(cand, self.root)
            if not rel.startswith("..") and os.path.isfile(cand):
                return rel
        return None

    def report(self, sf, line, rule, message, chain=None):
        if sf.allows(line, rule):
            return
        f = Finding(sf.rel, line, rule, message, chain)
        if f.key() not in {x.key() for x in self.findings}:
            self.findings.append(f)

    def check_token_rules(self, rels, scoped=True):
        """R1-R6 over rels. A file the symbol pass did not load is read here
        but kept out of self.files, so it never feeds a D rule's facts."""
        for rel in rels:
            norm = rel.replace("\\", "/")
            rows = [
                (rule, pattern)
                for rule, pattern, scope, exempt in TOKEN_RULES
                if not scoped or (norm.startswith(scope) and norm not in exempt)
            ]
            if not rows:
                continue
            sf = self.files.get(rel) or SourceFile(self.root, rel)
            for i, line in enumerate(sf.clean_lines, start=1):
                for rule, pattern in rows:
                    if pattern.search(line):
                        self.report(sf, i, rule, RULES[rule])

    # -- registries ---------------------------------------------------------

    def context_registry(self, sf):
        """Name registries for a TU: its own declarations plus those of every
        transitively included repo header (so member types declared in
        headers are visible from their implementation files)."""
        unordered, rngs = set(), set()
        for rel in self.include_closure(sf):
            member = self.load(rel)
            reg = None
            if self.use_libclang:
                reg = try_libclang_registry(member, [os.path.join(self.root, d) for d in self.include_dirs_rel()])
                if reg is not None:
                    self.libclang_active = True
            if reg is None:
                reg = member.registry()
            unordered |= reg[0]
            rngs |= reg[1]
        return unordered, rngs

    def include_dirs_rel(self):
        return [os.path.relpath(d, self.root) for d in self.include_dirs]

    def include_closure(self, sf):
        """The file itself plus every repo file reachable through includes."""
        if sf.rel in self._closure_memo:
            return self._closure_memo[sf.rel]
        seen = [sf.rel]
        queue = [sf.rel]
        while queue:
            rel = queue.pop()
            for _, target, _ in self.load(rel).includes:
                resolved = self.resolve_include(rel, target)
                if resolved and resolved not in seen:
                    seen.append(resolved)
                    queue.append(resolved)
        self._closure_memo[sf.rel] = seen
        return seen

    # -- symbol table and call graph (D5-D7) --------------------------------

    def build_symbols(self):
        """Structural pass over every loaded file: merge function decls and
        defs by (class, name), collect mutex declarations and waived classes,
        and precompute the constructor-discharged warm set."""
        all_funcs = []
        for rel in sorted(self.files):
            funcs, mutexes, st, gvars = self.files[rel].structure()
            all_funcs.extend(funcs)
            self.mutex_decls.extend(mutexes)
            self.st_classes |= st
            self.global_vars.extend(gvars)
        groups = {}
        for f in all_funcs:
            groups.setdefault((f.cls, f.bare), []).append(f)
        for group in groups.values():
            phase = next((f.phase for f in group if f.phase), None)
            requires = tuple(sorted({r for f in group for r in f.requires}))
            pure = any(f.pure_chunk for f in group)
            codec = next((f.codec for f in group if f.codec), None)
            rng_refs = tuple(sorted({p for f in group for p in f.rng_ref_params}))
            for f in group:
                f.phase = phase
                f.requires = requires
                f.pure_chunk = pure
                f.codec = codec
                f.rng_ref_params = rng_refs
        self.symbols = {}
        for f in all_funcs:
            self.symbols.setdefault(f.bare, []).append(f)
        self.defs = [f for f in all_funcs if f.body_span]
        self.relevant_warms = {r for f in all_funcs for r in f.requires}
        classes = sorted({f.cls for f in all_funcs if f.cls})
        self._known_classes = frozenset(classes)
        if classes:
            alt = "|".join(re.escape(c) for c in classes)
            self._class_names_re = re.compile(
                r"\b(" + alt + r")\b\s*[&*]{0,2}\s*([A-Za-z_]\w*)\s*[;,=({\[)]"
            )
        # Constructor discharge: a warm function called from a constructor of
        # its class runs before any consumer can hold the object; and a
        # requirement naming the class itself means "the constructor warms".
        for fn in self.defs:
            if fn.cls and fn.bare == fn.cls:
                for call in self.func_calls(fn):
                    for target in self.resolve_call(call, fn):
                        if target.phase == "warm":
                            self.discharged.add(target.bare)
        for name in self.relevant_warms:
            if any(f.cls == name and f.bare == name for funcs in self.symbols.values() for f in funcs):
                self.discharged.add(name)

    def ctx_vars(self, sf):
        """Receiver-typing registry for a file: class -> vars, unioned over
        its include closure."""
        if sf.rel in self._ctx_vars_memo:
            return self._ctx_vars_memo[sf.rel]
        out = {}
        for rel in self.include_closure(sf):
            for cls, names in self.load(rel).class_vars(self._class_names_re, self._known_classes).items():
                out.setdefault(cls, set()).update(names)
        self._ctx_vars_memo[sf.rel] = out
        return out

    def func_calls(self, fn):
        """Call sites in a function body, in textual order."""
        key = id(fn)
        if key in self._func_calls_memo:
            return self._func_calls_memo[key]
        a, b = fn.body_span
        body = fn.sf.pp_clean[a:b]
        out = []
        for m in CALL_RE.finditer(body):
            name = m.group(3)
            if name in CPP_KEYWORDS or MACRO_NAME_RE.fullmatch(name):
                continue
            quals = tuple(q for q in re.split(r"\s*::\s*", m.group(2) or "") if q)
            out.append(Call(a + m.start(3), m.group(1), quals, name))
        self._func_calls_memo[key] = out
        return out

    def resolve_call(self, call, cur_func):
        """Over-approximate targets of a call site. Member functions resolve
        through the declared-type registry (receiver variable, explicit
        qualification, or an unqualified call inside the same class); free
        functions match by name. One entry per (class, name), preferring a
        definition over a declaration."""
        cands = self.symbols.get(call.name)
        if not cands:
            return []
        vars_by_cls = None
        picked = {}
        for f in cands:
            ok = False
            if f.cls is None:
                ok = call.receiver is None
            elif call.quals:
                ok = call.quals[-1] == f.cls
            elif call.receiver:
                if call.receiver == "this":
                    ok = True
                else:
                    if vars_by_cls is None:
                        vars_by_cls = self.ctx_vars(cur_func.sf)
                    ok = call.receiver in vars_by_cls.get(f.cls, ())
            else:
                ok = cur_func.cls is not None and cur_func.cls == f.cls
            if not ok:
                continue
            key = (f.cls, f.bare)
            if key not in picked or (f.body_span and not picked[key].body_span):
                picked[key] = f
        return list(picked.values())

    def func_regions(self, fn):
        """parallel_for/parallel_map argument spans inside a function body:
        [(start, end, line)] with absolute pp_clean offsets."""
        a, b = fn.body_span
        text = fn.sf.pp_clean
        out = []
        for m in REGION_RE.finditer(text, a, b):
            open_paren = text.index("(", m.end() - 1)
            close = _match_paren(text, open_paren)
            if close is None:
                close = b
            out.append((open_paren, close, fn.sf.line_of_offset(m.start())))
        return out

    def _lambda_spans(self, text, a, b):
        """Brace spans of lambda bodies within [a, b) of text."""
        spans = []
        for m in LAMBDA_RE.finditer(text, a, b):
            open_brace = m.end() - 1
            depth = 0
            for idx in range(open_brace, b):
                if text[idx] == "{":
                    depth += 1
                elif text[idx] == "}":
                    depth -= 1
                    if depth == 0:
                        spans.append((open_brace, idx))
                        break
        return spans

    # -- D1: unordered iteration -------------------------------------------

    def check_d1(self, sf):
        unordered, _ = self.context_registry(sf)
        if not unordered:
            return
        text = sf.clean
        # Range-for whose range expression ends in an unordered variable.
        for m in re.finditer(r"\bfor\s*\(", text):
            depth, i = 0, m.end() - 1
            while i < len(text):
                if text[i] == "(":
                    depth += 1
                elif text[i] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            header = text[m.end() : i]
            if ";" in header or ":" not in header:
                continue
            expr = header.rsplit(":", 1)[1].strip()
            em = re.search(r"(\w+)\s*$", expr)
            if em and em.group(1) in unordered:
                self.report(
                    sf,
                    sf.line_of_offset(m.start()),
                    "D1",
                    f"range-for over unordered container '{em.group(1)}'",
                )
        # Iterator loops and .begin() escapes into algorithms. Only begin()
        # matters: a bare `it != m.end()` sentinel comparison after find()
        # never observes iteration order and stays legal.
        for m in re.finditer(r"\b(\w+)\s*\.\s*(c?begin)\s*\(", text):
            if m.group(1) in unordered:
                self.report(
                    sf,
                    sf.line_of_offset(m.start()),
                    "D1",
                    f"'{m.group(1)}.{m.group(2)}()' exposes unordered iteration order",
                )
        for m in re.finditer(r"\bstd\s*::\s*c?begin\s*\(\s*(\w+)", text):
            if m.group(1) in unordered:
                self.report(
                    sf,
                    sf.line_of_offset(m.start()),
                    "D1",
                    f"'std::begin({m.group(1)})' exposes unordered iteration order",
                )

    # -- D2: unguarded mutable ---------------------------------------------

    EXEMPT_MUTABLE = (
        "std::atomic",
        "Mutex",
        "std::mutex",
        "std::shared_mutex",
        "once_flag",
        "condition_variable",
        "BGPCMP_GUARDED_BY",
        "BGPCMP_SINGLE_THREAD",
        "OwningThread",
    )

    def _single_thread_class_spans(self, text):
        spans = []
        for m in re.finditer(r"\b(?:class|struct)\s+BGPCMP_SINGLE_THREAD\s+\w+", text):
            i = text.find("{", m.end())
            if i < 0:
                continue
            depth = 0
            for j in range(i, len(text)):
                if text[j] == "{":
                    depth += 1
                elif text[j] == "}":
                    depth -= 1
                    if depth == 0:
                        spans.append((i, j))
                        break
        return spans

    def check_d2(self, sf):
        text = sf.clean
        class_spans = self._single_thread_class_spans(text)
        for m in re.finditer(r"\bmutable\b", text):
            prev = text[: m.start()].rstrip()
            # Lambdas: `[..](..) mutable` and the parenless `[..] mutable`
            # are value-capture details, not shared state.
            if prev.endswith(")") or prev.endswith("]"):
                continue
            end = text.find(";", m.end())
            decl = text[m.end() : end if end > 0 else m.end() + 200]
            if any(tok in decl for tok in self.EXEMPT_MUTABLE):
                continue
            if any(a <= m.start() <= b for a, b in class_spans):
                continue
            name = re.findall(r"(\w+)\s*(?:=[^;]*|\{[^;]*\})?\s*$", decl.strip())
            self.report(
                sf,
                sf.line_of_offset(m.start()),
                "D2",
                "mutable member "
                + (f"'{name[0]}' " if name else "")
                + "is neither atomic, lock-guarded (BGPCMP_GUARDED_BY), nor "
                + "BGPCMP_SINGLE_THREAD-marked",
            )

    # -- D4: banned headers through the include graph ----------------------

    def _d4_exempt_file(self, rel):
        return rel.replace("\\", "/").endswith(D4_SANCTIONED)

    def check_d4(self, sf):
        """BFS from the TU; report one finding per banned header reached."""
        reported = set()
        queue = [(sf.rel, None, [])]  # (file, first-hop include line, chain)
        seen = {sf.rel}
        while queue:
            rel, first_line, chain = queue.pop(0)
            cur = self.load(rel)
            exempt = self._d4_exempt_file(rel)
            for line, target, is_system in cur.includes:
                base = target  # system headers keep their spelling
                if is_system or self.resolve_include(rel, target) is None:
                    if base in BANNED_HEADERS and not exempt and not cur.allows(line, "D4"):
                        if base in reported:
                            continue
                        reported.add(base)
                        where = first_line if first_line is not None else line
                        via = " -> ".join(chain + [rel]) if chain or rel != sf.rel else rel
                        self.report(
                            sf,
                            where,
                            "D4",
                            f"include closure reaches <{base}> via {via}; wall-clock "
                            "and raw randomness are banned in model code "
                            "(SimTime / bgpcmp::Rng instead)",
                            chain=chain + [rel, f"<{base}>"],
                        )
                else:
                    resolved = self.resolve_include(rel, target)
                    if resolved not in seen:
                        seen.add(resolved)
                        queue.append(
                            (
                                resolved,
                                first_line if first_line is not None else line,
                                chain + [rel],
                            )
                        )

    # -- D5: phase contracts through the call graph ------------------------

    def check_d5(self, sf):
        """A serve-phase function (BGPCMP_REQUIRES_WARMED) reachable from a
        parallel region must be dominated by a call to its warm function:
        textually earlier in some function along the chain, or performed by
        a constructor of the warm function's class."""
        funcs, _, _, _ = sf.structure()
        for fn in funcs:
            if not fn.body_span:
                continue
            regions = self.func_regions(fn)
            if not regions:
                continue
            calls = self.func_calls(fn)
            for start, end, line in regions:
                # A function's own BGPCMP_REQUIRES_WARMED contract is
                # discharged at its call sites, so its bases already hold on
                # entry (the RouteCache::reconverge wave pattern: warm-phase,
                # requires warm, fans the delta step out per engine).
                warms = set(fn.requires)
                for call in calls:
                    if call.off >= start:
                        break
                    for target in self.resolve_call(call, fn):
                        if target.phase == "warm":
                            warms.add(target.bare)
                            # Warm-delta contract: a warm-phase call that
                            # itself requires warmed state (e.g. reconverge)
                            # mutates that state in place and leaves it
                            # warmed, so it re-establishes its bases too.
                            warms.update(target.requires)
                chain0 = f"{fn.display} ({sf.rel}:{line})"
                seen = set()
                for call in calls:
                    if not start < call.off < end:
                        continue
                    for target in self.resolve_call(call, fn):
                        self._chase(target, set(warms), [chain0], sf, line, seen)

    def _chase(self, fn, warms, chain, origin_sf, origin_line, seen, rule="D5"):
        key = (id(fn), frozenset(warms & self.relevant_warms))
        if key in seen:
            return
        seen.add(key)
        if fn.cls in self.st_classes and not fn.phase and not fn.requires:
            return  # single-thread waiver: OwningThread pins it at runtime
        if fn.requires:
            missing = [w for w in fn.requires if w not in warms and w not in self.discharged]
            if missing:
                full = chain + [fn.display]
                scope = "parallel region" if rule == "D5" else "chunk body"
                self.report(
                    origin_sf,
                    origin_line,
                    rule,
                    f"'{fn.display}' is serve-phase and requires "
                    f"{', '.join(f'{w}()' for w in missing)} to dominate the "
                    f"{scope}; chain: " + " -> ".join(full),
                    chain=full,
                )
            return
        if fn.phase in ("warm", "build", "serve"):
            return
        if not fn.body_span:
            return
        running = set(warms)
        for call in self.func_calls(fn):
            resolved = self.resolve_call(call, fn)
            hop = f"{fn.display} ({fn.sf.rel}:{fn.sf.line_of_offset(call.off)})"
            for target in resolved:
                if target.phase == "warm":
                    running.add(target.bare)
                    # Warm-delta: see check_d5 — a warm call with requires
                    # re-establishes those bases for everything after it.
                    running.update(target.requires)
                else:
                    self._chase(target, set(running), chain + [hop], origin_sf, origin_line, seen, rule)

    def check_d5_regression(self):
        """A serve-phase function must stay read-only: reaching warm/build
        work through any chain of unannotated calls is a phase regression."""
        for fn in self.defs:
            if fn.phase == "serve":
                self._regress(fn, [fn.display], set())

    def _regress(self, fn, chain, seen):
        for call in self.func_calls(fn):
            for target in self.resolve_call(call, fn):
                if target.phase in ("warm", "build"):
                    line = fn.sf.line_of_offset(call.off)
                    full = chain + [target.display]
                    self.report(
                        fn.sf,
                        line,
                        "D5",
                        f"serve-phase '{chain[0]}' reaches {target.phase}-phase "
                        f"'{target.display}'; chain: " + " -> ".join(full),
                        chain=full,
                    )
                elif (
                    not target.phase
                    and not target.requires
                    and target.body_span
                    and id(target) not in seen
                    and target.cls not in self.st_classes
                ):
                    seen.add(id(target))
                    hop = f"{target.display} ({target.sf.rel})"
                    self._regress(target, chain + [hop], seen)

    # -- D6: lock-order cycles and rank inversions --------------------------

    def _resolve_mutex(self, expr, fn):
        """Candidate MutexDecl keys for a lock expression. Narrow by receiver
        type or enclosing class where possible; otherwise every same-named
        declaration stays a candidate (over-approximation)."""
        expr = expr.strip()
        nm = re.search(r"([A-Za-z_]\w*)\s*$", expr)
        if not nm:
            return []
        name = nm.group(1)
        cands = [d for d in self.mutex_decls if d.name == name]
        if not cands:
            return []
        before = expr[: nm.start()].rstrip()
        rm = re.search(r"([A-Za-z_]\w*)\s*(?:\.|->)$", before)
        if rm:
            vars_by_cls = self.ctx_vars(fn.sf)
            typed = [d for d in cands if d.cls and rm.group(1) in vars_by_cls.get(d.cls, ())]
            if typed:
                cands = typed
        elif before in ("", "this.", "this->"):
            own = [d for d in cands if d.cls == fn.cls]
            if own:
                cands = own
            elif not before:
                glob = [d for d in cands if d.cls is None]
                if glob:
                    cands = glob
        return sorted({d.key for d in cands})

    def _scope_release(self, body, stmt_end):
        """Offset where the scope enclosing a declaration at stmt_end ends."""
        depth = 0
        for idx in range(stmt_end, len(body)):
            if body[idx] == "{":
                depth += 1
            elif body[idx] == "}":
                depth -= 1
                if depth < 0:
                    return idx
        return len(body)

    def _lock_events(self, fn, body, lam_spans):
        """[(off, release_off, candidate_keys, ctx)] where ctx is the index
        of the innermost enclosing lambda span or -1 for the main body."""

        def ctx_of(off):
            best = -1
            for i, (a, b) in enumerate(lam_spans):
                if a < off < b and (best < 0 or lam_spans[best][0] < a):
                    best = i
            return best

        events = []
        for m in LOCK_SITE_RE.finditer(body):
            open_ch = m.group(1)
            open_off = m.end() - 1
            if open_ch == "(":
                close = _match_paren(body, open_off)
            else:
                depth = 0
                close = None
                for idx in range(open_off, len(body)):
                    if body[idx] == "{":
                        depth += 1
                    elif body[idx] == "}":
                        depth -= 1
                        if depth == 0:
                            close = idx
                            break
            if close is None:
                continue
            expr = body[open_off + 1 : close]
            cands = self._resolve_mutex(expr, fn)
            if not cands:
                continue
            stmt_end = body.find(";", close)
            stmt_end = close if stmt_end < 0 else stmt_end
            events.append((m.start(), self._scope_release(body, stmt_end), cands, ctx_of(m.start())))
        for m in EXPLICIT_LOCK_RE.finditer(body):
            cands = self._resolve_mutex(m.group(1), fn)
            if not cands:
                continue
            release = len(body)
            um = re.search(
                re.escape(m.group(1)) + r"\s*(?:\.|->)\s*unlock\s*\(\s*\)", body[m.end() :]
            )
            if um:
                release = m.end() + um.start()
            events.append((m.start(), release, cands, ctx_of(m.start())))
        return events, ctx_of

    # The lock primitives themselves: their bodies are the implementation of
    # locking (Mutex::lock forwards to the wrapped std::mutex, MutexLock's
    # constructor calls lock()), not acquisitions of any declared mutex, so
    # D6 must not read events or deferred edges out of them.
    LOCK_PRIMITIVE_CLASSES = frozenset({"Mutex", "MutexLock"})
    LOCK_PRIMITIVE_CALLS = frozenset({"lock", "unlock", "try_lock"})

    def acquires_star(self, fn):
        """Mutex keys a function may acquire, transitively through calls."""
        key = id(fn)
        if key in self._acquires_memo:
            return self._acquires_memo[key]
        self._acquires_memo[key] = set()  # cycle guard
        out = set()
        if fn.cls in self.LOCK_PRIMITIVE_CLASSES:
            return out
        if fn.body_span:
            a, b = fn.body_span
            body = fn.sf.pp_clean[a:b]
            lam_spans = self._lambda_spans(fn.sf.pp_clean, a, b)
            lam_spans = [(x - a, y - a) for x, y in lam_spans]
            events, _ = self._lock_events(fn, body, lam_spans)
            for _, _, cands, _ in events:
                out.update(cands)
            for call in self.func_calls(fn):
                if call.name in self.LOCK_PRIMITIVE_CALLS:
                    continue  # already modeled as a lock event above
                for target in self.resolve_call(call, fn):
                    out.update(self.acquires_star(target))
        self._acquires_memo[key] = out
        return out

    def check_d6(self):
        """Global acquisition-order analysis over every loaded definition."""
        edges = {}  # (held_key, acquired_key) -> (sf, line)

        def add_edges(held, acquired, sf, line):
            for k1 in held:
                for k2 in acquired:
                    if k1 == k2 and (len(held) > 1 or len(acquired) > 1):
                        continue  # ambiguous same-name pair, not a real self-edge
                    edges.setdefault((k1, k2), (sf, line))

        for fn in self.defs:
            if fn.cls in self.LOCK_PRIMITIVE_CLASSES:
                continue
            a, b = fn.body_span
            body = fn.sf.pp_clean[a:b]
            lam_spans = [(x - a, y - a) for x, y in self._lambda_spans(fn.sf.pp_clean, a, b)]
            events, ctx_of = self._lock_events(fn, body, lam_spans)
            if not events:
                continue
            for e1 in events:
                for e2 in events:
                    if e1 is e2 or e1[3] != e2[3]:
                        continue
                    if e1[0] < e2[0] < e1[1]:
                        add_edges(e1[2], e2[2], fn.sf, fn.sf.line_of_offset(a + e2[0]))
            for call in self.func_calls(fn):
                if call.name in self.LOCK_PRIMITIVE_CALLS:
                    continue  # modeled as lock events, not calls
                rel_off = call.off - a
                held = [e for e in events if e[3] == ctx_of(rel_off) and e[0] < rel_off < e[1]]
                if not held:
                    continue
                for target in self.resolve_call(call, fn):
                    deferred = self.acquires_star(target)
                    if not deferred:
                        continue
                    line = fn.sf.line_of_offset(call.off)
                    for e in held:
                        add_edges(e[2], sorted(deferred), fn.sf, line)

        orders = {}
        for d in self.mutex_decls:
            if d.order is not None:
                orders[d.key] = d.order
        # Rank inversions: acquiring an equal-or-lower-ranked mutex while a
        # higher-ranked one is held contradicts the declared global order.
        for (k1, k2), (sf, line) in sorted(edges.items(), key=lambda kv: (kv[1][0].rel, kv[1][1])):
            if k1 in orders and k2 in orders and orders[k1] >= orders[k2]:
                self.report(
                    sf,
                    line,
                    "D6",
                    f"acquires '{k2}' (order {orders[k2]}) while holding '{k1}' "
                    f"(order {orders[k1]}); BGPCMP_ACQUIRES_ORDER ranks must "
                    "strictly increase along every acquisition chain",
                    chain=[k1, k2],
                )
        # Cycles: strongly connected components of the acquisition graph.
        adj = {}
        for k1, k2 in edges:
            adj.setdefault(k1, set()).add(k2)
            adj.setdefault(k2, set())
        for scc in self._sccs(adj):
            cyclic = len(scc) > 1 or (len(scc) == 1 and next(iter(scc)) in adj.get(next(iter(scc)), ()))
            if not cyclic:
                continue
            members = sorted(scc)
            for (k1, k2), (sf, line) in sorted(
                edges.items(), key=lambda kv: (kv[1][0].rel, kv[1][1])
            ):
                if k1 in scc and k2 in scc:
                    self.report(
                        sf,
                        line,
                        "D6",
                        f"lock-order cycle through {{{', '.join(members)}}}: "
                        f"acquires '{k2}' while '{k1}' is held - some thread "
                        "ordering deadlocks",
                        chain=[k1, k2],
                    )

    @staticmethod
    def _sccs(adj):
        """Tarjan's strongly connected components, iterative."""
        index = {}
        lowlink = {}
        on_stack = set()
        stack = []
        sccs = []
        counter = [0]
        for start in sorted(adj):
            if start in index:
                continue
            work = [(start, iter(sorted(adj.get(start, ()))))]
            index[start] = lowlink[start] = counter[0]
            counter[0] += 1
            stack.append(start)
            on_stack.add(start)
            while work:
                node, it = work[-1]
                advanced = False
                for nxt in it:
                    if nxt not in index:
                        index[nxt] = lowlink[nxt] = counter[0]
                        counter[0] += 1
                        stack.append(nxt)
                        on_stack.add(nxt)
                        work.append((nxt, iter(sorted(adj.get(nxt, ())))))
                        advanced = True
                        break
                    if nxt in on_stack:
                        lowlink[node] = min(lowlink[node], index[nxt])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    comp = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.add(w)
                        if w == node:
                            break
                    sccs.append(comp)
        return sccs

    # -- D7: order-sensitive reductions in parallel regions ------------------

    D7_OPS_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(\+=|-=|\*=|/=)(?!=)")

    def check_d7(self, sf):
        funcs, _, _, _ = sf.structure()
        text = sf.pp_clean
        for fn in funcs:
            if not fn.body_span:
                continue
            for start, end, _ in self.func_regions(fn):
                region = text[start:end]
                for m in self.D7_OPS_RE.finditer(region):
                    prev = _prev_nonspace(region, m.start(1))
                    if prev in ".>]":
                        continue  # member/array/pointer target, e.g. slots[i]
                    lhs = m.group(1)
                    decl = re.search(
                        r"[;{(,]\s*(?:const\s+)?[A-Za-z_][\w:]*(?:\s*<[^<>;]*>)?"
                        r"(?:\s*[&*])?\s+" + re.escape(lhs) + r"\s*[=;{(,)]",
                        region[: m.start()],
                    )
                    if decl:
                        continue  # accumulator local to the region
                    self.report(
                        sf,
                        sf.line_of_offset(start + m.start()),
                        "D7",
                        f"'{lhs} {m.group(2)}' inside a parallel region folds in "
                        "thread-completion order; write index-addressed slots and "
                        "fold sequentially after the join (docs/PARALLELISM.md)",
                    )

    # -- D8: serialization-schema drift --------------------------------------

    LOCAL_DECL_RE = re.compile(
        r"(?:^|[;{}(])\s*(?:const\s+)?([A-Za-z_][\w:]*(?:<[^<>;]*>)?)"
        r"\s*[&*]?\s+([A-Za-z_]\w*)\s*(?=[;={(])"
    )
    RANGE_FOR_RE = re.compile(
        r"\bfor\s*\(\s*(?:const\s+)?([A-Za-z_][\w:]*(?:<[^<>;]*>)?)"
        r"\s*[&*]?\s*([A-Za-z_]\w*)\s*:"
    )
    VECTOR_ELEM_RE = re.compile(r"\bvector\s*<\s*(?:const\s+)?([\w:]+)\s*>")
    AGGREGATE_RE = re.compile(r"(?<![\w.])((?:[A-Za-z_]\w*\s*::\s*)*)([A-Za-z_]\w*)\s*\{")

    def struct_index(self):
        """Struct/class name -> StructDef over every loaded file."""
        if self._struct_index is not None:
            return self._struct_index
        index = {}
        for rel in sorted(self.files):
            for sd in self._parse_structs(self.files[rel]):
                index.setdefault(sd.name, sd)
        self._struct_index = index
        return index

    def _parse_structs(self, sf):
        text = sf.pp_clean
        out = []
        for m in STRUCT_HEAD_RE.finditer(text):
            if re.search(r"\benum\s+$", text[max(0, m.start() - 16) : m.start()] + " "):
                continue
            open_brace = m.end() - 1
            close = _match_brace(text, open_brace)
            if close is None:
                continue
            fields = self._parse_members(sf, text, open_brace + 1, close)
            out.append(StructDef(sf, m.group(1), sf.line_of_offset(m.start()), fields))
        return out

    def _parse_members(self, sf, text, a, b):
        """Ordered data members of a class body span (methods skipped)."""
        fields = []
        i = a
        seg_start = a
        while i < b:
            c = text[i]
            if c == "{":
                close = _match_brace(text, i)
                if close is None or close > b:
                    break
                j = close + 1
                while j < b and text[j] in " \t\n":
                    j += 1
                if j < b and text[j] == ";":
                    i = close + 1  # brace-initialized member or nested type
                    continue
                seg_start = close + 1  # inline method body: discard segment
                i = close + 1
                continue
            if c == ";":
                self._classify_member(sf, text[seg_start:i], seg_start, fields)
                seg_start = i + 1
            i += 1
        return fields

    def _classify_member(self, sf, seg, seg_off, fields):
        s = re.sub(r"^\s*(?:(?:public|private|protected)\s*:\s*)+", "", seg)
        off = seg_off + (len(seg) - len(s))
        line = sf.line_of_offset(off + (len(s) - len(s.lstrip())))
        s = _strip_template_header(s.strip())
        if not s:
            return
        if re.match(
            r"(?:using|typedef|friend|static|template|enum|class|struct|union|"
            r"operator|virtual|explicit)\b",
            s,
        ):
            return
        s2 = ATTR_RE.sub(" ", MACRO_INV_RE.sub(" ", s))
        if "(" in _strip_angles(s2):
            return  # method, constructor, or `= default` special member
        head = split_top_commas(s2)[0].split("=", 1)[0]
        brace = head.find("{")
        if brace >= 0:
            head = head[:brace]
        head = head.strip()
        nm = re.match(r"(.+?)[\s&*]*?[\s&*]([A-Za-z_]\w*)\s*(\[[^\]]*\])?$", head)
        if not nm:
            return
        name = nm.group(2)
        if name in CPP_KEYWORDS:
            return
        ftype = re.sub(r"\s+", " ", head[: len(head) - len(name) - len(nm.group(3) or "")].strip())
        ftype = (ftype + (nm.group(3) or "")).strip()
        if not ftype or bare_type(ftype) in CPP_KEYWORDS and bare_type(ftype) not in (
            "double", "float", "bool", "int", "char", "short", "long", "unsigned", "signed"
        ):
            return
        fields.append((name, ftype, line, sf.allows(line, "D8")))

    def _codec_groups(self):
        """section -> {role -> Func definition} for BGPCMP_SNAPSHOT_CODEC."""
        groups = {}
        for fn in self.defs:
            if fn.codec:
                groups.setdefault(fn.codec[0], {}).setdefault(fn.codec[1], fn)
        return groups

    def _var_types(self, fn):
        """(body text, var -> declared type) over fn's parameters, range-for
        variables and local declarations."""
        a, b = fn.body_span
        body = fn.sf.pp_clean[a:b]
        var_types = dict(fn.param_types)
        for m in self.RANGE_FOR_RE.finditer(body):
            if bare_type(m.group(1)) not in CPP_KEYWORDS:
                var_types.setdefault(m.group(2), m.group(1))
        for m in self.LOCAL_DECL_RE.finditer(body):
            t, n = m.group(1), m.group(2)
            if n in CPP_KEYWORDS or not bare_type(t) or bare_type(t) in CPP_KEYWORDS:
                continue
            var_types.setdefault(n, t)
        return body, var_types

    def _codec_vars(self, fn):
        """(body text, var -> declared type, var -> vector element type)."""
        body, var_types = self._var_types(fn)
        elem_types = {}
        for n, t in var_types.items():
            vm = self.VECTOR_ELEM_RE.search(t)
            if vm:
                elem_types[n] = bare_type(vm.group(1))
        return body, var_types, elem_types

    def _resolve_path(self, start_type, comps, index):
        """Resolve a dotted chain against the struct index. Returns the
        deepest (type, field) event, every (type, field) hop covered, and the
        first unresolved trailing component (a method name, usually)."""
        cur = bare_type(start_type)
        event, covered, tail = None, [], None
        for k, comp in enumerate(comps):
            sd = index.get(cur)
            if sd is None or sd.field_type(comp) is None:
                tail = comp
                break
            covered.append((cur, comp))
            event = (cur, comp)
            nxt = bare_type(sd.field_type(comp))
            if k + 1 < len(comps):
                if nxt in index:
                    cur = nxt
                else:
                    tail = comps[k + 1]
                    break
        return event, covered, tail

    def _codec_paths(self, body, var_types, elem_types, index):
        """[(off, end, event, covered, tail)] for every resolvable chain."""
        occs = []
        for m in PATH_RE.finditer(body):
            prev = _prev_nonspace(body, m.start())
            if prev and prev in ".]>":
                continue
            t = var_types.get(m.group(1))
            if t is None:
                continue
            comps = re.findall(r"[A-Za-z_]\w*", m.group(2))
            event, covered, tail = self._resolve_path(t, comps, index)
            if event or covered:
                occs.append((m.start(), m.end(), event, covered, tail))
        for m in INDEXED_PATH_RE.finditer(body):
            t = elem_types.get(m.group(1))
            if t is None:
                continue
            comps = re.findall(r"[A-Za-z_]\w*", m.group(2))
            event, covered, tail = self._resolve_path(t, comps, index)
            if event or covered:
                occs.append((m.start(), m.end(), event, covered, tail))
        occs.sort(key=lambda o: o[0])
        return occs

    def _writer_prim_spans(self, body, var_types):
        """Argument spans of SnapshotWriter primitive calls (u8..str)."""
        spans = []
        for m in SNAP_PRIM_RE.finditer(body):
            if bare_type(var_types.get(m.group(1), "")) != "SnapshotWriter":
                continue
            close = _match_paren(body, m.end() - 1)
            if close is not None:
                spans.append((m.end(), close))
        return spans

    def _codec_side(self, fn, role, index, writer_types=None):
        """(ordered [(off, (type, field))] wire events, covered set) for one
        codec body. Writers emit events from field paths inside serializer
        primitive arguments; readers from field-path assignments, container
        mutator calls, and positional aggregate-initialization of a type the
        paired writer serializes."""
        body, var_types, elem_types = self._codec_vars(fn)
        occs = self._codec_paths(body, var_types, elem_types, index)
        coverage = set()
        for _, _, _, covered, _ in occs:
            coverage.update(covered)
        events = []
        if role == "writer":
            spans = self._writer_prim_spans(body, var_types)
            for off, _, event, _, _ in occs:
                if event and any(s <= off < e for s, e in spans):
                    events.append((off, event))
        else:
            for off, end, event, _, tail in occs:
                if not event:
                    continue
                if tail in READER_MUTATOR_CALLS or re.match(r"\s*=(?!=)", body[end : end + 8]):
                    events.append((off, event))
            for m in self.AGGREGATE_RE.finditer(body):
                t = m.group(2)
                if writer_types is None or t not in writer_types or t not in index:
                    continue
                open_brace = m.end() - 1
                close = _match_brace(body, open_brace)
                if close is None:
                    continue
                args = split_top_commas(body[open_brace + 1 : close])
                sd = index[t]
                for k, arg in enumerate(args):
                    if k >= len(sd.fields):
                        break
                    fname = sd.fields[k][0]
                    coverage.add((t, fname))
                    if arg.strip() and arg.strip() != "{}":
                        events.append((open_brace + 1 + k, (t, fname)))
            events.sort(key=lambda e: e[0])
        return events, coverage

    @staticmethod
    def _type_seq(events, t, sd):
        """The wire sequence for one type: waived fields dropped, consecutive
        repeats collapsed (a size write plus element writes is one touch)."""
        seq = []
        for _, (tt, f) in events:
            if tt != t or sd.waived(f):
                continue
            if not seq or seq[-1] != f:
                seq.append(f)
        return seq

    def schema_model(self):
        """Per-section codec analysis, memoized for check_d8 and the lock
        updater."""
        if self._schema_model_memo is not None:
            return self._schema_model_memo
        index = self.struct_index()
        model = []
        for section, roles in sorted(self._codec_groups().items()):
            writer, reader = roles.get("writer"), roles.get("reader")
            entry = {"section": section, "writer": writer, "reader": reader}
            if writer and reader:
                w_events, w_cov = self._codec_side(writer, "writer", index)
                writer_types = {t for _, (t, _) in w_events}
                r_events, r_cov = self._codec_side(reader, "reader", index, writer_types)
                entry.update(
                    w_events=w_events,
                    r_events=r_events,
                    w_cov=w_cov,
                    r_cov=r_cov,
                    serialized=sorted(writer_types & {t for _, (t, _) in r_events}),
                )
            model.append(entry)
        self._schema_model_memo = model
        return model

    def snapshot_version(self):
        """The kSnapshotVersion constant, scanned from the loaded tree."""
        for rel in sorted(self.files):
            m = VERSION_CONST_RE.search(self.files[rel].clean)
            if m:
                return int(m.group(1))
        return None

    def schema_digests(self):
        """{type: (digest, canonical)} for every serialized type."""
        index = self.struct_index()
        out = {}
        for entry in self.schema_model():
            for t in entry.get("serialized", ()):
                canon = index[t].canonical()
                out[t] = (fnv1a64(canon), canon)
        return out

    def check_d8(self, lock_path):
        model = self.schema_model()
        if not model:
            return
        index = self.struct_index()
        anchor = None
        for entry in model:
            writer, reader = entry["writer"], entry["reader"]
            if "serialized" not in entry:
                present = writer or reader
                missing = "reader" if writer else "writer"
                self.report(
                    present.sf,
                    present.line,
                    "D8",
                    f"snapshot codec section '{entry['section']}' has no {missing} "
                    "definition to check the wire sequence against",
                )
                continue
            anchor = anchor or writer
            for t in entry["serialized"]:
                sd = index[t]
                wseq = self._type_seq(entry["w_events"], t, sd)
                rseq = self._type_seq(entry["r_events"], t, sd)
                if wseq != rseq:
                    self.report(
                        reader.sf,
                        reader.line,
                        "D8",
                        f"wire sequence for '{t}' differs between {writer.display} "
                        f"[{', '.join(wseq)}] and {reader.display} [{', '.join(rseq)}]; "
                        "writer and reader must touch the same fields in the same order",
                    )
                for fname, _, fline, waived in sd.fields:
                    if waived:
                        continue
                    if (t, fname) not in entry["w_cov"]:
                        self.report(
                            sd.sf,
                            fline,
                            "D8",
                            f"field '{t}::{fname}' of a serialized struct is never "
                            f"written by {writer.display}; serialize it or waive the "
                            "derived field with lint:allow(D8)",
                        )
                    elif (t, fname) not in entry["r_cov"]:
                        self.report(
                            sd.sf,
                            fline,
                            "D8",
                            f"field '{t}::{fname}' of a serialized struct is never "
                            f"restored by {reader.display}; restore it or waive the "
                            "derived field with lint:allow(D8)",
                        )
        if anchor is None:
            return
        digests = self.schema_digests()
        version = self.snapshot_version()
        lock_disp = os.path.relpath(lock_path, self.root) if lock_path else "<none>"
        if version is None:
            self.report(
                anchor.sf,
                anchor.line,
                "D8",
                "kSnapshotVersion constant not found in the scanned tree; D8 "
                "cannot pin the wire schema to a version",
            )
            return
        lock_version, lock_types = read_schema_lock(lock_path)
        if lock_types is None:
            self.report(
                anchor.sf,
                anchor.line,
                "D8",
                f"schema lock {lock_disp} is missing or unreadable; generate it "
                "with --update-schema-lock",
            )
            return
        if lock_version != version:
            self.report(
                anchor.sf,
                anchor.line,
                "D8",
                f"schema lock {lock_disp} was taken at kSnapshotVersion "
                f"{lock_version} but the headers declare {version}; regenerate "
                "the lock with --update-schema-lock",
            )
            return
        for t in sorted(set(digests) | set(lock_types)):
            if t not in lock_types:
                sd = index[t]
                self.report(
                    sd.sf,
                    sd.line,
                    "D8",
                    f"serialized type '{t}' is not in the schema lock - the wire "
                    "format grew while kSnapshotVersion stood still; bump the "
                    "version and regenerate the lock",
                )
            elif t not in digests:
                self.report(
                    anchor.sf,
                    anchor.line,
                    "D8",
                    f"type '{t}' is in the schema lock but no longer serialized - "
                    "the wire format changed while kSnapshotVersion stood still; "
                    "bump the version and regenerate the lock",
                )
            elif digests[t][0] != lock_types[t][0]:
                sd = index[t]
                self.report(
                    sd.sf,
                    sd.line,
                    "D8",
                    f"layout of serialized type '{t}' drifted from the schema lock "
                    f"while kSnapshotVersion stood still (now {digests[t][1]}); "
                    "bump kSnapshotVersion and regenerate the lock",
                )

    def update_schema_lock(self, lock_path):
        """Recompute the schema lock; refuses to paper over drift unless
        kSnapshotVersion was bumped (or the lock is being bootstrapped)."""
        digests = self.schema_digests()
        if not digests:
            print("detlint: no BGPCMP_SNAPSHOT_CODEC pairs found; nothing to lock", file=sys.stderr)
            return 2
        version = self.snapshot_version()
        if version is None:
            print("detlint: kSnapshotVersion constant not found; cannot write the lock", file=sys.stderr)
            return 2
        lock_version, lock_types = read_schema_lock(lock_path)
        if lock_types is not None and lock_version == version:
            drifted = sorted(
                set(digests) ^ set(lock_types)
                | {t for t in digests if t in lock_types and digests[t][0] != lock_types[t][0]}
            )
            if drifted:
                print(
                    "detlint: refusing to regenerate the schema lock: the layout of "
                    f"{', '.join(drifted)} drifted but kSnapshotVersion is still "
                    f"{version}. Bump kSnapshotVersion first - old snapshots must "
                    "be rejected, not misread.",
                    file=sys.stderr,
                )
                return 1
        with open(lock_path, "w", encoding="utf-8") as f:
            f.write(format_schema_lock(version, digests))
        print(
            f"detlint: wrote {lock_path} ({len(digests)} serialized types at "
            f"kSnapshotVersion {version})"
        )
        return 0

    # -- D9: RNG fork lineage ------------------------------------------------

    def _call_args(self, fn, call):
        """Bare identifier arguments at a call site."""
        text = fn.sf.pp_clean
        open_paren = text.index("(", call.off)
        close = _match_paren(text, open_paren)
        if close is None:
            return frozenset()
        return frozenset(
            a.strip()
            for a in split_top_commas(text[open_paren + 1 : close])
            if re.fullmatch(r"[A-Za-z_]\w*", a.strip())
        )

    def _fn_rng_draws(self, fn):
        """True if fn draws, directly or transitively, through one of its
        non-const Rng& parameters. const Rng& cannot draw (every draw method
        is non-const), which keeps this chase sound."""
        key = id(fn)
        if key in self._rng_draws_memo:
            return self._rng_draws_memo[key]
        self._rng_draws_memo[key] = False  # cycle guard
        result = False
        if fn.rng_ref_params and fn.body_span:
            a, b = fn.body_span
            body = fn.sf.pp_clean[a:b]
            params = set(fn.rng_ref_params)
            result = any(m.group(1) in params for m in DRAW_RE.finditer(body))
            if not result:
                for call in self.func_calls(fn):
                    if not params & self._call_args(fn, call):
                        continue
                    if any(
                        target is not fn and self._fn_rng_draws(target)
                        for target in self.resolve_call(call, fn)
                    ):
                        result = True
                        break
        self._rng_draws_memo[key] = result
        return result

    def _loops(self, text, a, b):
        """for/while loop (header span, body span) pairs inside [a, b)."""
        loops = []
        for m in LOOP_HEAD_RE.finditer(text, a, b):
            open_paren = text.index("(", m.end() - 1)
            hclose = _match_paren(text, open_paren)
            if hclose is None or hclose > b:
                continue
            j = hclose + 1
            while j < b and text[j] in " \t\n":
                j += 1
            if j < b and text[j] == "{":
                bclose = _match_brace(text, j)
                if bclose is None or bclose > b:
                    continue
                loops.append((open_paren + 1, hclose, j + 1, bclose))
            else:
                end = text.find(";", j)
                loops.append((open_paren + 1, hclose, j, b if end < 0 or end > b else end))
        return loops

    @staticmethod
    def _innermost_loop(loops, off):
        best = None
        for hs, he, bs, be in loops:
            if bs <= off < be and (best is None or bs > best[2]):
                best = (hs, he, bs, be)
        return best

    def _d9_labels(self, sf, fn):
        """Fork-label hygiene: duplicates, separator-less dynamic prefixes,
        loop-invariant loop-body labels."""
        text = sf.pp_clean
        a, b = fn.body_span
        sites = []
        for m in FORK_RE.finditer(text, a, b):
            open_paren = text.index("(", m.end() - 1)
            close = _match_paren(text, open_paren)
            if close is None or close > b:
                continue
            # String interiors are blanked in the clean text; the raw text is
            # offset-aligned, so the literal label reads from the same span.
            arg_raw = re.sub(r"\s+", " ", sf.text[open_paren + 1 : close].strip())
            lead = re.match(r'^"([^"]*)"', arg_raw)
            constant = bool(re.fullmatch(r'"[^"]*"', arg_raw))
            sites.append((m.start(), open_paren, close, m.group(1), arg_raw,
                          lead.group(1) if lead else None, constant))
        seen = {}
        for off, _, _, recv, arg_raw, _, _ in sites:
            key = (recv, arg_raw)
            if key in seen:
                self.report(
                    sf,
                    sf.line_of_offset(off),
                    "D9",
                    f"fork label {arg_raw} duplicates the fork at line "
                    f"{sf.line_of_offset(seen[key])} on the same receiver "
                    f"'{recv}'; identical labels yield identical substreams",
                )
            else:
                seen[key] = off
        for off, _, _, _, arg_raw, lead, constant in sites:
            if constant or not lead:
                continue
            if lead[-1:].isalnum():
                self.report(
                    sf,
                    sf.line_of_offset(off),
                    "D9",
                    f'dynamic fork label prefix "{lead}" does not end in a '
                    "separator; adjacent values collide (\"s1\"+\"2\" == "
                    "\"s12\"+\"\") - end the prefix with '-', '_' or ':'",
                )
        loops = self._loops(text, a, b)
        for off, op, cl, _, arg_raw, _, _ in sites:
            loop = self._innermost_loop(loops, off)
            if loop is None:
                continue
            hs, he, bs, _ = loop
            bound = set(re.findall(r"[A-Za-z_]\w*", text[hs:he]))
            bound |= set(re.findall(r"[A-Za-z_]\w*", text[bs:off]))
            arg_ids = set(re.findall(r"[A-Za-z_]\w*", text[op + 1 : cl]))
            if not arg_ids & bound:
                self.report(
                    sf,
                    sf.line_of_offset(off),
                    "D9",
                    f"fork label {arg_raw} inside a loop depends on nothing bound "
                    "by the loop; every iteration forks the same substream",
                )

    def check_d9(self, sf):
        funcs, _, _, _ = sf.structure()
        _, rngs = self.context_registry(sf)
        text = sf.pp_clean
        for fn in funcs:
            if not fn.body_span:
                continue
            a, b = fn.body_span
            body = text[a:b]
            self._d9_labels(sf, fn)
            if fn.pure_chunk:
                roots = {m.group(1) for m in RNG_ROOT_RE.finditer(body)}
                for m in DRAW_RE.finditer(body):
                    if m.group(1) in roots:
                        self.report(
                            sf,
                            sf.line_of_offset(a + m.start()),
                            "D9",
                            f"draw '{m.group(1)}.{m.group(2)}()' on an unforked root "
                            "Rng inside a BGPCMP_PURE_CHUNK body; fork a labelled "
                            "substream so chunks cannot couple through the root cursor",
                        )
                for call in self.func_calls(fn):
                    hit = roots & self._call_args(fn, call)
                    if not hit:
                        continue
                    for target in self.resolve_call(call, fn):
                        if target.rng_ref_params and self._fn_rng_draws(target):
                            self.report(
                                sf,
                                sf.line_of_offset(call.off),
                                "D9",
                                f"'{fn.display}' passes unforked root Rng "
                                f"'{sorted(hit)[0]}' to '{target.display}', which "
                                "draws through a non-const Rng&, inside a "
                                "BGPCMP_PURE_CHUNK body; fork per chunk instead",
                            )
                            break
            # The Rng registry sees `Rng x` declarations but not `Rng&`
            # parameters; a draw through a non-const Rng& param is just as
            # order-dependent inside a region, so fold those names in.
            fn_rngs = rngs | set(fn.rng_ref_params)
            for start, end, _ in self.func_regions(fn):
                region = text[start:end]

                def declared_outside(name):
                    return not re.search(
                        r"\bRng\s*&?\s+" + re.escape(name) + r"\b", region
                    )

                for m in DRAW_RE.finditer(region):
                    name = m.group(1)
                    if name in fn_rngs and declared_outside(name):
                        self.report(
                            sf,
                            sf.line_of_offset(start + m.start()),
                            "D9",
                            f"draw '{name}.{m.group(2)}()' inside a parallel region "
                            "on an Rng declared outside it; draw order then depends "
                            "on thread interleaving - fork a per-item substream",
                        )
                for call in self.func_calls(fn):
                    if not start < call.off < end:
                        continue
                    shared = {
                        n for n in self._call_args(fn, call)
                        if n in fn_rngs and declared_outside(n)
                    }
                    if not shared:
                        continue
                    for target in self.resolve_call(call, fn):
                        if target.rng_ref_params and self._fn_rng_draws(target):
                            self.report(
                                sf,
                                sf.line_of_offset(call.off),
                                "D9",
                                f"'{target.display}' draws through a non-const Rng& "
                                f"on '{sorted(shared)[0]}', declared outside the "
                                "parallel region; draw order then depends on thread "
                                "interleaving - fork a per-item substream",
                            )
                            break

    # -- D10: chunk purity ---------------------------------------------------

    def check_d10(self):
        """Chase every call reachable from a BGPCMP_PURE_CHUNK function for
        shared mutable state, and re-run the D5 domination walk with the
        whole chunk body as the region."""
        mutable_globals = [g for g in self.global_vars if not g.is_const and not g.guarded]
        for fn in self.defs:
            if not fn.pure_chunk:
                continue
            chain0 = f"{fn.display} ({fn.sf.rel}:{fn.line})"
            seen = {id(fn)}
            stack = [(fn, [chain0])]
            while stack:
                cur, chain = stack.pop()
                self._d10_body(fn, cur, chain, mutable_globals)
                for call in self.func_calls(cur):
                    hop = f"{cur.display} ({cur.sf.rel}:{cur.sf.line_of_offset(call.off)})"
                    for target in self.resolve_call(call, cur):
                        if target.body_span and id(target) not in seen:
                            seen.add(id(target))
                            stack.append((target, chain + [hop]))
            warms = set(fn.requires)
            chase_seen = set()
            for call in self.func_calls(fn):
                for target in self.resolve_call(call, fn):
                    if target.phase == "warm":
                        warms.add(target.bare)
                        warms.update(target.requires)
                    else:
                        self._chase(target, set(warms), [chain0], fn.sf, fn.line,
                                    chase_seen, rule="D10")

    def _d10_body(self, root, fn, chain, mutable_globals):
        a, _ = fn.body_span
        body = fn.sf.pp_clean[fn.body_span[0] : fn.body_span[1]]
        for m in STATIC_LOCAL_RE.finditer(body):
            stop = len(body)
            for ch in (";", "{", "=", "("):
                p = body.find(ch, m.end())
                if 0 <= p < stop:
                    stop = p
            if re.search(r"\bconst(?:expr|init)?\b", body[m.end() : stop]):
                continue
            self.report(
                fn.sf,
                fn.sf.line_of_offset(a + m.start()),
                "D10",
                f"mutable function-local static in '{fn.display}', reachable from "
                f"BGPCMP_PURE_CHUNK '{root.display}'; chunk output would depend on "
                "what earlier chunks cached; chain: " + " -> ".join(chain),
                chain=chain + [fn.display],
            )
        # A global is in scope only where its file is: the function's own
        # file or a header in its include closure. A parameter or local of
        # the same name shadows it.
        visible = set(self.include_closure(fn.sf))
        _, shadowing = self._var_types(fn)
        seen = set()
        for g in mutable_globals:
            name = g.name
            if g.sf.rel not in visible or name in shadowing or name in seen:
                continue
            gm = re.search(r"\b" + re.escape(name) + r"\b", body)
            if gm is None:
                continue
            seen.add(name)
            self.report(
                fn.sf,
                fn.sf.line_of_offset(a + gm.start()),
                "D10",
                f"'{fn.display}' references mutable namespace-scope '{name}' "
                f"({g.sf.rel}:{g.line}), reachable from BGPCMP_PURE_CHUNK "
                f"'{root.display}'; guard it (BGPCMP_GUARDED_BY) or build the "
                "state per chunk; chain: " + " -> ".join(chain),
                chain=chain + [fn.display],
            )


def read_schema_lock(path):
    """(version, {type: (digest, field text)}) from a lock file; (None, None)
    when absent or unparseable."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except (OSError, TypeError):
        return None, None
    version, types = None, {}
    for ln in lines:
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if parts[0] == "snapshot-version" and len(parts) == 2 and parts[1].isdigit():
            version = int(parts[1])
        elif parts[0] == "type" and len(parts) >= 3:
            types[parts[1]] = (parts[2], " ".join(parts[3:]))
    if version is None:
        return None, None
    return version, types


def format_schema_lock(version, digests):
    lines = [
        "# detlint D8 serialization schema lock.",
        "# Regenerate with: python3 tools/detlint/detlint.py --update-schema-lock",
        "# Regeneration is refused while a layout drifts without a kSnapshotVersion bump.",
        f"snapshot-version {version}",
    ]
    for t in sorted(digests):
        digest, canonical = digests[t]
        lines.append(f"type {t} {digest} {canonical.split('=', 1)[1]}")
    return "\n".join(lines) + "\n"


def repo_root_default():
    return os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))


def default_include_dirs(root):
    dirs = []
    src = os.path.join(root, "src")
    if os.path.isdir(src):
        for sub in sorted(os.listdir(src)):
            inc = os.path.join(src, sub, "include")
            if os.path.isdir(inc):
                dirs.append(inc)
    return dirs


def include_dirs_from_compile_commands(path):
    dirs = []
    try:
        with open(path, encoding="utf-8") as f:
            db = json.load(f)
    except (OSError, ValueError):
        return dirs
    for entry in db:
        cmd = entry.get("command") or " ".join(entry.get("arguments", []))
        for m in re.finditer(r"-I\s*(\S+)", cmd):
            d = m.group(1)
            if not os.path.isabs(d):
                d = os.path.join(entry.get("directory", "."), d)
            d = os.path.normpath(d)
            if os.path.isdir(d) and d not in dirs:
                dirs.append(d)
    return dirs


def gather_files(root, paths, exts=(".cpp", ".h")):
    rels = []
    for p in paths:
        ap = os.path.join(root, p)
        if os.path.isfile(ap):
            rels.append(os.path.relpath(ap, root))
            continue
        for dirpath, dirnames, filenames in os.walk(ap):
            dirnames[:] = [d for d in dirnames if not d.startswith("build") and d != "detlint_fixtures"]
            for fn in sorted(filenames):
                if fn.endswith(exts):
                    rels.append(os.path.relpath(os.path.join(dirpath, fn), root))
    return sorted(set(rels))


# -- scan drivers ------------------------------------------------------------


def default_schema_lock_path(root):
    return os.path.join(root, "tools", "detlint", "snapshot_schema.lock")


def run_scan(root, paths, include_dirs, use_libclang, lint_paths=(), lock_path=None,
             checks=True):
    """D rules over the files under paths; token rules over those under
    lint_paths, each limited to its own scope."""
    az = Analyzer(root, include_dirs, use_libclang)
    files = gather_files(root, paths)
    for rel in files:
        az.load(rel)
    # Pull include closures in before the symbol pass so annotations declared
    # in headers are visible from every TU that uses them.
    for rel in list(files):
        az.include_closure(az.files[rel])
    az.build_symbols()
    if not checks:
        return az
    for rel in files:
        sf = az.files[rel]
        norm = rel.replace("\\", "/")
        model = norm.startswith(("src/", "tools/", "bench/"))
        if model:
            az.check_d1(sf)
        if norm.startswith("src/"):
            az.check_d2(sf)
        if model and norm.endswith(".cpp"):
            az.check_d4(sf)
        if model:
            az.check_d5(sf)
            az.check_d7(sf)
            az.check_d9(sf)
    az.check_d5_regression()
    az.check_d6()
    az.check_d10()
    az.check_d8(lock_path or default_schema_lock_path(root))
    az.token_files = gather_files(root, lint_paths)
    az.check_token_rules(az.token_files)
    return az


def run_self_test(fixture_dir):
    """Run every rule over the fixture corpus and demand an exact match with
    the // expect: markers. The corpus both proves each rule fires and that
    lint:allow opt-outs are honored (allowed lines carry no marker)."""
    root = os.path.abspath(fixture_dir)
    az = Analyzer(root, default_include_dirs(root), use_libclang=False)
    expected = []
    rels = gather_files(root, ["."])
    for rel in rels:
        sf = az.load(rel)
        for i, raw in enumerate(sf.text.splitlines(), start=1):
            m = EXPECT_RE.search(raw)
            if m:
                for rule in re.split(r"[,\s]+", m.group(1).strip()):
                    if rule:
                        expected.append((rel, i, rule))
    az.build_symbols()
    for rel in rels:
        sf = az.files[rel]
        az.check_d1(sf)
        az.check_d2(sf)
        if rel.endswith(".cpp"):
            az.check_d4(sf)
        az.check_d5(sf)
        az.check_d7(sf)
        az.check_d9(sf)
    az.check_d5_regression()
    az.check_d6()
    az.check_d10()
    az.check_d8(os.path.join(root, "d8_schema.lock"))
    az.check_token_rules(rels, scoped=False)
    actual = sorted(f.key() for f in az.findings)
    expected = sorted((os.path.normpath(p), l, r) for p, l, r in expected)
    actual = [(os.path.normpath(p), l, r) for p, l, r in actual]
    missing = [e for e in expected if e not in actual]
    surplus = [a for a in actual if a not in expected]
    for f in az.findings:
        print(f)
    if missing or surplus:
        for e in missing:
            print(f"SELF-TEST MISSING: {e[0]}:{e[1]}: {e[2]} (expected, not reported)")
        for a in surplus:
            print(f"SELF-TEST SURPLUS: {a[0]}:{a[1]}: {a[2]} (reported, not expected)")
        print(f"detlint self-test: FAIL ({len(missing)} missing, {len(surplus)} surplus)")
        return 1
    print(f"detlint self-test: ok ({len(expected)} expected findings, all matched)")
    return 0


def emit_findings(az, github, paths, lint_paths, engine_note):
    findings = sorted(az.findings, key=Finding.key)
    if github:
        # GitHub Actions workflow commands: surfaced as PR annotations.
        for f in findings:
            msg = f.message.replace("%", "%25").replace("\r", "").replace("\n", "%0A")
            print(f"::error file={f.path},line={f.line},title=detlint {f.rule}::{msg}")
        print(f"detlint: {len(findings)} finding(s)" if findings else "detlint: clean")
    else:
        print(f"detlint: engine={engine_note}; scanned {len(az.files)} files under {' '.join(paths)}; "
              f"token rules {len(az.token_files)} files under {' '.join(lint_paths)}")
        for f in findings:
            print(f)
        if findings:
            print(f"detlint: {len(findings)} finding(s)")
        else:
            print("detlint: clean")
    return 1 if findings else 0


def main(argv):
    ap = argparse.ArgumentParser(prog="detlint", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="paths to scan (default: src tools bench, plus examples tests for the token rules)",
    )
    ap.add_argument("--root", default=None, help="repo root (default: two levels above this script)")
    ap.add_argument("--compile-commands", default=None, help="compile_commands.json for include resolution")
    ap.add_argument("--engine", choices=["auto", "tokenizer", "libclang"], default="auto")
    ap.add_argument("--self-test", metavar="DIR", default=None, help="verify the fixture corpus and exit")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument(
        "--github", action="store_true", help="emit findings as GitHub Actions annotations"
    )
    ap.add_argument(
        "--schema-lock",
        default=None,
        help="D8 schema lock path (default: tools/detlint/snapshot_schema.lock)",
    )
    ap.add_argument(
        "--update-schema-lock",
        action="store_true",
        help="recompute the D8 schema lock and exit (refused if the layout "
        "drifted without a kSnapshotVersion bump)",
    )
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule}  {desc}")
        return 0

    if args.self_test:
        return run_self_test(args.self_test)

    root = os.path.abspath(args.root) if args.root else repo_root_default()
    paths = args.paths or ["src", "tools", "bench"]
    lint_paths = args.paths or list(TOKEN_ROOTS)
    for p in paths:
        if not os.path.exists(os.path.join(root, p)):
            print(f"detlint: no such path under {root}: {p}", file=sys.stderr)
            return 2

    include_dirs = default_include_dirs(root)
    cc = args.compile_commands or os.path.join(root, "build", "compile_commands.json")
    if os.path.isfile(cc):
        for d in include_dirs_from_compile_commands(cc):
            if d not in include_dirs:
                include_dirs.append(d)

    use_libclang = args.engine in ("auto", "libclang")
    if args.engine == "libclang":
        try:
            import clang.cindex  # noqa: F401
        except ImportError:
            print("detlint: --engine libclang requested but the clang Python bindings are missing", file=sys.stderr)
            return 2

    lock_path = args.schema_lock or default_schema_lock_path(root)
    if args.update_schema_lock:
        az = run_scan(root, paths, include_dirs, use_libclang, checks=False)
        return az.update_schema_lock(lock_path)

    az = run_scan(root, paths, include_dirs, use_libclang, lint_paths, lock_path)
    engine = "libclang" if az.libclang_active else "tokenizer"
    if not az.libclang_active and not args.github:
        engine += " (libclang unavailable; declaration tracking is textual)"
    return emit_findings(az, args.github, paths, lint_paths, engine)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
