#!/usr/bin/env bash
# Unreached-code check: list every function of the src/ libraries that no
# non-test executable keeps. Run by CI.
#
# Builds the tree at -O0 into build-unreached/ with one section per function
# and links every non-test executable with --gc-sections, so the linker keeps
# only the functions some entry point reaches. The executables are everything
# under bench/, examples/ and tools/, plus bench/pipeline's pipeline_bench,
# built from its own project as bench/pipeline/run.py builds it. A strong
# text symbol of a src/ static library that appears in none of them is
# unreached; it is printed demangled, one per line. Header-only (inline or
# template) code is emitted weak and is not covered.
#
# Usage: scripts/unreached.sh
# Exits 1 if anything outside the allowlist below is unreached.
set -euo pipefail
cd "$(dirname "$0")/.."

# Kept on purpose, matched against the demangled name: the structural table
# checks the stable-state certificate (ROADMAP) replaces.
allowlist=(
  'bgpcmp::bgp::table_is_consistent('
  'bgpcmp::bgp::is_valley_free('
)

out=build-unreached
jobs=$(nproc 2>/dev/null || echo 2)
# Ninja, for its per-directory "<dir>/all" targets.
flags=(
  -G Ninja
  -DCMAKE_BUILD_TYPE=Debug
  -DCMAKE_CXX_FLAGS_DEBUG=-O0
  -DCMAKE_CXX_FLAGS=-ffunction-sections
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
)

cmake -S . -B "$out/main" "${flags[@]}" >/dev/null
# Every executable target outside tests/ (the tests are the callers this
# check does not count).
cmake --build "$out/main" -j "$jobs" --target bench/all examples/all tools/all >/dev/null
cmake -S bench/pipeline -B "$out/pipeline" "${flags[@]}" >/dev/null
cmake --build "$out/pipeline" -j "$jobs" --target pipeline_bench >/dev/null

mapfile -t exes < <(find "$out/main/bench" "$out/main/examples" "$out/main/tools" \
                      -maxdepth 1 -type f -perm -u+x | sort)
exes+=("$out/pipeline/pipeline_bench")
mapfile -t libs < <(find "$out/main/src" -name 'libbgpcmp_*.a' | sort)
echo "unreached: ${#exes[@]} executables, ${#libs[@]} libraries" >&2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
nm --defined-only "${libs[@]}" 2>/dev/null | awk '$2 == "T" { print $3 }' \
  | sort -u >"$tmp/defined"
for exe in "${exes[@]}"; do
  nm --defined-only "$exe" | awk 'NF == 3 { print $3 }'
done | sort -u >"$tmp/kept"

comm -23 "$tmp/defined" "$tmp/kept" | c++filt | sort -u >"$tmp/unreached"
cat "$tmp/unreached"

unexpected=$(grep -v -F "${allowlist[@]/#/-e}" "$tmp/unreached" || true)
if [ -n "$unexpected" ]; then
  echo "unreached: $(wc -l <<<"$unexpected") function(s) outside the allowlist" >&2
  exit 1
fi
echo "unreached: only allowlisted functions" >&2
