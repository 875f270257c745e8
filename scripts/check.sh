#!/usr/bin/env bash
# Full verification: lint, configure, build, run every test (the figures and
# §3 experiments included: the experiment_* ctests compare each against its
# results/ file), the determinism audit, the format check, and the
# google-benchmark programs. Mirrors what CI runs.
set -euo pipefail
cd "$(dirname "$0")/.."

# The repo lint (docs/TOOLING.md, "Static contracts"): the self-test pins
# every rule (token rules R1-R6 and the semantic rules D1-D10) against the
# fixture corpus, then the tree must scan clean. D8 diffs serialized structs
# against the committed tools/detlint/snapshot_schema.lock.
python3 tools/detlint/detlint.py --self-test tests/detlint_fixtures
python3 tools/detlint/detlint.py
# BENCH_*.json shape: provenance keys, unit-suffixed numeric leaves,
# monotone scale axes (docs/TOOLING.md, "Scripts and CI").
python3 scripts/bench_schema.py
scripts/format.sh --check

# Prefer Ninja, but fall back to the default generator when it is absent.
# Never pass -G over an already-configured tree: CMake rejects a generator
# change, and the cached one wins anyway.
generator=()
if [ ! -f build/CMakeCache.txt ] && command -v ninja >/dev/null 2>&1; then
  generator=(-G Ninja)
fi
cmake -B build "${generator[@]}"
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure

# Propagation golden suite under AddressSanitizer: the propagation kernel,
# the Adj-RIB-in walk (Rib*, pinned to its edge-by-edge golden) and the
# incremental churn engine must stay pinned byte-identical to their
# references with heap checking on. ('Seeds/*' picks up the parameterized
# randomized-stream equivalence suite, Seeds/ChurnProperty.)
cmake --preset asan
cmake --build build-asan -j "$(nproc)" --target bgp_test
build-asan/tests/bgp_test --gtest_filter='Propagation*:Rib*:RouteCache*:Churn*:Seeds/*'

# Reproducibility gate: every registered scenario, studies included.
build/tools/determinism_audit

# Thread-count independence: rendering with a 1-thread pool and an 8-thread
# pool must produce byte-identical tables, or parallel code leaked scheduling
# order into results.
build/tools/determinism_audit --compare-threads 8

# Process-boundary independence: an in-process run vs two forked worker
# processes over the full registry must produce byte-identical fingerprints,
# or results depend on which process computes them (docs/PARALLELISM.md,
# "Sharding").
build/tools/determinism_audit --shards 2

# Pipeline bench smoke: every bench/pipeline workload at reduced size, with
# its outputs checked against the smoke digests in bench/pipeline/pins.json,
# so a change that moves a pinned model output fails here (~5 s after the
# build).
python3 bench/pipeline/run.py --smoke

# Scale smoke: the 4x-AS-count world (two builds + fingerprints) must stay in
# interactive time. The indexed generator does this in well under a second;
# reintroducing a linear scan into the build loops (the old quadratic regime
# was ~30x slower) blows the bound by an order of magnitude, so a generous
# cap still catches it on slow machines.
start_ns=$(date +%s%N)
build/tools/determinism_audit --scenario topology_4x
elapsed_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
echo "topology_4x audit: ${elapsed_ms} ms (bound 5000)"
if [ "$elapsed_ms" -ge 5000 ]; then
  echo "4x-scale build_internet regressed toward the quadratic regime" >&2
  exit 1
fi

# Serving smoke: snapshot the default world, serve the same query stream from
# the loaded and the freshly built world, and require byte-identical digests.
# This is the end-to-end CLI version of the serving_default audit scenario;
# it also reports the load time so a cold-start regression is visible here
# before the e19 benchmark quantifies it.
snap=build/check_serving.snap
build/tools/bgpcmp snapshot --out "$snap" --warm 32
start_ns=$(date +%s%N)
loaded=$(build/tools/bgpcmp serve --snapshot "$snap" --queries 256 --digest)
elapsed_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
fresh=$(build/tools/bgpcmp serve --warm 32 --queries 256 --digest)
echo "serving smoke: load+serve ${elapsed_ms} ms"
echo "  snapshot: ${loaded}"
echo "  fresh:    ${fresh}"
if [ "$loaded" != "$fresh" ]; then
  echo "snapshot-loaded world diverged from a fresh build" >&2
  exit 1
fi

# Scale smoke: a 30x-AS-count world must build and complete one sharded
# study window (two worker processes, docs/SCALE.md) inside a pinned memory
# bound. ulimit -v caps address space — the enforceable proxy for RSS on
# Linux — so a regression back toward eager per-origin materialization
# (whose 30x footprint is several times this cap) aborts the run instead of
# silently swelling. Reference-container peak RSS for this command is
# ~0.4 GB per worker (BENCH_scale.json); the 2 GB cap leaves headroom for
# allocator/VM overhead while still catching an order-of-magnitude blowup.
# --check also runs the study in-process and requires the same fingerprint,
# so sharded-vs-serial equality is checked at 30x, not only at 1x (cli_shard).
(
  ulimit -v 2097152
  build/tools/bgpcmp shard --scale 30 --shards 2 --days 0.011 --chunk-origins 256 --check
)

for b in micro_core e18_churn e19_serving; do
  echo "== $b"
  "build/bench/$b"
done
# Scale trajectory: 10x families only as a smoke here; the full 10x/30x/100x
# sweep (one process per family, for per-phase peak RSS) is
# scripts/bench_scale.sh.
echo "== e20_scale"
build/bench/e20_scale --benchmark_filter='/10$'
