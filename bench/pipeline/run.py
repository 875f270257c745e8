#!/usr/bin/env python3
"""The pipeline benchmark: build pipeline_bench, run workloads, report metrics.

Usage:
  python3 bench/pipeline/run.py [--workload W] [--seed N] [--seconds S]
      [--runs R] [--trace 0|1] [--trace-dir DIR] [--out FILE] [--smoke]
      [--base DIR]
  python3 bench/pipeline/run.py --repin

Builds build/bench_pipeline/pipeline_bench from source, then runs each
workload (all four unless --workload names one) in its own process, R times
with seeds N, N+1, ... Every metric is printed as "workload metric value
unit"; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 1 a traced pass follows
each run and the metrics are the per-layer ones (layers.py); otherwise they
are the end-to-end ones. --out writes every run with host provenance.
--base DIR names the root of a checkout of the commit to compare against: its
own benchmark program is built into build/bench_pipeline_base/ and each seed
runs on both sides, alternating which side goes first, so that compare.py
can judge the --out file. --smoke runs every workload at reduced size with
the trace and all checks. --repin rewrites pins.json from runs at the
default seed. Exits nonzero when a check fails. See README.md.
"""

import argparse
import dataclasses
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import layers  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "bench_pipeline")
WORKLOADS = ("fig1_1x", "study_30x", "serve_10x", "churn_10x")
SNAPSHOT_WORKLOADS = ("serve_10x", "churn_10x")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


@dataclasses.dataclass(frozen=True)
class Side:
    """One commit's benchmark program: the checkout it is built from and where."""

    name: str  # "change" (this checkout) or "base"
    root: str
    build: str

    @property
    def binary(self):
        return os.path.join(self.build, "pipeline_bench")

    @property
    def pins(self):
        return os.path.join(self.root, "bench", "pipeline", "pins.json")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def pool_width():
    return min(4, len(os.sched_getaffinity(0)))


def child_env():
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(BUILD, "tmp")  # compilers and pipeline_bench stay in the checkout
    return env


def cmake_cache(build_dir):
    """The CMakeCache.txt entries of a build directory, {} before configuring."""
    cache = {}
    path = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(path):
        return cache
    with open(path, encoding="utf-8") as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def build(side, width):
    source = os.path.join(side.root, "bench", "pipeline")
    if not os.path.isfile(os.path.join(side.root, "src", "CMakeLists.txt")):
        fail(f"model sources not found under {side.root}; run from a full checkout")
    if not os.path.isfile(os.path.join(source, "CMakeLists.txt")):
        fail(f"{side.root} has no bench/pipeline to build")
    home = cmake_cache(side.build).get("CMAKE_HOME_DIRECTORY")
    if home is not None and os.path.realpath(home) != os.path.realpath(source):
        shutil.rmtree(side.build)  # configured from another checkout
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(side.build, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", source, "-B", side.build, *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", side.build, "-j", str(width), "--target", "pipeline_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=child_env()).returncode != 0:
            fail("building pipeline_bench failed: " + " ".join(cmd))


def snapshot(side, smoke):
    """The side's serving snapshot, rewritten whenever its pipeline_bench is newer."""
    path = os.path.join(side.build, "serve_smoke.snap" if smoke else "serve_10x.snap")
    if not os.path.isfile(path) or os.path.getmtime(path) < os.path.getmtime(side.binary):
        cmd = [side.binary, "--prepare", path] + (["--smoke"] if smoke else [])
        if subprocess.run(cmd, env=child_env(), timeout=RUN_TIMEOUT_S).returncode != 0:
            fail("writing the serving snapshot failed")
    return path


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    git = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
    return git.stdout.strip() or "unknown"


def host_info(width):
    def first_line(path, key):
        try:
            with open(path, encoding="utf-8") as f:
                for line in f:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    cache = cmake_cache(BUILD)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    mem_kb = first_line("/proc/meminfo", "MemTotal").split()[0]
    return {
        "cpu": first_line("/proc/cpuinfo", "model name"),
        "nproc": len(os.sched_getaffinity(0)),
        "pool_width": width,
        "ram_gb": round(int(mem_kb) / 2**20, 1) if mem_kb.isdigit() else None,
        "compiler": version.stdout.splitlines()[0] if version.stdout else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "machine": platform.machine(),
        "git_sha": git_sha(ROOT),
    }


def tail(ops):
    """p99 when at least ten samples lie beyond it, else the slowest op."""
    if len(ops) < 1000:
        return max(ops)
    return sorted(ops)[math.ceil(0.99 * len(ops)) - 1]


def end_to_end(raw):
    ops = raw["op_ms"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "op_p50_ms": statistics.median(ops),
        "op_tail_ms": tail(ops),
        "work_per_s": raw["work"] / (sum(ops) / 1e3),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def pin_errors(workload, seed, smoke, digests, pins):
    """Digests that differ from, or are missing against, the pins at the default seed."""
    if pins is None or seed != pins["seed"]:
        return []
    pinned = pins["smoke" if smoke else "full"].get(workload, {})
    errors = []
    for name in sorted(set(pinned) | set(digests)):
        if pinned.get(name) != digests.get(name):
            errors.append(f"{workload}: digest {name} is {digests.get(name)}, "
                          f"pinned {pinned.get(name)}")
    return errors


def run_once(side, workload, seed, args, width, pins):
    """One pipeline_bench process; returns the run record. `pins` is the side's
    pins.json, or None to skip the pinned-digest check."""
    cmd = [side.binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--threads", str(width)]
    if workload in SNAPSHOT_WORKLOADS:
        cmd += ["--snapshot", snapshot(side, args.smoke)]
    if args.smoke:
        cmd.append("--smoke")
    trace = None
    if args.trace:
        os.makedirs(args.trace_dir, exist_ok=True)
        trace = os.path.join(args.trace_dir, f"{side.name}-{workload}-seed{seed}.json")
        cmd += ["--trace", trace]
    record = {"side": side.name, "workload": workload, "seed": seed, "metrics": {},
              "attempted": 1, "failed": 1, "errors": []}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record["errors"].append(f"{workload}: pipeline_bench exceeded {RUN_TIMEOUT_S} s")
        return record
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        record["errors"].append(f"{workload}: pipeline_bench exited with {proc.returncode}: "
                                + proc.stderr.strip()[-400:])
        return record
    raw = json.loads(lines[-1])
    errors = raw["errors"] + pin_errors(workload, seed, args.smoke, raw["digests"], pins)
    record["digests"] = raw["digests"]
    record["metrics"] = end_to_end(raw)
    if trace:
        rows, layer_metrics, _ = layers.reduce(trace)
        print(layers.format_table(rows, workload))
        record["layer_metrics"] = {k: v for k, (v, _) in layer_metrics.items()}
        # The traced pass replays the first operations of the untraced run.
        traced = raw["traced_op_ms"]
        untraced = statistics.median(raw["op_ms"][:len(traced)])
        record["layer_metrics"]["trace.overhead_frac"] = statistics.median(traced) / untraced - 1.0
        errors += layers.check(layer_metrics, workload)
    record["attempted"] = len(raw["op_ms"]) + len(raw["traced_op_ms"])
    record["failed"] = record["attempted"] if errors else raw["failed"]
    record["errors"] = errors
    return record


def report(record, units, paired):
    """Print a run's metrics, prefixed by its side when runs are paired."""
    for e in record["errors"]:
        print(f"run.py: check failed: {record['side']}: {e}", file=sys.stderr)
    shown = dict(record["metrics"])
    shown.update(record.get("layer_metrics", {}))
    prefix = f"{record['side']} " if paired else ""
    for name, value in shown.items():
        print(f"{prefix}{record['workload']} {name} {value!r} {units[name]}")


def load_pins(side):
    with open(side.pins, encoding="utf-8") as f:
        return json.load(f)


def repin(side, args, width):
    pins = {"seed": DEFAULT_SEED, "full": {}, "smoke": {}}
    for smoke in (False, True):
        args.smoke = smoke
        for workload in WORKLOADS:
            record = run_once(side, workload, DEFAULT_SEED, args, width, None)
            if "digests" not in record:
                fail("; ".join(record["errors"]))
            pins["smoke" if smoke else "full"][workload] = record["digests"]
    with open(side.pins, "w", encoding="utf-8") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"run.py: wrote {side.pins}", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed-phase budget per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-dir", default=os.path.join(BUILD, "traces"))
    ap.add_argument("--out")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--repin", action="store_true")
    ap.add_argument("--base", help="root of a checkout of the commit to compare against")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    if args.runs < 1:
        fail("--runs must be at least 1")

    width = pool_width()
    change = Side("change", ROOT, BUILD)
    sides = [change]
    if args.base:
        base_root = os.path.abspath(args.base)
        sides.insert(0, Side("base", base_root, os.path.join(ROOT, "build", "bench_pipeline_base")))
    for side in sides:
        build(side, width)
    if args.repin:
        args.trace = 0
        repin(change, args, width)
        return 0
    if args.smoke:
        args.trace = 1
        args.seconds = 0.0

    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    pins = {side.name: load_pins(side) for side in sides}
    paired = len(sides) == 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    summary = {}
    for workload in workloads:
        shown = []  # the change side's reported metrics, one dict per run
        for i in range(args.runs):
            # Alternate which side runs first (ABBA), so slow drift of the
            # host's speed falls on both sides alike.
            for side in sides if i % 2 == 0 else sides[::-1]:
                record = run_once(side, workload, args.seed + i, args, width, pins[side.name])
                records.append(record)
                report(record, units, paired)
                if side is change:
                    shown.append(record.get("layer_metrics", {}) if args.trace
                                 else record["metrics"])
        for name in dict.fromkeys(n for s in shown for n in s):
            values = [s[name] for s in shown if name in s]
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            summary[key] = {"value": statistics.median(values), "unit": units[name]}

    if args.out:
        result = {"host": host_info(width), "seconds": args.seconds, "smoke": args.smoke,
                  "trace": bool(args.trace), "runs": records}
        if paired:
            result["base_git_sha"] = git_sha(sides[0].root)
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(result, f, indent=1)
            f.write("\n")

    correct = all(not r["errors"] and r["failed"] == 0 for r in records)
    changed = [r for r in records if r["side"] == "change"]
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in changed),
        "failed": sum(r["failed"] for r in changed),
        "metrics": summary,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
