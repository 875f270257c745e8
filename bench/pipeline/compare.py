#!/usr/bin/env python3
"""Judge a change against its base from one paired pipeline-benchmark file.

Usage: python3 bench/pipeline/compare.py PAIRED.json

The file comes from `run.py --base DIR --runs R --out PAIRED.json`: every
seed ran once on each side, back to back in alternating order, on one host.
The host's speed drifts over minutes, and a seed's two runs share that drift
while runs of different seeds do not; the verdict therefore rests on the
per-seed differences (change minus base, signed so that positive is worse).
For every (workload, end-to-end metric) it prints both sides' median and
quartiles, the median difference, and a verdict:

  regressed   the median difference exceeds the metric's allowance
  unresolved  the differences' quartile spread (q3 - q1) exceeds the
              allowance, and not every change run beats every base run
  improved    the change wins at least nine tenths of the seed pairs (ties
              count for neither) and the medians differ by more than the
              base's quartile spread
  unchanged   otherwise

The allowance is the metric's bound in BENCHMARK.json times the base median;
for setup_s it is at least SETUP_FLOOR_S. A workload with more failed
operations than the base also counts as regressed. Exit status: 0 when
nothing regressed or is unresolved, 1 when something did, 2 when the file
cannot be judged (no base runs, or a seed missing on one side).
"""

import json
import os
import statistics
import sys

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SETUP_FLOOR_S = 0.05  # set-up changes below this are not told apart from noise


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(base, change, allowance, better):
    """Verdict and summary numbers for one metric; `base` and `change` are
    values paired by seed, `allowance` the absolute change that counts."""
    sign = 1.0 if better == "lower" else -1.0
    mb, mc = statistics.median(base), statistics.median(change)
    q1b, q3b = quartiles(base)
    q1c, q3c = quartiles(change)
    worse = [sign * (c - b) for b, c in zip(base, change)]
    q1w, q3w = quartiles(worse)
    median_worse = statistics.median(worse)
    wins = sum(1 for w in worse if w < 0)
    all_better = max(sign * c for c in change) < min(sign * b for b in base)
    gain = wins >= 0.9 * len(base) and sign * (mb - mc) > q3b - q1b
    if q3w - q1w > allowance:
        result = "improved" if all_better and gain else ("unchanged" if all_better else "unresolved")
    elif median_worse > allowance:
        result = "regressed"
    else:
        result = "improved" if gain else "unchanged"
    return result, (mb, q1b, q3b), (mc, q1c, q3c), median_worse


def pairs(result):
    """{(workload, seed): {"base": run, "change": run}} of a paired file."""
    out = {}
    for r in result["runs"]:
        out.setdefault((r["workload"], r["seed"]), {})[r["side"]] = r
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    result = load(argv[1])
    runs = pairs(result)
    if not runs or any(set(p) != {"base", "change"} for p in runs.values()):
        print("compare.py: every seed needs one base and one change run "
              "(record them with run.py --base)", file=sys.stderr)
        return 2

    spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    print(f"base {result.get('base_git_sha', 'unknown')}  change {result['host']['git_sha']}  "
          f"on {result['host']['cpu']} x{result['host']['nproc']}")
    keys = sorted(runs)
    bad = 0
    print(f"{'workload':10} {'metric':12} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'worse':>8} {'bound':>6}  verdict")
    for workload in sorted({w for w, _ in keys}):
        seeds = [k for k in keys if k[0] == workload]
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [runs[k]["base"]["metrics"].get(name) for k in seeds]
            c = [runs[k]["change"]["metrics"].get(name) for k in seeds]
            if None in b or None in c:
                print(f"{workload:10} {name:12} missing in a failed run")
                bad += 1
                continue
            floor = SETUP_FLOOR_S if name == "setup_s" else 0.0
            allowance = max(m["bound"] * abs(statistics.median(b)), floor)
            outcome, sb, sc, worse = verdict(b, c, allowance, m["better"])
            bad += outcome in ("regressed", "unresolved")
            fmt = lambda s: f"{s[0]:.6g} [{s[1]:.6g}, {s[2]:.6g}]"  # noqa: E731
            print(f"{workload:10} {name:12} {fmt(sb):>34} {fmt(sc):>34} "
                  f"{worse / abs(sb[0]) if sb[0] else 0.0:+8.2%} {m['bound']:6.2f}  {outcome}")
        failed_b = sum(runs[k]["base"]["failed"] for k in seeds)
        failed_c = sum(runs[k]["change"]["failed"] for k in seeds)
        attempted_c = sum(runs[k]["change"]["attempted"] for k in seeds)
        failures = "regressed" if failed_c > failed_b else "unchanged"
        bad += failures == "regressed"
        print(f"{workload:10} {'failed_ops':12} {failed_b:>34} {failed_c:>34} "
              f"{'':8} {'':6}  {failures} ({failed_c}/{attempted_c} attempted)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
