#!/usr/bin/env python3
"""Mutation self-test for detlint rule D8 (serialization-schema drift).

Copies the source tree into a scratch root, confirms the copy scans clean,
then edits AsNode's field list (the one list the snapshot writer and reader
share) in two ways, each on a fresh copy:

  drop  - delete one entry: the member no longer crosses the wire, which D8
          reports as a serialized member missing from fields();
  swap  - exchange two adjacent entries: the wire order no longer follows
          declaration order, so the locked layout digest would no longer pin
          it; D8's declaration-order check reports that.

If D8 stays silent on either mutant, the rule is dead and the schema lock is
theater.

Run from anywhere; locates the repo relative to this file. Exits 0 on pass.
"""

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
DETLINT = os.path.join(HERE, "detlint.py")
VICTIM = os.path.join("src", "topology", "include", "bgpcmp", "topology", "as_graph.h")
# AsNode's field list, and the two mutants made from it.
FIELD_LIST = "a(n.asn, n.cls, n.name, n.presence, n.hub, n.backbone_inflation);"
MUTANTS = (
    ("drop", "a(n.asn, n.cls, n.name, n.presence, n.hub);", "missing from its fields() list"),
    ("swap", "a(n.asn, n.cls, n.name, n.presence, n.backbone_inflation, n.hub);",
     "once in declaration order"),
)


def fail(msg):
    print(f"mutation_selftest: FAIL: {msg}")
    return 1


def run_detlint(root):
    proc = subprocess.run(
        [sys.executable, DETLINT, "--root", root, "src"],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout + proc.stderr


def copy_tree(tmp):
    shutil.copytree(os.path.join(REPO, "src"), os.path.join(tmp, "src"))
    os.makedirs(os.path.join(tmp, "tools", "detlint"))
    shutil.copy(
        os.path.join(HERE, "snapshot_schema.lock"),
        os.path.join(tmp, "tools", "detlint", "snapshot_schema.lock"),
    )


def main():
    tmp = tempfile.mkdtemp(prefix="detlint_mut_")
    try:
        copy_tree(tmp)
        rc, out = run_detlint(tmp)
        if rc != 0:
            return fail(f"pristine copy is not clean (exit {rc}):\n{out}")

        victim = os.path.join(tmp, VICTIM)
        with open(victim, encoding="utf-8") as f:
            pristine = f.read()
        if pristine.count(FIELD_LIST) != 1:
            return fail(f"expected exactly one '{FIELD_LIST}' in {VICTIM}, "
                        f"found {pristine.count(FIELD_LIST)}")

        for name, mutant, message in MUTANTS:
            with open(victim, "w", encoding="utf-8") as f:
                f.write(pristine.replace(FIELD_LIST, mutant))
            rc, out = run_detlint(tmp)
            if rc != 1:
                return fail(f"{name} mutant scan exited {rc}, expected 1 (findings):\n{out}")
            if "D8" not in out or message not in out:
                return fail(f"{name} mutant produced no D8 '{message}' finding:\n{out}")

        print("mutation_selftest: ok (dropped and swapped AsNode fields() entries; D8 fired)")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
