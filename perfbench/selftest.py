#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

1. A tiny run of every workload (those BENCHMARK.json declares, plus
   serve-nn), untraced and traced, must verify every answer and print every
   metric BENCHMARK.json declares, with its unit.
2. Each injected fault must show up as failed ops (a lower success_rate):
   a wrong reference answer (serve-nn), an accepted malformed statement
   (serve-mixed) and a wrong COUNT (plan-exec).

Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, inject=None):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    if inject:
        cmd += ["--inject", inject]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=600)
    if r.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited with {r.returncode}")
    return json.loads(r.stdout.rstrip("\n").split("\n")[-1])


def check(cond, what, failures):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def main():
    failures = []
    names = [w["name"] for w in SPEC["workloads"]] + ["serve-nn"]
    for name in dict.fromkeys(names):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(name, trace)
            tag = f"{name} trace={trace}"
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1, f"{tag}: all answers verified",
                  failures)
            got = res["metrics"]
            for m in SPEC[key]:
                check(m["name"] in got and got[m["name"]]["unit"] == m["unit"],
                      f"{tag}: prints {m['name']} [{m['unit']}]", failures)
            check(set(got) == {m["name"] for m in SPEC[key]},
                  f"{tag}: prints no undeclared metric", failures)

    for workload, fault in (("serve-nn", "wrong-reference"),
                            ("serve-mixed", "accept-malformed"),
                            ("plan-exec", "wrong-count")):
        res = run(workload, 0, fault)
        check(not res["correct"] and res["failed"] > 0 and
              res["metrics"]["success_rate"]["value"] < 1,
              f"{workload}: injected {fault} counts as failed ops", failures)

    print(f"{len(failures)} check(s) failed" if failures else "all checks ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
