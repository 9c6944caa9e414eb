#!/usr/bin/env python3
"""Fast self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload named in BENCHMARK.json through run.py with --smoke
(tiny explore instances, a sub-second service window), once untraced and
once traced, and asserts that:

- the run exits 0 and its last line is the JSON result, with exactly the
  keys correct/attempted/failed/metrics and correct = true;
- the result holds every end-to-end metric (untraced) or every per-layer
  metric (traced) of BENCHMARK.json, each with BENCHMARK.json's unit and
  a finite number, and no other metric;
- the human-readable lines before it print each of those metrics by name
  with its unit, and a provenance header.

Exits 0 when every check passes, 1 otherwise.  Takes about a minute,
most of it the first build.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload, trace, group, problems):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = "%s --trace %d" % (workload, trace)
    if r.returncode != 0:
        problems.append("%s: exit code %d\n%s%s" % (where, r.returncode, r.stdout, r.stderr))
        return
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        problems.append("%s: last line is not JSON (%s)" % (where, e))
        return
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("%s: result keys %s" % (where, sorted(result)))
        return
    if result["correct"] is not True or result["attempted"] < 1:
        problems.append("%s: correct=%s attempted=%s" % (where, result["correct"],
                                                         result["attempted"]))
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in group}
    if set(metrics) != set(want):
        problems.append("%s: metrics differ from BENCHMARK.json: missing %s, extra %s"
                        % (where, sorted(set(want) - set(metrics)),
                           sorted(set(metrics) - set(want))))
    for name, unit in want.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append("%s: %s has unit %r, BENCHMARK.json says %r"
                            % (where, name, m.get("unit"), unit))
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("%s: %s has value %r" % (where, name, v))
        if not any(l.split()[:1] == [name] and l.split()[-1:] == [unit] for l in lines[:-1]):
            problems.append("%s: no line prints %s with unit %s" % (where, name, unit))
    if not any(l.startswith("provenance {") for l in lines):
        problems.append("%s: no provenance header" % where)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        for trace, group in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            check_run(w["name"], trace, group, problems)
            print("checked %-16s --trace %d" % (w["name"], trace), flush=True)
    for p in problems:
        print("FAIL: " + p)
    print("selfcheck: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
