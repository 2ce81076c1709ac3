#!/usr/bin/env python3
"""Check that the benchmark is steady: run two sets of the same code.

    python3 perfbench/steady.py

Run from the repository root. Each of the two sets runs every
workload ten times through run.py (--trace 0), each time with
another seed. For every end-to-end metric it reports each set's
median and quartiles and the spread (q3 - q1) / median, then checks
what BENCHMARK.json promises: every spread within the metric's
bound, the two sets' medians apart by no more than the bound, and
the same share of failed operations in every run. Exits 1 when a
check fails.
"""

import json
import statistics
import subprocess
import sys

SETS = 2
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit(f"steady: {' '.join(cmd)} exited {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ok = True
    for wl in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = 1 + s * 1000 + i
                res = run_once(wl, seed, spec["run_seconds"])
                if not res["correct"]:
                    print(f"{wl} seed {seed}: outputs NOT correct")
                    ok = False
                runs.append(res)
            sets.append(runs)
        print(f"== {wl}")
        shares = set()
        for runs in sets:
            att = sum(r["attempted"] for r in runs)
            fail = sum(r["failed"] for r in runs)
            shares |= {r["failed"] / r["attempted"] for r in runs}
            print(f"   failed {fail} of {att} attempted")
        if len(shares) > 1:
            print(f"   FAIL: failed share differs between runs: "
                  f"{sorted(shares)}")
            ok = False
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for k, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                spread = (q3 - q1) / med if med else float("inf")
                meds.append(med)
                verdict = "ok"
                if spread > bound:
                    verdict, ok = "FAIL spread", False
                elif spread > bound / 3:
                    verdict = "wide (> bound/3)"
                print(f"   {name:24s} set {k}: median {med:.6g} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} "
                      f"bound {bound} {verdict}")
                print("      runs: " + " ".join(f"{v:.6g}" for v in vals))
            apart = abs(meds[1] - meds[0]) / meds[0]
            if apart > bound:
                print(f"   FAIL {name}: medians apart by "
                      f"{apart:.4f} > {bound}")
                ok = False
    print("steady: all checks passed" if ok else "steady: checks FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
