#!/usr/bin/env python3
"""Record sets of benchmark runs and compare them.

    python3 perfbench/compare.py record --out A.jsonl [--workloads W,...] [--seeds 1-10]
    python3 perfbench/compare.py report A.jsonl [B.jsonl]

`record` runs the benchmark's command once per workload and seed, untraced
and for BENCHMARK.json's run_seconds, and appends each result line to the
file. `report` prints, per workload and metric, each set's median and
quartiles and its spread (quartile distance over median). Given one set it
flags every end-to-end spread above the metric's bound in BENCHMARK.json.
Given two it flags a metric only when B's median is worse than A's by more
than the bound, and any difference in the share of failed operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record(args):
    b = bench()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in b["workloads"]]
    for w in workloads:
        for s in seeds(args.seeds):
            cmd = b["command"] + ["--workload", w, "--seed", str(s),
                                  "--seconds", str(b["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if p.returncode != 0:
                sys.exit("compare.py: %s seed %d exited with %d" % (w, s, p.returncode))
            result = json.loads(p.stdout.strip().splitlines()[-1])
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": w, "seed": s, "result": result}) + "\n")
            print("%s seed %d: attempted %d failed %d" % (w, s, result["attempted"], result["failed"]),
                  file=sys.stderr)


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            runs.setdefault(r["workload"], []).append(r["result"])
    return runs


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def failed_share(results):
    return sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)


def report(args):
    b = bench()
    metrics = {m["name"]: m for m in b["end_to_end"] + b["per_layer"]}
    sets = [load(p) for p in args.sets]
    flagged = 0
    for w in [w["name"] for w in b["workloads"]]:
        if not all(w in s for s in sets):
            continue
        print("== %s (%s runs)" % (w, " vs ".join(str(len(s[w])) for s in sets)))
        shares = [failed_share(s[w]) for s in sets]
        print("   failed share: %s%s" % (" vs ".join("%.6f" % x for x in shares),
                                         "  <-- differs" if len(set(shares)) > 1 else ""))
        flagged += len(set(shares)) > 1
        names = [n for n in metrics if n in sets[0][w][0]["metrics"]]
        for n in names:
            m = metrics[n]
            cols = [stats([r["metrics"][n]["value"] for r in s[w]]) for s in sets]
            bound = m.get("bound")
            cells = "   ".join("med %12.5g  q1 %12.5g  q3 %12.5g  spread %6.3f" % c for c in cols)
            note = ""
            if bound is not None and len(sets) == 1 and cols[0][3] > bound:
                note = "  <-- spread above bound %.3f" % bound
            if bound is not None and len(sets) == 2 and cols[0][0]:
                change = (cols[1][0] - cols[0][0]) / cols[0][0]
                worse = change if m["better"] == "lower" else -change
                cells += "   change %+.3f" % change
                if worse > bound:
                    note = "  <-- worse by more than bound %.3f" % bound
            flagged += bool(note)
            print("   %-34s %s%s" % (n, cells, note))
    sys.exit(1 if flagged else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("record")
    r.add_argument("--out", required=True)
    r.add_argument("--workloads")
    r.add_argument("--seeds", default="1-10")
    p = sub.add_parser("report")
    p.add_argument("sets", nargs="+")
    args = ap.parse_args()
    record(args) if args.cmd == "record" else report(args)


if __name__ == "__main__":
    main()
