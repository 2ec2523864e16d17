#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. It builds perfbench/main.exe with dune,
generates the workload's inputs and reference answers for the seed in a
separate process (perfbench/_work/), then measures the program over them
for about S seconds. With --trace 1 it runs half the time untraced and half
traced, writes the spans to perfbench/_work/trace-W-N.jsonl, and reports the
per-layer metrics and the tracing overhead instead of the end-to-end ones.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("spam_session", "tpch_adaptive", "server_ingest")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
DEADLINE_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        sys.exit("run.py: no dune-project next to perfbench/: the program's sources are missing")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "./perfbench/main.exe"],
        cwd=ROOT, stdout=subprocess.DEVNULL)
    if build.returncode != 0:
        sys.exit("run.py: building perfbench/main.exe failed")

    work = os.path.join(ROOT, "perfbench", "_work")
    inputs = os.path.join(work, "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", inputs]
    # server_ingest hands every request between client threads, connection
    # threads and a worker domain. Kept on one CPU, those hand-offs wake no
    # idle vCPU, which on a shared 2-vCPU virtual machine made its timings
    # 2-3 times steadier (and 4-14% faster). The other workloads run one
    # thread.
    cpu = min(os.sched_getaffinity(0))
    pin = (lambda: os.sched_setaffinity(0, {cpu})) if args.workload == "server_ingest" else None
    try:
        subprocess.run([EXE, "gen"] + common, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=DEADLINE_S)
        left = DEADLINE_S - (time.monotonic() - started)
        out = subprocess.run(
            [EXE, "run"] + common
            + ["--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-out", os.path.join(work, "trace-%s-%d.jsonl" % (args.workload, args.seed))],
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True, timeout=left,
            preexec_fn=pin)
    except subprocess.CalledProcessError as e:
        sys.exit("run.py: %s exited with %d" % (e.cmd[1], e.returncode))
    except subprocess.TimeoutExpired as e:
        sys.exit("run.py: %s did not finish in time" % e.cmd[1])
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    sys.stdout.write(out.stdout)


if __name__ == "__main__":
    main()
