#!/usr/bin/env python3
"""perfbench: the panagree benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 10 --trace 0

builds the benchmark program (perfbench/main.ml) with dune, generates the
workload's inputs for the seed in a separate process, runs the
measurement and relays its report: every metric by name with its unit,
the last line being one JSON object.  --trace 1 reports the per-layer
metrics instead of the end-to-end ones.  --workload all runs the three
workloads one after the other.  The exit code is non-zero if the build,
the generator or any output check fails.

  python3 perfbench/run.py --spread 5 --workload market --seconds 10

repeats a workload over seeds 1..5 and prints, for every metric, the
median and the IQR/median of the five values, marking any spread above
0.1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ["serve-zipf", "serve-intent", "market"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORK = ".perfbench_work"
RUN_LIMIT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
        timeout=880,
    )
    if r.returncode != 0 or not os.path.exists(EXE):
        log("build failed")
        sys.exit(1)


def run_once(workload, seed, seconds, trace):
    """Generate, then measure; returns (exit code, stdout of the run)."""
    start = time.monotonic()
    work = os.path.join(WORK, f"{workload}-{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        gen = subprocess.run(
            [EXE, "gen", "--workload", workload, "--seed", str(seed), "--dir", work],
            timeout=RUN_LIMIT_S,
        )
        if gen.returncode != 0:
            log(f"{workload}: input generation failed")
            return gen.returncode or 1, ""
        r = subprocess.run(
            [EXE, "run", "--workload", workload, "--dir", work,
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1, RUN_LIMIT_S - (time.monotonic() - start)),
        )
        return r.returncode, r.stdout
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def spread(workloads, seeds, seconds, trace):
    ok = True
    for w in workloads:
        values = {}
        for seed in seeds:
            code, out = run_once(w, seed, seconds, trace)
            res = result_of(out)
            if code != 0 or res is None or not res["correct"]:
                log(f"{w} seed {seed}: run failed")
                ok = False
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            log(f"{w} seed {seed}: done")
        print(f"== {w} ({len(seeds)} seeds, trace {trace})")
        print(f"{'metric':34} {'median':>16} {'iqr/median':>11}  unit")
        for name, (unit, vs) in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                rel = (q3 - q1) / med if med else 0.0
            else:
                rel = 0.0
            flag = "  UNSTEADY" if rel > 0.1 else ""
            print(f"{name:34} {med:16.6g} {rel:11.4f}  {unit}{flag}")
            print("    " + " ".join(f"{v:.6g}" for v in vs))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spread", type=int, default=0, metavar="N",
                    help="repeat over seeds 1..N and report median and IQR/median")
    args = ap.parse_args()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    build()
    if args.spread > 0:
        seeds = list(range(1, args.spread + 1))
        sys.exit(0 if spread(workloads, seeds, args.seconds, args.trace) else 1)
    failed = False
    for w in workloads:
        if len(workloads) > 1:
            print(f"== {w}", flush=True)
        code, out = run_once(w, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        sys.stdout.flush()
        res = result_of(out) if code == 0 else None
        failed = failed or res is None or not res["correct"]
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
