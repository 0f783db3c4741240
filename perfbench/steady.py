"""Steadiness self-check: run the suite repeatedly on the same code.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Runs `perfbench/run.py` once per seed (seeds first-seed .. first-seed+runs-1)
for each workload, one process after another, and prints for every
end-to-end metric its median and its spread: the distance between the first
and third quartile (statistics.quantiles with n=4) as a share of the median.
A metric whose spread exceeds its bound in BENCHMARK.json is marked
UNRESOLVED: a change smaller than its spread cannot be told from noise.
The exit status is 1 when any metric, setup_s included, is UNRESOLVED.
It also prints how many operations failed in the whole set; a second set on
the same seeds must give the same count, as a run does a fixed number of
cycles.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", help="default: every workload")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    unresolved = 0
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        correct, attempted, failed = True, 0, 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(spec, workload, seed)
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"# {workload} seed {seed}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}", flush=True)
        print(f"{workload}: {args.runs} runs, all correct: {correct}, "
              f"{failed} of {attempted} operations failed")
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            s = spread(vals)
            verdict = "ok" if s <= metric["bound"] else "UNRESOLVED"
            if verdict != "ok":
                unresolved += 1
            print(f"  {metric['name']:>16} median {statistics.median(vals):12.6g} {metric['unit']:<5}"
                  f" spread {s:7.2%}  bound {metric['bound']:.0%}  {verdict}", flush=True)
    return 1 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
