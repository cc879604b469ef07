"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload extract --seeds 101-110 --sets 2

Runs `run.py` once per seed, one run at a time, and for each
end-to-end metric prints the median over the seeds and the distance
between the first and third quartile as a share of that median, next
to the metric's bound from BENCHMARK.json.  With several sets, every
set after the first also reports how far its median moved in the
worse direction.  Exits 1 if a run fails or a spread (other than
set-up time) exceeds its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="101-110", type=parse_seeds)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)

    sets = []
    for k in range(args.sets):
        runs = []
        for seed in args.seeds:
            runs.append(one_run(args.workload, seed, spec["run_seconds"]))
            print(f"set {k} seed {seed}: "
                  + " ".join(f"{m}={v:.6g}" for m, v in runs[-1].items()),
                  flush=True)
        sets.append(runs)

    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        first = None
        for k, runs in enumerate(sets):
            values = [r[name] for r in runs]
            mid = statistics.median(values)
            spread = quartile_spread(values) if len(values) > 1 else 0.0
            line = (f"{args.workload:14s} {name:14s} set {k}: median "
                    f"{mid:.6g} spread {spread:.4f} (bound {bound}, "
                    f"target < {bound / 3:.4f})")
            if first is None:
                first = mid
            else:
                line += f" worse by {sign * (mid - first) / first:+.4f}"
            print(line)
            if name != "setup_s" and spread > bound:
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
