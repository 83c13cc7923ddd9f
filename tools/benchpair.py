"""Alternating parent/change runs of perfbench, written in one schema.

Run from the root of a checkout:

    python3 tools/benchpair.py --parent HEAD --workloads conserve nogo \
        --pairs 10 --seconds 8 --out BENCH_11.json

The parent tree is extracted with `git archive <rev>` into a temporary
directory; the change tree is the checkout itself.  Both run the command
that BENCHMARK.json declares (perfbench/run.py with its thread and
hash-seed settings), each pair on its own seed, and the order within a
pair alternates (pair 0 runs the parent first, pair 1 the change)
so that drift of the machine lands on both sides.  Only the last line of
each run's standard output is read; it is perfbench's JSON result.

The output holds every run and, per workload and metric, the quartiles of
both sides, the ratio of the medians (change / parent) and the number of
pairs in which the change is better.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """The committed files of rev, without a worktree or any network."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: Path, command, workload: str, seed: int, seconds: float) -> dict:
    argv = list(command) + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"benchpair: {workload} seed {seed} in {tree} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values) -> list:
    if len(values) < 2:
        return list(values) * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def summarize(pairs, better: dict) -> dict:
    """Per metric: both sides' quartiles, the median ratio and how many pairs
    the change wins (lower, or higher where the metric is better higher)."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        out[name] = {
            "parent_quartiles": quartiles(parent),
            "change_quartiles": quartiles(change),
            "ratio": statistics.median(change) / statistics.median(parent),
            "change_better_in_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--first-seed", type=int, default=11)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    report = {
        "schema": "benchpair/1",
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "command": bench["command"],
        "seconds": args.seconds,
        "machine": {"cpus": os.cpu_count(), "platform": platform.platform(), "python": sys.version.split()[0]},
        "parent": {"rev": args.parent, "sha": git("rev-parse", args.parent)},
        "change": {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="benchpair-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        extract(args.parent, trees["parent"])
        for workload in args.workloads:
            pairs = []
            for k in range(args.pairs):
                seed = args.first_seed + k
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "order": list(order)}
                for side in order:
                    pair[side] = run_once(trees[side], bench["command"], workload, seed, args.seconds)
                    wall = pair[side]["metrics"].get("wall_s")
                    print(f"{workload} seed {seed} {side}: wall_s {wall}", file=sys.stderr)
                pairs.append(pair)
            report["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs, better)}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for workload, entry in report["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{workload:10s} {name:12s} parent {s['parent_quartiles'][1]:.4g} change "
                  f"{s['change_quartiles'][1]:.4g} ratio {s['ratio']:.3f} "
                  f"better in {s['change_better_in_pairs']}/{s['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
