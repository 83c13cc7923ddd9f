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
both sides, the ratio of the medians (change / parent), the median of the
change / parent ratios within pairs, the number of pairs in which the
change is better and a verdict against the bounds of
BENCHMARK.json (see `summarize`); `--claim workload/metric` names a
metric the change claims to improve.  Runs that are not correct, or fail
more operations than their pair, are flagged.  The exit code is 1 when a
claim is not met, a metric is worse or unresolved, or a run is flagged.
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


def summarize(pairs, spec: dict, claims=()) -> tuple:
    """(summary, flags) of one workload's pairs.

    summary holds per metric both sides' quartiles, the ratio of their
    medians, the median of the change / parent ratios within pairs
    (`pair_ratio`, which drift of the machine between pairs moves less),
    how many pairs the change wins (lower, or higher where spec says better
    "higher") and a verdict:
      * a metric named in claims is "met" when the change wins at least 9
        in 10 pairs and its median beats the parent's by more than the
        parent's interquartile range, else "not met";
      * another metric with a bound in spec is "unresolved" when the
        parent's interquartile range is wider than bound x its median,
        unless every change run beats every parent run ("ok"), "worse"
        when the change's median is past the parent's by more than that
        fraction, else "ok";
      * a metric with no bound has verdict None.
    flags names every run that is not correct or fails more operations
    than the other run of its pair."""
    summary = {}
    for name in pairs[0]["parent"]["metrics"]:
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = -1.0 if spec.get(name, {}).get("better", "lower") == "higher" else 1.0
        pq, cq = quartiles(parent), quartiles(change)
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        bound = spec.get(name, {}).get("bound")
        if name in claims:
            verdict = "met" if 10 * wins >= 9 * len(pairs) and sign * (pq[1] - cq[1]) > pq[2] - pq[0] else "not met"
        elif bound is None:
            verdict = None
        elif pq[2] - pq[0] > bound * abs(pq[1]):
            verdict = "ok" if max(sign * c for c in change) < min(sign * p for p in parent) else "unresolved"
        elif sign * (cq[1] - pq[1]) > bound * abs(pq[1]):
            verdict = "worse"
        else:
            verdict = "ok"
        summary[name] = {
            "parent_quartiles": pq,
            "change_quartiles": cq,
            "ratio": cq[1] / pq[1],
            "pair_ratio": statistics.median(c / p for p, c in zip(parent, change)),
            "change_better_in_pairs": wins,
            "pairs": len(pairs),
            "verdict": verdict,
        }
    flags = []
    for pair in pairs:
        for side, other in (SIDES, SIDES[::-1]):
            run = pair[side]
            if not run["correct"]:
                flags.append(f"seed {pair['seed']} {side}: correct false")
            if run["failed"] > pair[other]["failed"]:
                flags.append(f"seed {pair['seed']} {side}: {run['failed']} failed operations, {pair[other]['failed']} in its pair")
    return summary, flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--first-seed", type=int, default=11)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD/METRIC",
                        help="a metric the change claims to improve (repeatable)")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"]}
    claims = {}
    for claim in args.claim:
        workload, _, metric = claim.partition("/")
        if workload not in args.workloads or metric not in spec:
            parser.error(f"--claim {claim}: need <one of --workloads>/<an end-to-end metric of BENCHMARK.json>")
        claims.setdefault(workload, set()).add(metric)
    report = {
        "schema": "benchpair/2",
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "command": bench["command"],
        "seconds": args.seconds,
        "claims": args.claim,
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
            summary, flags = summarize(pairs, spec, claims.get(workload, ()))
            report["workloads"][workload] = {"pairs": pairs, "summary": summary, "flags": flags}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    passed = True
    for workload, entry in report["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{workload:10s} {name:12s} parent {s['parent_quartiles'][1]:.4g} change "
                  f"{s['change_quartiles'][1]:.4g} ratio {s['ratio']:.3f} pair ratio {s['pair_ratio']:.3f} "
                  f"better in {s['change_better_in_pairs']}/{s['pairs']}"
                  + (f"  {s['verdict']}" if s["verdict"] else ""))
            passed &= s["verdict"] in (None, "ok", "met")
        for flag in entry["flags"]:
            print(f"{workload:10s} FLAG {flag}")
        passed &= not entry["flags"]
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
