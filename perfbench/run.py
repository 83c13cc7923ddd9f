"""Benchmark of spinflip: exact engines, theorem checks, kinetic MC and the
symbolic expansion.

Run from the root of a checkout:

    python3 perfbench/run.py --workload conserve --seed 1 --seconds 15 --trace 0

Timed passes of the workload's fixed operations repeat until `--seconds`
have passed (at least three); between passes the workload is set up again,
and the median set-up time is reported as `setup_s`.  The outputs of the
first and the last pass are checked against computations made apart from
the program.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (`setup_s`, `wall_s`,
`cpu_s`, `peak_rss_mb`).  With `--trace 1` untraced and traced passes
alternate; the metrics are the per-layer ones from the traced passes and
set-ups, plus `trace.overhead`, the median ratio of a traced pass to the
untraced pass before it.  The spans are written to `perfbench/runs/`.  Progress and any failed check
go to standard error.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_PASSES = 3
SETUP_MIN_SAMPLES = 5
SETUP_BATCH_SECONDS = 0.02


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_package():
    """Import spinflip from this checkout's `src`, and nowhere else."""
    if not (SRC / "spinflip" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no spinflip sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    start = time.perf_counter()
    import spinflip

    elapsed = time.perf_counter() - start
    if not Path(spinflip.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported spinflip from {spinflip.__file__}, not {SRC}")
    return elapsed


class Run:
    """Set-up samples, pass outputs, timings and operation counts.

    The inputs of the first set-up feed every pass.  More set-up samples
    are taken between passes, so that `setup_s` and `wall_s` are sampled
    over the same stretch of time.  A set-up sample is the mean of a batch
    of set-ups lasting at least SETUP_BATCH_SECONDS (one set-up when that
    alone takes longer).  Garbage is collected before every batch and after
    every pass, outside the timed regions, so that inputs left over from an
    earlier set-up never add to the next one's peak memory.

    With a tracer, every set-up and every second pass run traced; the other
    passes run untraced, each just before a traced one, and their ratio
    gives the tracing overhead.
    """

    def __init__(self, workload, seed, seconds, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.setup_times = []
        self.outputs = []
        self.walls = []
        self.cpus = []
        self.traced_walls = []
        self.attempted = 0
        self.failed = 0
        self.inputs = self._setup_batch()
        ops = workload.operations(self.inputs)
        start = time.perf_counter()
        while len(self.walls) < MIN_PASSES or time.perf_counter() - start < seconds:
            self._pass(ops, traced=False)
            if tracer:
                self._pass(ops, traced=True)
            self._setup_batch()
        while len(self.setup_times) < SETUP_MIN_SAMPLES:
            self._setup_batch()

    @contextlib.contextmanager
    def _traced(self, on=True):
        """Install the tracer's wrappers for the duration of the block."""
        if self.tracer is None or not on:
            yield
            return
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()

    def _phase(self, name, on=True):
        return self.tracer.phase(name) if self.tracer and on else contextlib.nullcontext()

    def _setup_batch(self):
        gc.collect()
        count, inputs = 0, None
        with self._traced():
            start = time.perf_counter()
            while count == 0 or time.perf_counter() - start < SETUP_BATCH_SECONDS:
                inputs = None
                with self._phase("setup"):
                    inputs = self.workload.setup(self.seed)
                count += 1
            self.setup_times.append((time.perf_counter() - start) / count)
        return inputs

    def _pass(self, ops, traced):
        result = {}
        with self._traced(traced), self._phase("pass", traced):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            for label, fn in ops:
                self.attempted += 1
                try:
                    result[label] = fn()
                except Exception as exc:  # an operation that raises counts as failed
                    self.failed += 1
                    result[label] = exc
                    log(f"operation {label} failed: {exc!r}")
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if traced:
            self.traced_walls.append(wall)
        else:
            self.walls.append(wall)
            self.cpus.append(cpu)
        # Only the first and the latest pass's outputs are kept for the
        # checks, so peak memory does not grow with the number of passes.
        self.outputs[1:] = [result]
        gc.collect()

    def overhead(self):
        """Median ratio of each traced pass to the untraced pass before it."""
        return statistics.median(t / u for t, u in zip(self.traced_walls, self.walls))


def check_outputs(workload, inputs, outputs, workloads):
    """Check every operation of the kept passes that returned.  One that
    raised is already counted in `failed`; its output is reported as not
    checked."""
    expected = workload.expected(inputs)
    checks = workloads.Checks()
    for k, result in enumerate(outputs):
        returned = {label: v for label, v in result.items() if not isinstance(v, Exception)}
        for label in result.keys() - returned.keys():
            log(f"pass {k}: operation {label} raised, output not checked")
        try:
            workload.check(inputs, returned, expected, checks)
        except Exception as exc:  # a malformed output must fail the run, not crash it
            checks.true(f"pass {k} output could not be checked", False, repr(exc))
    for line in dict.fromkeys(checks.failures):
        log("CHECK FAILED:", line)
    return not checks.failures


def quartiles(values):
    if len(values) < 2:
        return values * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    threads = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    log(f"workload {args.workload} seed {args.seed}: import spinflip {import_s:.3f} s, threads {threads}")

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    run = Run(workload, args.seed, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log(f"set-up x{len(run.setup_times)} quartiles {quartiles(run.setup_times)}")
    log(f"passes x{len(run.walls)} wall quartiles {quartiles(run.walls)} cpu quartiles {quartiles(run.cpus)}")
    correct = check_outputs(workload, run.inputs, run.outputs, workloads)
    if tracer:
        log(f"traced passes x{len(run.traced_walls)} wall quartiles {quartiles(run.traced_walls)}; overhead {run.overhead():.4f}")
        tracer.dump(HERE / "runs" / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = tracer.layer_metrics(run.overhead())
    else:
        metrics = {
            "setup_s": {"value": statistics.median(run.setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(run.walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(run.cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
