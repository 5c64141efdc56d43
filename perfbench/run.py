"""Benchmark of pixel and spectrum solves through the library's public API.

    python3 perfbench/run.py --workload hsi-diff-l1 --seed 1 --seconds 56 --trace 0

Runs one workload in this process, with one solver thread and one BLAS
thread.  Inputs come from ``--seed`` (see workloads.py).  The run repeats
whole rounds of the workload's operations (every pixel solve, or every
spectrum) for about ``--seconds`` seconds, checks every output, and
prints as its last line one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics, the end-to-end ones with ``--trace 0`` and
the per-layer ones with ``--trace 1``.  A traced run also writes its
spans to ``perfbench/results/spans-<workload>.npz``.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from threadpin import pin_one_thread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
sys.path.insert(0, str(ROOT / "src"))

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 5


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None, metavar="T0",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args):
    """Child of a timed run: import, prepare, and report when the first solve could start.

    ``T0`` is the parent's monotonic clock just before it started this
    interpreter.  Prints the seconds from then to the end of preparation,
    less the time spent generating the benchmark's own inputs.
    """
    from workloads import WORKLOADS

    t_gen = time.monotonic()
    work = WORKLOADS[args.workload](args.seed)
    gen = time.monotonic() - t_gen
    work.prepare()
    print(json.dumps({"setup_s": time.monotonic() - args.setup_probe - gen}))


def measure_setup(args):
    """Median over fresh interpreters of process start to first solve (setup_s)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    values = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run(cmd + [repr(t0)], capture_output=True, text=True, check=True,
                             timeout=120)
        values.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(values)


def run_rounds(work, seconds):
    """Whole rounds until another would pass ``seconds``; at least one.

    Returns the seconds of each library call per round, each round's
    (start, end), the outputs of the last round, and counts of attempted,
    failed and check-failed operations.
    """
    calls, windows = [], []
    attempted = failed = bad = 0
    began = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        x, raised, call_seconds = work.solve()
        windows.append((t0, time.perf_counter()))
        calls.append(call_seconds)
        for p in range(work.n_ops):
            attempted += 1
            if p in raised:
                failed += 1
            elif not work.check(x, p):
                failed += 1
                bad += 1
                print(f"operation {p}: output check failed", file=sys.stderr)
        elapsed = time.perf_counter() - began
        if elapsed + elapsed / len(calls) > seconds:
            return calls, windows, x, attempted, failed, bad


def solves_per_s(n_ops, calls):
    """Operations per second over every round of the run.

    On a shared host the machine's speed drifts: the same 156-pixel
    diff_p2 round, repeated for four minutes, took 6.9-11.4 s, with the
    speed of successive calls correlated over about 10 s.  A run of
    several such stretches averages that drift in its total time; over
    four and six rounds that spread less than each call's median over
    the rounds (see README.md).
    """
    return n_ops * len(calls) / sum(map(sum, calls))


def main(argv=None):
    pin_one_thread()
    args = parse_args(argv)
    if args.setup_probe is not None:
        setup_probe(args)
        return 0

    from workloads import WORKLOADS

    work = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            work.prepare()
            calls, windows, x, attempted, failed, bad = run_rounds(work, args.seconds)
    else:
        work.prepare()
        calls, windows, x, attempted, failed, bad = run_rounds(work, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = bad == 0
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, attempted, windows)
        RESULTS_DIR.mkdir(exist_ok=True)
        tracer.save(RESULTS_DIR / f"spans-{args.workload}.npz")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        quality = work.quality(x)
        metrics = {
            "solves_per_s": {"value": solves_per_s(work.n_ops, calls), "unit": "1/s"},
            "setup_s": {"value": measure_setup(args), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "coef_err": {"value": quality["coef_err"], "unit": "relative"},
            "signal_err": {"value": quality["signal_err"], "unit": "relative"},
            "atoms_hit": {"value": quality["atoms_hit"], "unit": "count"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
