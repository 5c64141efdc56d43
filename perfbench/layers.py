"""The traced run of every workload: per-layer metrics, layer split, tracing cost.

    python3 perfbench/layers.py --seed 1 --seconds 15

For each workload this runs ``run.py`` twice in fresh interpreters, once
untraced and once with ``--trace 1`` (which writes
``perfbench/results/spans-<workload>.npz``), then prints every per-layer
metric, the self time of each span name as a share of the traced solve
phase, and the tracing overhead: the traced solve phase per operation
against the untraced one.  The summary is also written to
``perfbench/results/layers.json``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
WORKLOADS = ("hsi-diff-l1", "doas-align")
SETUP_SPAN = "doas.build_deformation_dictionary"


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=56)
    args = parser.parse_args()

    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    from tracing import load_totals

    summary = {}
    for w in WORKLOADS:
        plain = run(w, args.seed, args.seconds, 0)
        traced = run(w, args.seed, args.seconds, 1)
        totals = load_totals(RESULTS_DIR / f"spans-{w}.npz")
        n_ops = traced["attempted"]
        solve_s = sum(t[2] for name, t in totals.items() if name != SETUP_SPAN)
        split = {name: t[2] / solve_s for name, t in sorted(totals.items())
                 if t[0] and name != SETUP_SPAN}
        untraced_per_op = 1.0 / plain["metrics"]["solves_per_s"]["value"]
        summary[w] = {
            "layers": {k: v["value"] for k, v in traced["metrics"].items()},
            "units": {k: v["unit"] for k, v in traced["metrics"].items()},
            "self_share": split,
            "untraced_s_per_op": untraced_per_op,
            "traced_s_per_op": solve_s / n_ops,
            "correct": plain["correct"] and traced["correct"],
            "failed": plain["failed"] + traced["failed"],
        }

    units = summary[WORKLOADS[0]]["units"]
    print(f"{'per-layer metric':38s}" + "".join(f"{w:>17s}" for w in WORKLOADS))
    for k in units:
        print(f"{k + ' [' + units[k] + ']':38s}"
              + "".join(f"{summary[w]['layers'][k]:17.6g}" for w in WORKLOADS))
    print("\nself time, share of the traced solve phase")
    for w in WORKLOADS:
        parts = ", ".join(f"{n} {s:.1%}" for n, s in
                          sorted(summary[w]["self_share"].items(), key=lambda t: -t[1]))
        print(f"  {w}: {parts}")
    print("\ntracing overhead (solve phase per operation)")
    for w in WORKLOADS:
        s = summary[w]
        print(f"  {w}: untraced {s['untraced_s_per_op']:.4g} s, traced "
              f"{s['traced_s_per_op']:.4g} s, "
              f"{s['traced_s_per_op'] / s['untraced_s_per_op'] - 1:+.1%}; "
              f"correct {s['correct']}, failed {s['failed']}")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "layers.json").write_text(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
