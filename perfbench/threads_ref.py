"""Reference timings of one hsi-diff-l1 input under other thread settings.

    python3 perfbench/threads_ref.py --seed 1

Solves the same hsi-diff-l1 round once in each of three fresh interpreters:
one solver thread with BLAS pinned to one thread (the benchmark's
setting), two solver threads with BLAS pinned, and one solver thread
with BLAS left at its default thread count.  Prints the solve seconds of
each and whether the outputs equal the first one's.  These figures are
for reference only; none is a benchmark metric.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

from threadpin import pin_one_thread

SETTINGS = (("threads=1, BLAS 1 thread", 1, True),
            ("threads=2, BLAS 1 thread", 2, True),
            ("threads=1, BLAS default", 1, False))


def child(seed, threads):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from workloads import WORKLOADS

    work = WORKLOADS["hsi-diff-l1"](seed)
    work.prepare()
    x, failed, calls = work.solve(threads=threads)
    seconds = sum(calls)
    print(json.dumps({"seconds": seconds, "failed": len(failed),
                      "digest": hashlib.sha256(x.tobytes()).hexdigest()}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child-threads", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--pin", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child_threads is not None:
        if args.pin:
            pin_one_thread()
        child(args.seed, args.child_threads)
        return 0
    first = None
    for label, threads, pin in SETTINGS:
        out = subprocess.run([sys.executable, __file__, "--seed", str(args.seed),
                              "--child-threads", str(threads), "--pin", str(int(pin))],
                             capture_output=True, text=True, check=True, timeout=600)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        first = first or res["digest"]
        print(f"{label:26s} {res['seconds']:8.3f} s  failed {res['failed']}  "
              f"same output: {res['digest'] == first}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
