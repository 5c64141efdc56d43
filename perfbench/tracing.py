"""Spans and counts at the program's layer boundaries, recorded from outside.

The tracer wraps public functions of the layers ``hsi``, ``doas``,
``sgp``, ``qp``, ``kernels``, ``core`` and ``baselines`` by patching the
name each caller looks up (``hsi.solve_problem2``, ``kernels.admm_nonneg``
and so on), so nothing in the program changes.  Spans (name, start, end,
parent) are kept in flat arrays in memory and written when the run ends.
A span's self time is its length minus the time its child spans cover.
"""

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np
import scipy.linalg

from ssnnls import baselines, core, doas, hsi, kernels, qp, sgp
from ssnnls.errors import NonConvergenceError

_clock = time.perf_counter


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()

    def wrap(self, name, fn, on_return=None, on_error=None):
        """``fn`` recording one span per call; hooks see (args, result or error)."""
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        def recording(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(_clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = _clock()
                self.stack.pop()
                if on_error is not None:
                    on_error(args, exc)
                raise
            self.end[idx] = _clock()
            self.stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        recording.__wrapped__ = fn
        return recording

    def arrays(self):
        names = np.asarray(self.name_of, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        return names, parent, start, dur

    def totals(self):
        names, parent, _, dur = self.arrays()
        return span_totals(self.names, names, parent, dur)

    def explained(self, windows):
        """Seconds of the given (start, end) windows spent in spans below a root span.

        The root spans are the entry calls the benchmark makes
        (``demix_scene``, ``fit_doas``); what their children cover is the
        share of the solve phase the layers beneath account for.
        """
        _, parent, start, dur = self.arrays()
        child = parent >= 0
        top = np.zeros_like(child)
        top[child] = parent[parent[child]] < 0
        s, e = start[top], start[top] + dur[top]
        total = 0.0
        for w0, w1 in windows:
            total += float(np.sum(np.clip(np.minimum(e, w1) - np.maximum(s, w0), 0.0, None)))
        return total

    def save(self, path):
        names, parent, start, dur = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), name_of=names, parent=parent,
                            start=start - (start[0] if start.size else 0.0), duration=dur)


def span_totals(names, name_of, parent, duration):
    """Per span name: (calls, inclusive seconds, self seconds)."""
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
    own = duration - covered
    k = len(names)
    calls = np.bincount(name_of, minlength=k)
    incl = np.bincount(name_of, weights=duration, minlength=k)
    self_s = np.bincount(name_of, weights=own, minlength=k)
    return {str(n): (int(calls[i]), float(incl[i]), float(self_s[i]))
            for i, n in enumerate(names)}


def load_totals(path):
    """span_totals of a span file written by Tracer.save."""
    with np.load(path) as f:
        return span_totals(f["names"], f["name_of"], f["parent"], f["duration"])


def _sweeps(tracer, kernel, index):
    def on_return(args, result):
        n = args[0].shape[0]
        it = int(result[index])
        tracer.counts[f"{kernel}.sweeps"] += it
        tracer.counts["kernels.matvec_bytes"] += it * n * n * 8
    return on_return


def _patches(tracer):
    """(owner, attribute, replacement) for every traced name."""
    c = tracer.counts

    def outer_steps(args, report):
        c["sgp.outer_steps"] += report.outer_iters

    def qp_stall(args, exc):
        if isinstance(exc, NonConvergenceError):
            c["qp.stalls"] += 1

    def factorised(args, result):
        n = args[0].shape[0]
        c["qp.factorisations"] += 1
        c["qp.inverse_bytes"] += n * n * 8

    w = tracer.wrap
    out = [
        (hsi, "demix_scene", w("hsi.demix_scene", hsi.demix_scene)),
        (doas, "fit_doas", w("doas.fit_doas", doas.fit_doas)),
        (doas, "build_deformation_dictionary",
         w("doas.build_deformation_dictionary", doas.build_deformation_dictionary)),
        (hsi, "l1_penalized", w("baselines.l1_penalized", baselines.l1_penalized)),
        (qp.QpWorkspace, "kinv", w("qp.kinv", qp.QpWorkspace.kinv)),
        # qp calls scipy.linalg.cho_factor only when kinv misses its cache
        (scipy.linalg, "cho_factor", w("qp.factorise", scipy.linalg.cho_factor,
                                       on_return=factorised)),
        (kernels, "admm_nonneg", w("kernels.admm_nonneg", kernels.admm_nonneg,
                                   on_return=_sweeps(tracer, "kernels.admm_nonneg", 3))),
    ]
    for mod in (hsi, doas):
        for fn in ("solve_problem1", "solve_problem2"):
            out.append((mod, fn, w("sgp.solve", getattr(sgp, fn), on_return=outer_steps)))
    for fn in ("solve_qp_p1", "solve_qp_p2"):
        out.append((sgp, fn, w("qp.solve", getattr(qp, fn), on_error=qp_stall)))
    for fn in ("eval_objective_p1", "eval_objective_p2"):
        out.append((sgp, fn, w("core.eval_objective", getattr(core, fn))))
    return out


@contextmanager
def traced(tracer):
    """Install the tracer's wrappers; restore the original names afterwards."""
    patches = _patches(tracer)
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def span_cost(calls=20000, repeats=5):
    """Median seconds one traced call adds over a plain call of a no-op."""
    def noop():
        return None

    costs = []
    for _ in range(repeats):
        tracer = Tracer()
        fn = tracer.wrap("noop", noop)
        t0 = _clock()
        for _ in range(calls):
            noop()
        t1 = _clock()
        for _ in range(calls):
            fn()
        t2 = _clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return float(np.median(costs))


def layer_metrics(tracer, n_ops, solve_windows):
    """The per-layer metrics as (value, unit): times and counts per operation.

    An operation is one pixel or one spectrum; every wrapped name has an
    entry in ``tracer.totals()``, called or not.
    """
    tot = tracer.totals()
    c = tracer.counts

    def incl(name):
        return tot[name][1] / n_ops

    def own(name):
        return tot[name][2] / n_ops

    def calls(name):
        return tot[name][0]

    sweeps = c["kernels.admm_nonneg.sweeps"]

    dict_calls = calls("doas.build_deformation_dictionary")
    steps = c["sgp.outer_steps"]
    n_spans = len(tracer.start)
    return {
        "hsi.demix_scene.self_s": (own("hsi.demix_scene"), "s"),
        "doas.build_deformation_dictionary.s": (
            tot["doas.build_deformation_dictionary"][1] / dict_calls if dict_calls else 0.0,
            "s"),
        "doas.fit_doas.self_s": (own("doas.fit_doas"), "s"),
        "sgp.solve.self_s": (own("sgp.solve"), "s"),
        "sgp.outer_steps": (steps / n_ops, "count"),
        "sgp.qp_solves_per_step": (calls("qp.solve") / steps if steps else 0.0,
                                   "ratio"),
        "qp.solve.self_s": (own("qp.solve"), "s"),
        "qp.sweeps": (sweeps / n_ops, "count"),
        "qp.stalls": (c["qp.stalls"] / n_ops, "count"),
        "qp.kinv.s": (incl("qp.kinv"), "s"),
        "qp.factorisations": (c["qp.factorisations"] / n_ops, "count"),
        "qp.inverse_mb_computed": (c["qp.inverse_bytes"] / 1e6 / n_ops, "MB"),
        "kernels.admm_nonneg.s": (incl("kernels.admm_nonneg"), "s"),
        "kernels.admm_nonneg.us_per_sweep": (
            1e6 * tot["kernels.admm_nonneg"][1] / sweeps if sweeps else 0.0, "us"),
        "kernels.matvec_gb_computed": (c["kernels.matvec_bytes"] / 1e9 / n_ops, "GB"),
        "core.eval_objective.s": (incl("core.eval_objective"), "s"),
        "core.eval_objective.calls": (calls("core.eval_objective") / n_ops, "count"),
        "baselines.l1_penalized.s": (incl("baselines.l1_penalized"), "s"),
        "trace.coverage": (tracer.explained(solve_windows)
                           / sum(e - s for s, e in solve_windows), "ratio"),
        "trace.overhead_s": (n_spans * span_cost() / n_ops, "s"),
    }
