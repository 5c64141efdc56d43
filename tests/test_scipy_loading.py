"""The library runs on numpy alone, each path checked in a fresh interpreter.

SciPy is a test dependency only: the oracles use it, the library does
not.  Each check starts an interpreter in which ``import scipy`` fails,
then runs every hyperspectral and DOAS solver (the DOAS ones without and
with a background), the constrained l1 path, and the command line on
each experiment at desk scale, which must exit as it does with SciPy
installed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ssnnls
from ssnnls.cli import EXPERIMENTS

SRC = str(Path(ssnnls.__file__).parents[1])

# any import of scipy raises ImportError from here on
SETUP = """
import sys
sys.modules["scipy"] = None
import numpy as np
"""


def _run(body):
    """The completed interpreter that ran SETUP and then ``body``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", SETUP + body], env=env, capture_output=True,
                           text=True, timeout=300)


def test_every_solver_runs_without_scipy():
    body = """
from ssnnls import doas, hsi
from ssnnls.baselines import l1_bregman
from ssnnls.core import SparsityConfig
library, scales = hsi.synthesize_endmember_library(40, (3, 3, 2), seed=2)
scene = hsi.synthesize_mixed_scene(library, scales, (3, 2), noise_sd=0.005, seed=5)
cfg = SparsityConfig(gamma=np.full(3, 1e-4), gamma0=0.01, eps=np.full(3, 0.01), r=1.0)
for solver in hsi.HSI_SOLVERS:
    out = hsi.demix_scene(scene, cfg, solver=solver, l1_gamma=0.1)
    assert not out.failed_pixels and out.values.max() > 0, solver
b = library.entries @ np.abs(np.random.default_rng(0).normal(size=8))
assert l1_bregman(library, b, 0.1 * np.linalg.norm(b)).max() > 0
wl = doas.wavelength_grid(256)
ddict = doas.build_deformation_dictionary(doas.synthesize_references(wl),
                                          doas.DeformationGrid.desk_grid(), wl)
x, _ = doas.sample_planted_coeffs(ddict, seed=0)
data = doas.synthesize_doas_data(ddict, x, noise_sd=1e-3, seed=1)
weights = SparsityConfig(gamma=np.full(3, 1e-3), gamma0=0.0, eps=np.full(3, 1e-3), r=1.0)
for alpha in (0.0, 1e-5):
    for solver in doas.DOAS_SOLVERS:
        if solver == "lstsq" and alpha == 0.0:
            continue  # the background's oracle: it needs a background
        fit = doas.fit_doas(data, ddict, doas.DoasFitConfig(
            weights, solver=solver, alpha=alpha, l1_tau=0.03))
        assert np.all(np.isfinite(fit.coeffs.x)), (solver, alpha)
        assert solver == "lstsq" or fit.coeffs.x.max() > 0, (solver, alpha)
        assert (fit.background is None) == (alpha == 0.0), (solver, alpha)
        assert alpha == 0.0 or np.all(np.isfinite(fit.background)), (solver, alpha)
print("ran")
"""
    out = _run(body)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ran"]


# desk doas-align and doas-background exit 3: the l1 radius lies below
# the NNLS residual there, so no non-negative point reaches it
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_experiment_runs_without_scipy(experiment):
    out = _run(f"""
from ssnnls import cli
sys.exit(cli.main(["--experiment", "{experiment}", "--scale", "4"]))
""")
    want = 3 if experiment.startswith("doas") else 0
    assert out.returncode == want, out.stderr
    if want:
        failures = [line for line in out.stderr.splitlines() if "exceeds tau" in line]
        assert len(failures) == 1 and ": l1: NNLS residual" in failures[0], out.stderr
