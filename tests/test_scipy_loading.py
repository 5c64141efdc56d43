"""Which paths load SciPy, each checked in a fresh interpreter.

Problem 2's active set needs numpy alone, so importing the pipelines and
solving a scene or spectrum by diff_p2, or a scene by the penalized l1
baseline, leaves SciPy unloaded.  The paths that use it load it on their
first call and still run: problem 1's free blocks and the l1 path
(LAPACK), the nnls baseline (``scipy.optimize``) and the DOAS background
operator (``scipy.fft``).
"""

import os
import subprocess
import sys
from pathlib import Path

import ssnnls

SRC = str(Path(ssnnls.__file__).parents[1])

SETUP = """
import sys
import numpy as np
from ssnnls import doas, hsi
from ssnnls.baselines import l1_bregman, nnls
from ssnnls.core import SparsityConfig
loaded = [name for name in sys.modules if name.split('.')[0] == 'scipy']
assert not loaded, loaded
library, scales = hsi.synthesize_endmember_library(40, (3, 3, 2), seed=2)
scene = hsi.synthesize_mixed_scene(library, scales, (3, 2), noise_sd=0.005, seed=5)
cfg = SparsityConfig(gamma=np.full(3, 1e-4), gamma0=0.01, eps=np.full(3, 0.01), r=1.0)
wl = doas.wavelength_grid(256)
ddict = doas.build_deformation_dictionary(doas.synthesize_references(wl),
                                          doas.DeformationGrid.desk_grid(), wl)
x, _ = doas.sample_planted_coeffs(ddict, seed=0)
data = doas.synthesize_doas_data(ddict, x, noise_sd=1e-3, seed=1)
weights = SparsityConfig(gamma=np.full(3, 1e-3), gamma0=0.0, eps=np.full(3, 1e-3), r=1.0)
"""


def _run(body):
    """The last line ``body`` prints, run after SETUP in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", SETUP + body], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


def test_problem2_and_penalized_l1_never_load_scipy():
    body = """
p2 = hsi.demix_scene(scene, cfg, solver="diff_p2")
l1 = hsi.demix_scene(scene, cfg, solver="l1", l1_gamma=0.1)
fit = doas.fit_doas(data, ddict, doas.DoasFitConfig(weights, solver="diff_p2", alpha=0.0))
assert not p2.failed_pixels and not l1.failed_pixels
assert np.all(np.isfinite(fit.coeffs.x)) and fit.coeffs.x.max() > 0
print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))
"""
    assert _run(body) == "[]"


def test_the_paths_that_use_scipy_load_it_and_run():
    body = """
p1 = hsi.demix_scene(scene, cfg, solver="hoyer_p1")
assert not p1.failed_pixels and p1.values.max() > 0
b = library.entries @ np.abs(np.random.default_rng(0).normal(size=8))
assert l1_bregman(library, b, 0.1 * np.linalg.norm(b)).max() > 0
assert nnls(library.entries, b).max() > 0
fit = doas.fit_doas(data, ddict, doas.DoasFitConfig(weights, solver="diff_p2", alpha=1e-5))
assert np.all(np.isfinite(fit.background)) and fit.coeffs.x.max() > 0
print('scipy.linalg.lapack' in sys.modules, 'scipy.optimize' in sys.modules,
      'scipy.fft' in sys.modules)
"""
    assert _run(body) == "True True True"
