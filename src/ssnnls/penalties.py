"""Sparsity penalties and their gradients.

Three families are provided, all evaluated on non-negative vectors (the
models constrain coefficients to the orthant, so the l1 norm is the plain
sum and differentiable):

* ``huber``: the smoothed l2 norm used to regularise ``||x||_2`` near 0,
* ``hoyer_ratio``: the scale-invariant ratio ``||x||_1 / ||x||_2``,
* ``diff_l1_l2``: the smoothed difference ``||x||_1 - huber(x, eps)``.

Each returns a ``PenaltyValue(value, grad)`` pair.  Penalties are
unscaled; callers apply their weights exactly once.  The objectives sum
the last two over contiguous groups through ``diff_l1_l2_groups`` and
``hoyer_ratio_groups``, which take the weights and evaluate every group
at once with ``np.add.reduceat`` on the group offsets.
"""

from typing import NamedTuple

import numpy as np


class PenaltyValue(NamedTuple):
    value: float
    grad: np.ndarray


def _check_nonneg(x):
    if x.ndim != 1:
        raise ValueError(f"penalty input must be 1-d, got shape {x.shape}")
    if x.size == 0:
        raise ValueError("penalty input must be non-empty")
    if np.min(x) < 0.0:
        raise ValueError("penalty input must be non-negative")


def huber(x: np.ndarray, eps: float) -> PenaltyValue:
    """Huber smoothing of the Euclidean norm.

    Value is ``||x||^2 / (2 eps)`` inside the ball ``||x|| <= eps`` and
    ``||x|| - eps/2`` outside; the gradient is continuous across the
    boundary.  Defined for any real x; requires ``eps > 0``.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    x = np.asarray(x, dtype=float)
    n2 = float(np.linalg.norm(x))
    if n2 <= eps:
        return PenaltyValue(n2 * n2 / (2.0 * eps), x / eps)
    return PenaltyValue(n2 - eps / 2.0, x / n2)


def hoyer_ratio(x: np.ndarray) -> PenaltyValue:
    """Ratio ``sum(x) / ||x||_2`` on the non-negative orthant minus the origin.

    The value lies in ``[1, sqrt(len(x))]``; gradient is
    ``1/||x|| - sum(x) * x / ||x||^3``.  Raises ``ValueError`` on negative
    entries or the zero vector, where the ratio is undefined.
    """
    x = np.asarray(x, dtype=float)
    _check_nonneg(x)
    n2 = float(np.linalg.norm(x))
    if n2 == 0.0:
        raise ValueError("hoyer ratio undefined at the zero vector")
    s = float(x.sum())
    grad = 1.0 / n2 - (s / n2**3) * x
    return PenaltyValue(s / n2, grad)


def diff_l1_l2(x: np.ndarray, eps: float) -> PenaltyValue:
    """Smoothed difference ``sum(x) - huber(x, eps)`` on the orthant.

    Smooth everywhere including the origin (value 0, gradient of ones).
    """
    x = np.asarray(x, dtype=float)
    _check_nonneg(x)
    h = huber(x, eps)
    return PenaltyValue(float(x.sum()) - h.value, 1.0 - h.grad)


def diff_l1_l2_groups(x: np.ndarray, offsets: np.ndarray, eps: np.ndarray,
                      weights: np.ndarray) -> PenaltyValue:
    """``sum_j weights[j] * diff_l1_l2(x_j, eps[j])`` over the groups, with its gradient.

    Group j is ``x[offsets[j]:offsets[j + 1]]`` and ``offsets[-1] == x.size``.
    A group of weight 0 adds nothing and may hold negative entries; any
    other raises ``ValueError`` on one.
    """
    starts, sizes = offsets[:-1], np.diff(offsets)
    if np.min(x) < 0.0 and np.any((weights != 0.0) & (np.minimum.reduceat(x, starts) < 0.0)):
        raise ValueError("penalty input must be non-negative")
    sq = np.add.reduceat(x * x, starts)
    # huber(v, eps) = |v|^2 / (2 rad) + (rad - eps) / 2 with gradient v / rad,
    # rad = max(|v|, eps): inside the ball and outside it at once
    rad = np.maximum(np.sqrt(sq), eps)
    hub = sq / (2.0 * rad) + (rad - eps) / 2.0
    value = float(weights @ (np.add.reduceat(x, starts) - hub))
    return PenaltyValue(value, np.repeat(weights, sizes) - np.repeat(weights / rad, sizes) * x)


def hoyer_ratio_groups(x: np.ndarray, d: np.ndarray, offsets: np.ndarray,
                       weights: np.ndarray) -> PenaltyValue:
    """``sum_j weights[j] * hoyer_ratio((x_j, d_j))`` over the groups, with its gradient.

    Group j stacks ``x[offsets[j]:offsets[j + 1]]`` with the dummy d[j];
    ``grad`` is the gradient in x followed by the one in d.  Every group
    must be non-negative and nonzero (``ValueError`` otherwise), whatever
    its weight.
    """
    starts, sizes = offsets[:-1], np.diff(offsets)
    if np.min(x) < 0.0 or np.min(d) < 0.0:
        raise ValueError("penalty input must be non-negative")
    n2 = np.sqrt(np.add.reduceat(x * x, starts) + d * d)
    if np.any(n2 == 0.0):
        raise ValueError("hoyer ratio undefined at the zero vector")
    s = np.add.reduceat(x, starts) + d
    slope = weights * s / n2 ** 3
    in_x = np.repeat(weights / n2, sizes) - np.repeat(slope, sizes) * x
    in_d = weights / n2 - slope * d
    return PenaltyValue(float(weights @ (s / n2)), np.concatenate([in_x, in_d]))
