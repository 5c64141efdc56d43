"""Sparsity penalties and their gradients, summed over contiguous groups.

Two families are provided, both evaluated on non-negative vectors (the
models constrain coefficients to the orthant, so the l1 norm is the plain
sum and differentiable):

* ``diff_l1_l2_groups``: the smoothed difference ``||v||_1 - huber(v, eps)``,
  huber being the smoothed l2 norm, of each group v,
* ``hoyer_ratio_groups``: the scale-invariant ratio ``||v||_1 / ||v||_2`` of
  each group v stacked with its dummy.

Each takes the group offsets and weights, evaluates every group at once
with ``np.add.reduceat`` and returns a ``(value, grad)`` pair.
``diff_l1_l2_groups`` also takes a block of vectors, one per row, and
then returns one value per row.
Penalties are unscaled beyond those weights.  A penalty over the whole
vector, such as problem 1's inter-group term, is the one-group call with
offsets ``[0, n]``; problem 2's inter-group term is formed inside
``diff_l1_l2_groups`` from the sums its groups already take.
"""

from typing import Tuple

import numpy as np


def _huber(sq: np.ndarray, eps) -> Tuple[np.ndarray, np.ndarray]:
    """huber(v, eps) from |v|^2, and the radius max(|v|, eps) its gradient divides v by.

    huber(v, eps) = |v|^2 / (2 rad) + (rad - eps) / 2 with gradient v / rad:
    inside the ball and outside it at once.
    """
    rad = np.maximum(np.sqrt(sq), eps)
    return sq / (2.0 * rad) + (rad - eps) / 2.0, rad


def diff_l1_l2_groups(x: np.ndarray, offsets: np.ndarray, eps: np.ndarray,
                      weights: np.ndarray, weight0: float = 0.0,
                      eps0: float = 1.0) -> Tuple[float, np.ndarray]:
    """``sum_j weights[j] * (sum(x_j) - huber(x_j, eps[j]))`` over the groups, with its gradient.

    Group j is ``x[..., offsets[j]:offsets[j + 1]]`` and
    ``offsets[-1] == x.shape[-1]``: a vector gives a float, a block of
    vectors, one per row, a value per row and a gradient per row.
    huber(v, e) is ``|v|^2 / (2e)`` inside the ball ``|v| <= e`` and
    ``|v| - e/2`` outside it, so each term is smooth everywhere, the
    origin included (value 0, gradient of ones).  A positive ``weight0``
    adds the same term over the whole of x, with radius ``eps0``, formed
    from the groups' sums and squared norms, which cover x (problem 2's
    inter-group term).  Raises ``ValueError`` on a negative entry,
    whatever its group's weight.
    """
    starts = offsets[:-1]
    sizes = offsets[1:] - starts
    if x.min(initial=0.0) < 0.0:
        raise ValueError("penalty input must be non-negative")
    sq = np.add.reduceat(x * x, starts, axis=-1)
    total = np.add.reduceat(x, starts, axis=-1)
    hub, rad = _huber(sq, eps)
    value = (total - hub) @ weights
    grad = np.repeat(weights, sizes) - np.repeat(weights / rad, sizes, axis=-1) * x
    if weight0 > 0.0:
        hub0, rad0 = _huber(sq.sum(axis=-1, keepdims=True), eps0)
        value = value + weight0 * (total.sum(axis=-1) - hub0[..., 0])
        grad += weight0 - (weight0 / rad0) * x
    return value, grad


def hoyer_ratio_groups(x: np.ndarray, d: np.ndarray, offsets: np.ndarray,
                       weights: np.ndarray) -> Tuple[float, np.ndarray]:
    """``sum_j weights[j] * |v_j|_1 / |v_j|_2`` for ``v_j = (x_j, d_j)``, with its gradient.

    Group j stacks ``x[offsets[j]:offsets[j + 1]]`` with the dummy d[j];
    ``grad`` is the gradient in x followed by the one in d.  Each ratio
    lies in ``[1, sqrt(len(v_j))]``.  Every group must be non-negative and
    nonzero (``ValueError`` otherwise), whatever its weight.
    """
    starts = offsets[:-1]
    sizes = offsets[1:] - starts
    if x.min() < 0.0 or d.min() < 0.0:
        raise ValueError("penalty input must be non-negative")
    n2 = np.sqrt(np.add.reduceat(x * x, starts) + d * d)
    if (n2 == 0.0).any():
        raise ValueError("hoyer ratio undefined at the zero vector")
    s = np.add.reduceat(x, starts) + d
    slope = weights * s / n2 ** 3
    in_x = np.repeat(weights / n2, sizes) - np.repeat(slope, sizes) * x
    in_d = weights / n2 - slope * d
    return float(weights @ (s / n2)), np.concatenate([in_x, in_d])
