import numpy as np
import pytest

from ssnnls.penalties import diff_l1_l2_groups, hoyer_ratio_groups

from oracles import diff, fd_gradient, hoyer


def _diff(x, eps):
    """The smoothed l1 - l2 penalty of x as one group, as the inter-group term takes it."""
    return diff_l1_l2_groups(x, np.array([0, x.size]), np.array([eps]), np.ones(1))


def _hoyer(x, d=0.0):
    """The Hoyer ratio of (x, d) as one group; with d = 0, that of x alone."""
    return hoyer_ratio_groups(x, np.array([d]), np.array([0, x.size]), np.ones(1))


# the smoothed l2 norm (Huber) is what diff_l1_l2_groups subtracts from sum(x)

def test_huber_inside_region_is_scaled_squared_norm():
    x = np.array([0.03, 0.01, 0.02])
    eps = 0.1
    value, grad = _diff(x, eps)
    assert value == pytest.approx(x.sum() - float(x @ x) / (2 * eps), rel=1e-14)
    np.testing.assert_allclose(grad, 1.0 - x / eps, rtol=1e-14)


def test_huber_outside_region_is_shifted_norm():
    x = np.array([3.0, 4.0])
    eps = 0.5
    value, grad = _diff(x, eps)
    assert value == pytest.approx(7.0 - (5.0 - 0.25), rel=1e-14)
    np.testing.assert_allclose(grad, 1.0 - x / 5.0, rtol=1e-14)


def test_huber_continuous_across_the_boundary():
    eps = 0.2
    direction = np.array([0.6, 0.8])
    lo, lo_grad = _diff(direction * (eps - 1e-9), eps)
    hi, hi_grad = _diff(direction * (eps + 1e-9), eps)
    assert abs(lo - hi) < 1e-8
    assert np.max(np.abs(lo_grad - hi_grad)) < 1e-7
    at = _diff(direction * eps, eps)[0]
    assert at == pytest.approx(1.4 * eps - eps / 2, rel=1e-14)


def test_hoyer_ratio_known_values():
    assert _hoyer(np.array([0.0, 2.5, 0.0]))[0] == pytest.approx(1.0)
    n = 7
    assert _hoyer(np.full(n, 0.3))[0] == pytest.approx(np.sqrt(n))
    assert _hoyer(np.full(n - 1, 0.3), 0.3)[0] == pytest.approx(np.sqrt(n))


def test_hoyer_ratio_gradient_formula():
    x = np.array([0.4, 1.2, 0.1, 0.7])
    grad = _hoyer(x)[1]
    nrm = np.linalg.norm(x)
    expected = 1.0 / nrm - (np.sum(x) / nrm ** 3) * x
    np.testing.assert_allclose(grad[:-1], expected, rtol=1e-13)
    # a zero dummy's gradient is the one of an extra zero entry
    assert grad[-1] == pytest.approx(1.0 / nrm, rel=1e-13)


def test_hoyer_ratio_rejects_bad_inputs():
    with pytest.raises(ValueError, match="non-negative"):
        _hoyer(np.array([0.5, -0.1]))
    with pytest.raises(ValueError, match="zero vector"):
        _hoyer(np.zeros(3))


def test_diff_l1_l2_defined_at_origin():
    value, grad = _diff(np.zeros(4), 0.1)
    assert value == 0.0
    np.testing.assert_allclose(grad, np.ones(4))


def test_diff_l1_l2_far_from_origin():
    x = np.array([1.0, 2.0, 2.0])
    eps = 0.05
    value, grad = _diff(x, eps)
    assert value == pytest.approx(5.0 - 3.0 + eps / 2, rel=1e-13)
    np.testing.assert_allclose(grad, 1.0 - x / 3.0, rtol=1e-13)


@pytest.mark.parametrize("seed", range(4))
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.2, 1.5, 6)
    # a radius outside |x| and one inside it; the ratio of x, then of (x[:-1], dummy)
    for fn in (lambda z: _diff(z, 0.3), lambda z: _diff(z, 10.0), _hoyer,
               lambda z: _hoyer(z[:-1], z[-1])):
        grad = fn(x)[1][:x.size]
        fd = fd_gradient(lambda z: fn(z)[0], x)
        assert np.max(np.abs(grad - fd)) < 1e-7 * max(1.0, np.max(np.abs(grad)))


def test_group_sums_match_the_per_group_penalties():
    # groups inside and outside their smoothing ball, one of them zero
    offsets = np.array([0, 3, 4, 8])
    x = np.array([0.01, 0.0, 0.02, 0.0, 1.0, 0.2, 0.0, 0.5])
    eps, weights = np.array([0.05, 0.1, 0.3]), np.array([0.3, 0.7, 0.2])
    d = np.array([0.0, 0.4, 0.1])
    pv, pv_grad = diff_l1_l2_groups(x, offsets, eps, weights)
    ph, ph_grad = hoyer_ratio_groups(x, d, offsets, weights)
    value, grad, h_value, h_grad_x, h_grad_d = 0.0, np.zeros(8), 0.0, np.zeros(8), np.zeros(3)
    for j in range(3):
        sl = slice(offsets[j], offsets[j + 1])
        one, g = diff(x[sl], eps[j])
        value += weights[j] * one
        grad[sl] = weights[j] * g
        one, g = hoyer(np.append(x[sl], d[j]))
        h_value += weights[j] * one
        h_grad_x[sl], h_grad_d[j] = weights[j] * g[:-1], weights[j] * g[-1]
    assert pv == pytest.approx(value, rel=1e-14)
    np.testing.assert_allclose(pv_grad, grad, rtol=1e-14, atol=1e-15)
    assert ph == pytest.approx(h_value, rel=1e-14)
    np.testing.assert_allclose(ph_grad, np.concatenate([h_grad_x, h_grad_d]), rtol=1e-13,
                               atol=1e-13)


@pytest.mark.parametrize("scale", [0.01, 1.0])
def test_whole_vector_term_from_the_group_sums_equals_the_one_group_call(scale):
    # inside (scale 0.01) and outside (1.0) the whole vector's ball, for a
    # vector and for a block of vectors, one per row
    rng = np.random.default_rng(5)
    offsets = np.array([0, 3, 4, 8])
    eps, weights = np.array([0.05, 0.1, 0.3]), np.array([0.3, 0.7, 0.2])
    block = scale * np.where(rng.uniform(size=(4, 8)) < 0.5, rng.uniform(size=(4, 8)), 0.0)
    whole = np.array([0, 8])
    for x in (block[0], block):
        value, grad = diff_l1_l2_groups(x, offsets, eps, weights, 0.4, 0.05)
        groups, g_groups = diff_l1_l2_groups(x, offsets, eps, weights)
        one, g_one = diff_l1_l2_groups(x, whole, np.array([0.05]), np.array([0.4]))
        np.testing.assert_allclose(value, groups + one, rtol=1e-14)
        np.testing.assert_allclose(grad, g_groups + g_one, rtol=1e-14, atol=1e-15)


def test_group_sums_reject_negative_constrained_entries():
    offsets = np.array([0, 2, 4])
    x = np.array([0.5, -0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="non-negative"):
        diff_l1_l2_groups(x, offsets, np.full(2, 0.1), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="non-negative"):
        hoyer_ratio_groups(x, np.ones(2), offsets, np.zeros(2))
    with pytest.raises(ValueError, match="non-negative"):
        hoyer_ratio_groups(np.abs(x), np.array([0.1, -0.1]), offsets, np.ones(2))
    with pytest.raises(ValueError, match="zero vector"):
        hoyer_ratio_groups(np.array([0.0, 0.0, 0.2, 0.3]), np.zeros(2), offsets, np.ones(2))


def test_diff_groups_reject_a_negative_entry_in_a_weightless_group():
    # no solver hands over a sign-free block: a negative entry is an error whatever its weight
    x = np.array([0.5, -0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="non-negative"):
        diff_l1_l2_groups(x, np.array([0, 2, 4]), np.full(2, 0.1), np.array([0.0, 1.0]))
