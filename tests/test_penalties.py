import numpy as np
import pytest

from ssnnls.penalties import (diff_l1_l2, diff_l1_l2_groups, hoyer_ratio, hoyer_ratio_groups,
                              huber)

from oracles import fd_gradient


def test_huber_inside_region_is_scaled_squared_norm():
    x = np.array([0.03, -0.01, 0.02])
    eps = 0.1
    out = huber(x, eps)
    nrm2 = float(x @ x)
    assert out.value == pytest.approx(nrm2 / (2 * eps), rel=1e-14)
    np.testing.assert_allclose(out.grad, x / eps, rtol=1e-14)


def test_huber_outside_region_is_shifted_norm():
    x = np.array([3.0, -4.0])
    eps = 0.5
    out = huber(x, eps)
    assert out.value == pytest.approx(5.0 - 0.25, rel=1e-14)
    np.testing.assert_allclose(out.grad, x / 5.0, rtol=1e-14)


def test_huber_continuous_across_the_boundary():
    eps = 0.2
    direction = np.array([0.6, 0.8])
    lo = huber(direction * (eps - 1e-9), eps)
    hi = huber(direction * (eps + 1e-9), eps)
    assert abs(lo.value - hi.value) < 1e-8
    assert np.max(np.abs(lo.grad - hi.grad)) < 1e-7
    at = huber(direction * eps, eps)
    assert at.value == pytest.approx(eps / 2, rel=1e-14)


def test_huber_requires_positive_eps():
    with pytest.raises(ValueError):
        huber(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        huber(np.array([1.0]), -0.1)


def test_hoyer_ratio_known_values():
    assert hoyer_ratio(np.array([0.0, 2.5, 0.0])).value == pytest.approx(1.0)
    n = 7
    assert hoyer_ratio(np.full(n, 0.3)).value == pytest.approx(np.sqrt(n))


def test_hoyer_ratio_gradient_formula():
    x = np.array([0.4, 1.2, 0.1, 0.7])
    out = hoyer_ratio(x)
    nrm = np.linalg.norm(x)
    expected = 1.0 / nrm - (np.sum(x) / nrm ** 3) * x
    np.testing.assert_allclose(out.grad, expected, rtol=1e-13)


def test_hoyer_ratio_rejects_bad_inputs():
    with pytest.raises(ValueError):
        hoyer_ratio(np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        hoyer_ratio(np.zeros(3))
    with pytest.raises(ValueError):
        hoyer_ratio(np.array([]))
    with pytest.raises(ValueError):
        hoyer_ratio(np.ones((2, 2)))


def test_diff_l1_l2_defined_at_origin():
    out = diff_l1_l2(np.zeros(4), 0.1)
    assert out.value == 0.0
    np.testing.assert_allclose(out.grad, np.ones(4))


def test_diff_l1_l2_far_from_origin():
    x = np.array([1.0, 2.0, 2.0])
    eps = 0.05
    out = diff_l1_l2(x, eps)
    assert out.value == pytest.approx(5.0 - 3.0 + eps / 2, rel=1e-13)
    np.testing.assert_allclose(out.grad, 1.0 - x / 3.0, rtol=1e-13)


@pytest.mark.parametrize("seed", range(4))
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.2, 1.5, 6)
    eps = 0.3
    for fn in (lambda z: huber(z, eps), hoyer_ratio, lambda z: diff_l1_l2(z, eps)):
        grad = fn(x).grad
        fd = fd_gradient(lambda z: fn(z).value, x)
        assert np.max(np.abs(grad - fd)) < 1e-7 * max(1.0, np.max(np.abs(grad)))


def test_group_sums_match_the_per_group_penalties():
    # groups inside and outside their smoothing ball, one of them zero
    offsets = np.array([0, 3, 4, 8])
    x = np.array([0.01, 0.0, 0.02, 0.0, 1.0, 0.2, 0.0, 0.5])
    eps, weights = np.array([0.05, 0.1, 0.3]), np.array([0.3, 0.7, 0.2])
    d = np.array([0.0, 0.4, 0.1])
    pv, ph = diff_l1_l2_groups(x, offsets, eps, weights), hoyer_ratio_groups(x, d, offsets, weights)
    value, grad, h_value, h_grad_x, h_grad_d = 0.0, np.zeros(8), 0.0, np.zeros(8), np.zeros(3)
    for j in range(3):
        sl = slice(offsets[j], offsets[j + 1])
        one = diff_l1_l2(x[sl], eps[j])
        value += weights[j] * one.value
        grad[sl] = weights[j] * one.grad
        one = hoyer_ratio(np.append(x[sl], d[j]))
        h_value += weights[j] * one.value
        h_grad_x[sl], h_grad_d[j] = weights[j] * one.grad[:-1], weights[j] * one.grad[-1]
    assert pv.value == pytest.approx(value, rel=1e-14)
    np.testing.assert_allclose(pv.grad, grad, rtol=1e-14, atol=1e-15)
    assert ph.value == pytest.approx(h_value, rel=1e-14)
    np.testing.assert_allclose(ph.grad, np.concatenate([h_grad_x, h_grad_d]), rtol=1e-13,
                               atol=1e-13)


def test_group_sums_reject_negative_constrained_entries():
    offsets = np.array([0, 2, 4])
    x = np.array([0.5, -0.1, 0.2, 0.3])
    # a weightless group's sign is not the penalty's concern
    assert diff_l1_l2_groups(x, offsets, np.full(2, 0.1), np.array([0.0, 1.0])).grad[:2] == \
        pytest.approx([0.0, 0.0])
    with pytest.raises(ValueError, match="non-negative"):
        diff_l1_l2_groups(x, offsets, np.full(2, 0.1), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="non-negative"):
        hoyer_ratio_groups(x, np.ones(2), offsets, np.zeros(2))
    with pytest.raises(ValueError, match="non-negative"):
        hoyer_ratio_groups(np.abs(x), np.array([0.1, -0.1]), offsets, np.ones(2))
    with pytest.raises(ValueError, match="zero vector"):
        hoyer_ratio_groups(np.array([0.0, 0.0, 0.2, 0.3]), np.zeros(2), offsets, np.ones(2))
