"""Spline and junction curvature against analytic references.

The batched spline solver is checked two ways: against scipy's spline with
the same end conditions on the same knots (route agreement) and against
closed-form circle curvature (discretization accuracy, with the expected
fourth-order shrink on refinement).  A chain must get the same bits alone
as inside any batch: co-owners of a shared node solve its window in
different batches.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from grainflow.geometry import (
    NATURAL, NOT_A_KNOT, PERIODIC, chord_params, curvature_from_derivs,
    junction_curvature, spline_curvature, spline_derivs,
)

BC_TYPE = {NATURAL: "natural", PERIODIC: "periodic", NOT_A_KNOT: "not-a-knot"}


def open_derivs(chains):
    return spline_derivs(chains, [NATURAL] * len(chains))


def open_curvature(chains):
    return spline_curvature(chains, [NATURAL] * len(chains))


def window_curvature(win, index):
    return spline_curvature([np.asarray(win)], [NOT_A_KNOT])[0][index]


def scipy_derivs(chain, end):
    """Reference derivatives from scipy's CubicSpline on the same knots."""
    pts = np.vstack([chain, chain[:1]]) if end == PERIODIC else chain
    t = chord_params(pts)
    sp = CubicSpline(t, pts, bc_type=BC_TYPE[end])
    tk = t[:len(chain)]
    return sp(tk, 1), sp(tk, 2)


def wavy_chain(rng, n):
    t = np.cumsum(rng.uniform(0.5, 2.0, n))
    c = np.column_stack([np.cos(t), np.sin(0.7 * t)])
    return c + 0.05 * rng.normal(size=(n, 2))


def wavy_loop(rng, n):
    th = np.sort(rng.uniform(0.0, 2 * np.pi, n))
    r = 1.0 + 0.2 * np.sin(3 * th) + 0.02 * rng.normal(size=n)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def circle_loop(n, R=0.1, center=(0.3, 0.4)):
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return R * np.column_stack([np.cos(th), np.sin(th)]) + center


def circle_rel_err(n):
    loop = circle_loop(n)
    kv = spline_curvature([loop], [PERIODIC])[0]
    want = -(loop - (0.3, 0.4)) / 0.1 / 0.1
    return np.linalg.norm(kv - want, axis=1).max() * 0.1


def test_open_solver_matches_scipy():
    rng = np.random.default_rng(0)
    chains = [wavy_chain(rng, int(rng.integers(3, 40))) for _ in range(40)]
    for c, (d1, d2) in zip(chains, open_derivs(chains)):
        t = chord_params(c)
        sp = CubicSpline(t, c, bc_type="natural")
        assert np.allclose(d1, sp(t, 1), atol=1e-12)
        assert np.allclose(d2, sp(t, 2), atol=1e-12)


def test_batched_equals_single():
    rng = np.random.default_rng(1)
    chains = [rng.normal(size=(n, 2)).cumsum(axis=0) for n in (3, 7, 2, 15, 1, 4)]
    batched = open_derivs(chains)
    for c, (d1, d2) in zip(chains, batched):
        (s1, s2), = open_derivs([c])
        assert np.array_equal(d1, s1)
        assert np.array_equal(d2, s2)


@pytest.mark.parametrize("end", [PERIODIC, NOT_A_KNOT])
def test_periodic_and_not_a_knot_match_scipy(end):
    rng = np.random.default_rng(5)
    # three not-a-knot knots: scipy fits one parabola, and so must the solver
    sizes = range(3, 40) if end == PERIODIC else range(2, 9)
    chains = [(wavy_loop if end == PERIODIC else wavy_chain)(rng, n)
              for n in sizes for _ in range(3)]
    got = spline_derivs(chains, [end] * len(chains))
    for c, (d1, d2) in zip(chains, got):
        r1, r2 = scipy_derivs(c, end)
        assert np.allclose(d1, r1, rtol=0, atol=1e-10)
        assert np.allclose(d2, r2, rtol=0, atol=1e-10 * np.abs(r2).max())
        k, kref = curvature_from_derivs(d1, d2), curvature_from_derivs(r1, r2)
        assert np.abs(k - kref).max() <= 1e-10 * np.abs(kref).max()


def random_chain(seed, end, n):
    rng = np.random.default_rng(seed)
    if end == PERIODIC:
        return wavy_loop(rng, n)
    return rng.normal(size=(n, 2)).cumsum(axis=0)


chain_spec = st.tuples(st.integers(0, 2 ** 32 - 1),
                       st.sampled_from([NATURAL, PERIODIC, NOT_A_KNOT]),
                       st.integers(1, 12)).map(
    lambda t: (t[0], t[1], max(t[2], 3) if t[1] == PERIODIC else t[2]))


@settings(max_examples=80, deadline=None)
@given(chain_spec, st.lists(chain_spec, max_size=6), st.integers(0, 6))
def test_chain_bits_independent_of_batch(spec, others, at):
    chains = [random_chain(*o) for o in others]
    ends = [o[1] for o in others]
    at = min(at, len(chains))
    c = random_chain(*spec)
    chains.insert(at, c)
    ends.insert(at, spec[1])
    (a1, a2), = spline_derivs([c], [spec[1]])
    b1, b2 = spline_derivs(chains, ends)[at]
    assert np.array_equal(a1, b1) and np.array_equal(a2, b2)


@pytest.mark.parametrize("end", [NATURAL, PERIODIC, NOT_A_KNOT])
def test_zero_length_chord_raises(end):
    c = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.2, 0.9]])
    with pytest.raises(ValueError, match="strictly increasing"):
        spline_derivs([circle_loop(8), c], [PERIODIC, end])


def test_closed_circle_accuracy_and_convergence():
    e16, e32, e64 = circle_rel_err(16), circle_rel_err(32), circle_rel_err(64)
    assert e16 < 0.015
    assert e64 < 1e-3
    # fourth-order knot convergence shows as roughly 4x shrink per doubling
    assert e16 / e32 > 3.0
    assert e32 / e64 > 3.0


def test_straight_chain_zero_curvature():
    c = np.column_stack([np.linspace(0, 1, 9), np.full(9, 0.25)])
    kv = open_curvature([c])[0]
    assert np.all(kv == 0.0)
    d1, d2 = open_derivs([c])[0]
    assert np.allclose(np.linalg.norm(d1, axis=1), 1.0, atol=1e-12)


def test_two_knot_chain_is_linear():
    c = np.array([[0.0, 0.0], [3.0, 4.0]])
    (d1, d2), = open_derivs([c])
    assert np.allclose(d1, [[0.6, 0.8], [0.6, 0.8]])
    assert np.all(d2 == 0.0)


def test_parabola_vertex():
    x = np.linspace(-0.05, 0.05, 11)
    kv = open_curvature([np.column_stack([x, x ** 2])])[0]
    assert kv[5] == pytest.approx([0.0, 2.0], abs=0.01)


def test_orientation_invariance():
    rng = np.random.default_rng(2)
    c = rng.normal(size=(12, 2)).cumsum(axis=0)
    kv = open_curvature([c])[0]
    kv_rev = open_curvature([c[::-1].copy()])[0]
    assert np.allclose(kv, kv_rev[::-1], atol=1e-12)


def test_window_curvature_accuracy():
    R, h = 0.1, 0.004
    th = (h / R) * np.arange(-2, 3)
    win = R * np.column_stack([np.cos(th), np.sin(th)])
    k = window_curvature(win, 2)
    assert np.linalg.norm(k - (-1 / R, 0.0)) * R < 1e-3
    # asymmetric window, still evaluated at the true node
    k4 = window_curvature(win[:4], 2)
    assert np.linalg.norm(k4 - (-1 / R, 0.0)) * R < 5e-3


def test_window_bitwise_reproducible():
    rng = np.random.default_rng(3)
    win = rng.normal(size=(5, 2)).cumsum(axis=0)
    a = window_curvature(win, 2)
    b = window_curvature(win.copy(), 2)
    assert np.array_equal(a, b)


def test_window_too_short_returns_zero():
    assert np.all(window_curvature(np.array([[0.0, 0.0], [1.0, 0.0]]), 0) == 0.0)


def test_junction_right_angle_arms():
    k = junction_curvature(np.zeros(2),
                           [(5, (1.0, 0.0)), (2, (-1.0, 0.0)), (9, (0.0, 1.0))])
    assert k == pytest.approx([0.0, 2.0 / 3.0], abs=1e-15)


def test_junction_equilibrium_is_zero():
    ang = np.deg2rad([90.0, 210.0, 330.0])
    arms = [(i, (np.cos(a), np.sin(a))) for i, a in enumerate(ang)]
    k = junction_curvature(np.zeros(2), arms)
    assert np.linalg.norm(k) < 1e-15


def test_junction_scales_inversely_with_arm_length():
    arms1 = [(0, (1.0, 0.0)), (1, (-1.0, 0.0)), (2, (0.0, 1.0))]
    arms2 = [(i, (2 * x, 2 * y)) for i, (x, y) in arms1]
    k1 = junction_curvature(np.zeros(2), arms1)
    k2 = junction_curvature(np.zeros(2), arms2)
    assert np.allclose(k2, k1 / 2, atol=1e-15)


def test_junction_order_invariant_bitwise():
    rng = np.random.default_rng(4)
    arms = [(int(i), tuple(rng.normal(size=2))) for i in rng.permutation(20)]
    a = junction_curvature(np.zeros(2), arms)
    b = junction_curvature(np.zeros(2), arms[::-1])
    assert np.array_equal(a, b)


def test_curvature_from_derivs_unit_circle_exact():
    th = np.array([0.0, np.pi / 3, np.pi / 2])
    d1 = np.column_stack([-np.sin(th), np.cos(th)])
    d2 = np.column_stack([-np.cos(th), -np.sin(th)])
    kv = curvature_from_derivs(d1, d2)
    assert np.allclose(kv, d2, atol=1e-15)   # unit circle: kn points inward
