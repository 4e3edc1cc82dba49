"""Curvature of boundary lines and junctions.

Lines are sampled by their node chains; a cubic spline through the chain,
parametrized by cumulative chord length, supplies the first and second
derivatives from which the curvature vector follows.  Open chains use natural
end conditions, closed loops periodic ones, and the short windows around
partition-shared nodes not-a-knot ones (natural ends would press the second
derivative to zero only two knots from the evaluation point).  The returned
vector is orientation-invariant and points from the knot toward the local
center of curvature, with magnitude 1/radius.

Junctions get no spline.  Their curvature vector is built from the unit
vectors along the adjacent boundary edges,

    kn = 2 * sum(e_j / |e_j|) / sum(|e_j|),

which drives the junction toward the configuration where the arms balance.
Arms are summed in ascending neighbor id order so every owner of a shared
junction accumulates in the same order and lands on bit-identical floats.

All spline systems of one evaluation, whatever their end conditions, are
assembled into one block-diagonal banded matrix and solved in a single
``solve_banded`` call.  The blocks do not couple, so each chain's result is
the same to the last bit in any batch, which is what lets the owners of a
shared node, each solving its own batch, agree on the node's curvature."""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded


def chord_params(pts: np.ndarray) -> np.ndarray:
    """Cumulative chord length of a polyline, starting at zero."""
    d = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(d)])


def curvature_from_derivs(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Curvature vectors from per-knot first and second derivatives.

    kn = (x'y'' - y'x'') / (x'^2 + y'^2)^2 * (-y', x'); the two sign flips
    under reversed traversal cancel, so the result is independent of the
    direction the chain was walked.
    """
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    speed2 = d1[:, 0] ** 2 + d1[:, 1] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(speed2 > 0, cross / speed2 ** 2, 0.0)
    out = np.empty_like(d1)
    out[:, 0] = -f * d1[:, 1]
    out[:, 1] = f * d1[:, 0]
    return out


NATURAL, PERIODIC, NOT_A_KNOT = 0, 1, 2


def spline_derivs(chains: list[np.ndarray], ends):
    """Spline derivatives at the knots of many chains, in one banded solve.

    ``ends[i]`` picks the end conditions of ``chains[i]``: ``NATURAL``,
    ``PERIODIC`` (a closed loop listing each knot once) or ``NOT_A_KNOT``.
    Each chain is one tridiagonal block of knot moments with no coupling to
    its neighbours, so a chain gets the same bits in any batch.  A periodic
    block leaves its wrap-around corner out of the band and adds it back by
    Sherman-Morrison, solved as a third right-hand-side column.  Not-a-knot
    conditions are folded into the end rows; with three knots they make one
    parabola.  Chains of one or two knots are linear.  Knots must be
    strictly increasing in chord length.  Returns one (d1, d2) pair per
    chain, each shaped like its chain.
    """
    total = sum(len(c) for c in chains)
    ab = np.zeros((3, total))
    rhs = np.zeros((total, 3))
    blocks = []
    s = 0
    for c, end in zip(chains, ends):
        n = len(c)
        pts = np.vstack([c, c[:1]]) if end == PERIODIC else c
        h = np.diff(chord_params(pts))
        if not np.all(h > 0.0):
            raise ValueError("spline knots must be strictly increasing "
                             "in chord length")
        slope = np.diff(pts, axis=0) / h[:, None]
        di, up, lo, r = np.ones(n), np.zeros(n - 1), np.zeros(n - 1), rhs[s:s + n]
        v = None
        if end == PERIODIC:
            di = (np.roll(h, 1) + h) / 3.0
            up = lo = h[:-1] / 6.0
            r[:, :2] = slope - np.roll(slope, 1, axis=0)
            corner, gamma = h[-1] / 6.0, -di[0]
            di[0] -= gamma
            di[-1] -= corner * corner / gamma
            r[0, 2], r[-1, 2], v = gamma, corner, corner / gamma
        elif n >= 3:
            di[1:-1] = (h[:-1] + h[1:]) / 3.0
            lo[:-1] = h[:-1] / 6.0
            up[1:] = h[1:] / 6.0
            r[1:-1, :2] = slope[1:] - slope[:-1]
            if end == NOT_A_KNOT and n == 3:
                up[0] = lo[-1] = -1.0   # equal moments
            elif end == NOT_A_KNOT:
                # a continuous third derivative at the second knot, with the
                # third moment eliminated through row 1 (mirrored at the end)
                a, b, p, q = h[0], h[1], h[-1], h[-2]
                di[0], up[0], r[0] = a - b, 2 * a + b, 6 * a * r[1] / (a + b)
                di[-1], lo[-1], r[-1] = p - q, 2 * p + q, 6 * p * r[-2] / (p + q)
        ab[1, s:s + n] = di
        ab[0, s + 1:s + n] = up
        ab[2, s:s + n - 1] = lo
        blocks.append((s, n, v, h, slope))
        s += n
    m = solve_banded((1, 1), ab, rhs)
    out = []
    for s, n, v, h, slope in blocks:
        d2, z = m[s:s + n, :2], m[s:s + n, 2]
        if v is not None:
            d2 = d2 - (d2[0] + v * d2[-1]) / (1.0 + z[0] + v * z[-1]) * z[:, None]
        if n < 2:
            out.append((np.zeros_like(d2), d2))
            continue
        m2 = np.vstack([d2, d2[:1]]) if v is not None else d2
        d1 = slope - h[:, None] * (2 * m2[:-1] + m2[1:]) / 6.0
        if v is None:
            d1 = np.vstack([d1, slope[-1] + h[-1] * (2 * d2[-1] + d2[-2]) / 6.0])
        out.append((d1, d2))
    return out


def spline_curvature(chains: list[np.ndarray], ends) -> list[np.ndarray]:
    """Curvature vectors at the knots of many chains (see spline_derivs)."""
    return [curvature_from_derivs(d1, d2)
            for d1, d2 in spline_derivs(chains, ends)]


def junction_curvature(center: np.ndarray, arms) -> np.ndarray:
    """Curvature vector of a junction from its adjacent boundary edges.

    ``arms`` yields (neighbor_id, position) pairs; they are sorted by id
    before accumulating so concurrent owners agree exactly.
    """
    total = 0.0
    acc = np.zeros(2)
    for _, p in sorted(arms, key=lambda a: a[0]):
        e = np.asarray(p, dtype=np.float64) - center
        norm = float(np.hypot(e[0], e[1]))
        if norm == 0.0:
            continue
        acc += e / norm
        total += norm
    if total == 0.0:
        return np.zeros(2)
    return 2.0 * acc / total
