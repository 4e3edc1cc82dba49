"""Seed throwing, Laguerre cells and the stitched starting mesh."""

from __future__ import annotations

import numpy as np
import pytest

from grainflow.motion import reduced_mobility
from grainflow.protocol import parallel_increment
from grainflow.state import IdAllocator, RemeshParams, SimState
from grainflow.tessellation import (_edge_points, _snap_key, laguerre_cells,
                                    lognormal_sigma, polygon_area,
                                    sample_radii, tessellate, throw_seeds)

from .conftest import reconstructed
from .helpers import one_rank


def test_lognormal_sigma_value():
    s = lognormal_sigma()
    # round trip: the implied real-space deviation recovers the target
    u = np.exp(s * s)
    assert 0.017 * np.sqrt(u * u - u) == pytest.approx(0.006, rel=1e-12)
    assert s == pytest.approx(0.32585, rel=1e-4)


def test_sample_radii_distribution():
    rng = np.random.default_rng(42)
    r = sample_radii(rng, 20000)
    assert r.min() >= 0.011 and r.max() <= 0.04
    assert np.median(r) == pytest.approx(0.017, rel=0.02)
    # clamping trims the tails, so the spread sits a little under the target
    assert 0.004 < r.std() < 0.007


def test_throw_seeds_separation():
    rng = np.random.default_rng(7)
    centers, radii = throw_seeds(rng, 0.3, 0.3, count=60)
    assert len(centers) >= 50
    assert (centers >= 0.0).all()
    assert (centers <= 0.3).all()
    d = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
    need = 0.7 * (radii[:, None] + radii[None, :])
    np.fill_diagonal(d, np.inf)
    assert (d >= need - 1e-12).all()


def test_laguerre_cells_partition_domain():
    rng = np.random.default_rng(5)
    w = h = 0.25
    centers, radii = throw_seeds(rng, w, h, count=50)
    cells = laguerre_cells(centers, radii, w, h)
    assert len(cells) == len(centers)
    areas = np.array([polygon_area(p) for p in cells])
    assert (areas > 0.0).all()
    assert areas.sum() == pytest.approx(w * h, rel=1e-9)
    # convexity of every cell
    for poly in cells:
        n = len(poly)
        for i in range(n):
            a, b, c = poly[i], poly[(i + 1) % n], poly[(i + 2) % n]
            u = b - a
            v = c - b
            assert u[0] * v[1] - u[1] * v[0] > -1e-12


def test_edge_points_direction_independent():
    a = _snap_key((0.013, 0.002))
    b = _snap_key((0.001, 0.019))
    fwd = _edge_points(a, b, 0.004)
    rev = _edge_points(b, a, 0.004)
    assert fwd == rev[::-1]
    assert len(fwd) >= 3


def mini_mesh(seed=3, w=0.15, count=20, h=0.004):
    rng = np.random.default_rng(seed)
    mesh, centers, radii = tessellate(rng, w, w, count, h)
    return mesh, centers, radii


def test_discretize_covers_domain():
    mesh, centers, _ = mini_mesh()
    assert float(mesh.areas().sum()) == pytest.approx(0.15 * 0.15, abs=1e-9)
    assert np.all(mesh.areas() > 0.0)
    tags = {int(t) for t in mesh.surf[mesh.alive_elems()]}
    assert len(tags) == len(centers)
    edges = mesh.edge_array()
    ln = np.linalg.norm(mesh.pos[edges[:, 0]] - mesh.pos[edges[:, 1]], axis=1)
    assert ln.max() < 3.0 * 0.004


def test_mesh_reconstructs_as_grains():
    mesh, centers, _ = mini_mesh()
    mesh, graph = reconstructed(mesh)
    assert len(np.unique(mesh.surf[mesh.alive_elems()])) == len(centers)
    assert len(graph.points) >= 4


def test_tessellation_deterministic():
    m1, c1, r1 = mini_mesh(seed=11, count=12, w=0.12)
    m2, c2, r2 = mini_mesh(seed=11, count=12, w=0.12)
    assert np.array_equal(c1, c2) and np.array_equal(r1, r2)
    assert np.array_equal(m1.pos, m2.pos)
    assert np.array_equal(m1.tri[m1.alive_elems()], m2.tri[m2.alive_elems()])


def test_generated_mesh_evolves():
    mesh, _, _ = mini_mesh(seed=6, count=15, w=0.13)
    mesh, graph = reconstructed(mesh)
    state = SimState(mesh=mesh, graph=graph,
                     alloc=IdAllocator.above(mesh, graph),
                     params=RemeshParams(h=0.004))
    for _ in range(2):
        one_rank(lambda t: parallel_increment(t, state, 10.0,
                                              reduced_mobility()))
    assert np.all(mesh.areas() > 0.0)
    assert float(mesh.areas().sum()) == pytest.approx(0.13 * 0.13, abs=1e-9)
