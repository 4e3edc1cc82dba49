"""Curvature velocities, junction decomposition and time stepping."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import Delaunay

from grainflow.entities import KIND_LINE, lnodes_by_line, recanonicalize_lines
from grainflow.geometry import junction_curvature
from grainflow.mesh import (BND_CORNER, BND_NONE, BND_TANGENT_X, LNODE, PNODE,
                            SNODE, build_mesh)
from grainflow.motion import (constrain_to_walls, decompose_junctions,
                              junction_arms, reduced_mobility)
from grainflow.protocol import (complete_temporary_nodes,
                                node_velocities_parallel, parallel_increment,
                                parallel_move)
from grainflow.state import IdAllocator, RemeshParams, SimState

from .conftest import grid_mesh, reconstructed
from .helpers import one_rank


def make_state(mesh, graph, h):
    alloc = IdAllocator.above(mesh, graph)
    return SimState(mesh=mesh, graph=graph, alloc=alloc,
                    params=RemeshParams(h=h))


def total_area(mesh):
    return float(mesh.areas().sum())


def velocities(mesh, graph, mobility):
    members = lnodes_by_line(mesh)
    return one_rank(lambda t: node_velocities_parallel(
        mesh, graph, mobility,
        complete_temporary_nodes(t, mesh, graph, members), members))


def increment(state, dt, mobility=None):
    return one_rank(lambda t: parallel_increment(t, state, dt, mobility))


def test_reduced_mobility_reference_value():
    assert reduced_mobility() == pytest.approx(8.251662025679015e-07,
                                               rel=1e-12)
    # slower at lower temperature
    assert reduced_mobility(temperature=1200.0) < reduced_mobility()


def disk_island(r=0.3, n_ring=16):
    """A circular grain of radius r embedded in a square [-1, 1] matrix."""
    th = 2.0 * np.pi * np.arange(n_ring) / n_ring
    ring = np.column_stack([r * np.cos(th), r * np.sin(th)])
    xs = np.linspace(-1.0, 1.0, 5)
    gx, gy = np.meshgrid(xs, xs)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    grid = grid[np.hypot(grid[:, 0], grid[:, 1]) > r + 0.05]
    pts = np.vstack([[[0.0, 0.0]], ring, grid])
    dela = Delaunay(pts)
    nodes = [(i, x, y) for i, (x, y) in enumerate(pts)]
    elems = []
    for eid, tri in enumerate(dela.simplices):
        c = pts[tri].mean(axis=0)
        tag = 0 if np.hypot(c[0], c[1]) < r else 1
        elems.append((eid, tuple(int(v) for v in tri), tag))
    return reconstructed(build_mesh(nodes, elems))


def test_disk_island_reconstructs_one_loop():
    mesh, graph = disk_island()
    assert len(graph.points) == 4  # the domain corners only
    loops = [lid for lid, m in lnodes_by_line(mesh).items() if len(m) == 16]
    assert len(loops) == 1
    assert len(graph.surfaces) == 2


def test_velocity_shrinks_circular_grain():
    r = 0.3
    mesh, graph = disk_island(r=r, n_ring=16)
    m = reduced_mobility()
    vel = velocities(mesh, graph, m)
    nids = mesh.alive_nodes()
    ring = nids[(mesh.topo[nids] == LNODE) & (mesh.bnd[nids] == BND_NONE)]
    assert len(ring) == 16
    expected = m / r
    for n in ring:
        rad = mesh.pos[n] / np.linalg.norm(mesh.pos[n])
        inward = -float(vel[n] @ rad)
        assert inward == pytest.approx(expected, rel=0.03)
        # no tangential drift on a true circle
        tang = float(vel[n] @ np.array([-rad[1], rad[0]]))
        assert abs(tang) < 0.03 * expected
    # bulk nodes carry no velocity
    bulk = nids[mesh.topo[nids] == SNODE]
    assert np.all(vel[bulk] == 0.0)


def test_velocity_zero_on_straight_interface(strip_mesh):
    mesh, graph = reconstructed(strip_mesh)
    vel = velocities(mesh, graph, reduced_mobility())
    assert np.all(vel == 0.0)


def test_junction_velocity_matches_arm_formula(tjunction_mesh):
    mesh, graph = reconstructed(tjunction_mesh)
    nids = mesh.alive_nodes()
    interior = [int(n) for n in nids
                if mesh.topo[n] == PNODE and mesh.bnd[n] == BND_NONE]
    assert len(interior) == 1
    p = interior[0]
    m = reduced_mobility()
    vel = velocities(mesh, graph, m)
    arms = junction_arms(mesh, p)
    assert len(arms) == 3
    want = m * junction_curvature(mesh.pos[p], arms)
    assert np.allclose(vel[p], want, rtol=0, atol=1e-18)


def test_constrain_to_walls(strip_mesh):
    mesh, _ = reconstructed(strip_mesh)
    vel = np.ones_like(mesh.pos)
    constrain_to_walls(mesh, vel)
    nids = mesh.alive_nodes()
    for n in nids:
        if mesh.bnd[n] == BND_CORNER:
            assert np.all(vel[n] == 0.0)
        elif mesh.bnd[n] == BND_TANGENT_X:
            assert vel[n][1] == 0.0 and vel[n][0] == 1.0


def test_parallel_move_exact_and_protected():
    mesh, _ = reconstructed(grid_mesh(5, 5))
    n = np.array([14])  # interior node at (0.4, 0.4)
    one_rank(lambda t: parallel_move(t, mesh, n, np.array([[0.04, -0.02]])))
    assert np.allclose(mesh.pos[14], (0.44, 0.38), atol=1e-15)
    # a huge step backs off instead of inverting elements
    one_rank(lambda t: parallel_move(t, mesh, n, np.array([[10.0, 0.0]])))
    assert np.all(mesh.areas() > 0.0)


def quad_center_node(mesh):
    nids = mesh.alive_nodes()
    hits = [int(n) for n in nids
            if mesh.topo[n] == PNODE and mesh.bnd[n] == BND_NONE]
    assert len(hits) == 1
    return hits[0]


def test_decompose_quadruple_point(quad_mesh):
    mesh, graph = reconstructed(quad_mesh)
    p = quad_center_node(mesh)
    assert len(junction_arms(mesh, p)) == 4
    n_pts, n_lines = len(graph.points), len(graph.lines)
    area0 = total_area(mesh)
    state = make_state(mesh, graph, h=0.125)
    n = decompose_junctions(mesh, graph, state.alloc, state.params)
    assert n == 1
    assert len(graph.points) == n_pts + 1
    assert len(graph.lines) == n_lines + 1
    assert len(junction_arms(mesh, p)) == 3
    m_pid = max(graph.points)
    m_node = graph.points[m_pid].node
    assert mesh.topo[m_node] == PNODE
    assert len(junction_arms(mesh, m_node)) == 3
    # the two triple points are joined by a direct interface edge
    assert m_node in mesh.node_neighbors(p)
    assert total_area(mesh) == pytest.approx(area0, abs=1e-12)
    assert np.all(mesh.areas() > 0.0)
    # the peel distance is a fixed fraction of the spacing
    assert np.linalg.norm(mesh.pos[m_node] - mesh.pos[p]) \
        == pytest.approx(0.3 * 0.125, rel=1e-9)
    recanonicalize_lines(mesh)
    # idempotent: everything is triple now
    assert decompose_junctions(mesh, graph, state.alloc, state.params) == 0


def test_decompose_direct_line_arms():
    # every arm of this quadruple point is a junction-junction line
    mesh = grid_mesh(2, 2, tag_fn=lambda cx, cy: (0 if cx < 0.5 else 1)
                     + (0 if cy < 0.5 else 2))
    mesh, graph = reconstructed(mesh)
    p = quad_center_node(mesh)
    state = make_state(mesh, graph, h=0.5)
    assert decompose_junctions(mesh, graph, state.alloc, state.params) == 1
    assert len(junction_arms(mesh, p)) == 3
    m_pid = max(graph.points)
    m_node = graph.points[m_pid].node
    assert len(junction_arms(mesh, m_node)) == 3
    # both peeled arms reconnect to the new point in the entity graph
    conns = {lid for k, lid in graph.points[m_pid].connections
             if k == KIND_LINE}
    assert len(conns) == 3
    assert np.all(mesh.areas() > 0.0)
    assert total_area(mesh) == pytest.approx(1.0, abs=1e-12)
    recanonicalize_lines(mesh)


def test_decompose_skips_shared_junction(quad_mesh):
    mesh, graph = reconstructed(quad_mesh)
    p = quad_center_node(mesh)
    mesh.shared[p] = {1}
    state = make_state(mesh, graph, h=0.125)
    assert decompose_junctions(mesh, graph, state.alloc, state.params) == 0
    assert len(junction_arms(mesh, p)) == 4


def test_increment_keeps_straight_interface_still(strip_mesh):
    mesh, graph = reconstructed(strip_mesh)
    # h chosen so neither the grid edges nor its diagonals trigger remeshing
    state = make_state(mesh, graph, h=0.13)
    pos0 = mesh.pos.copy()
    stats = increment(state, dt=10.0)
    assert stats.collapsed == 0 and stats.split == 0 and stats.swapped == 0
    assert np.abs(mesh.pos - pos0).max() < 1e-12


def test_increment_conserves_domain_area(tjunction_mesh):
    mesh, graph = reconstructed(tjunction_mesh)
    state = make_state(mesh, graph, h=0.125)
    for _ in range(3):
        increment(state, dt=2.0e3)
    assert np.all(mesh.areas() > 0.0)
    assert total_area(mesh) == pytest.approx(1.0, abs=1e-9)


def test_circular_grain_follows_shrink_law():
    r0 = 0.3
    mesh, graph = disk_island(r=r0, n_ring=24)
    state = make_state(mesh, graph, h=0.1)
    m = reduced_mobility()
    dt = 4.2e3
    steps = 4
    for _ in range(steps):
        increment(state, dt=dt, mobility=m)
    nids = mesh.alive_nodes()
    ring = nids[(mesh.topo[nids] == LNODE) & (mesh.bnd[nids] == BND_NONE)]
    radii = np.linalg.norm(mesh.pos[ring], axis=1)
    want = np.sqrt(r0 ** 2 - 2.0 * m * steps * dt)
    assert radii.mean() == pytest.approx(want, rel=0.02)
    # still round: low radius scatter
    assert radii.std() < 0.02 * radii.mean()
    assert np.all(mesh.areas() > 0.0)
