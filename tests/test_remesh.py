"""Mesh maintenance operators: collapse, smooth, glide, split, swap."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from grainflow.entities import (KIND_LINE, lnodes_by_line,
                                recanonicalize_lines)
from grainflow.mesh import (BND_NONE, BND_TANGENT_X, BND_TANGENT_Y, LNODE,
                            NULL_ID, PNODE, SNODE, build_mesh)
from grainflow.remesh import (RemeshCtx, settle_offsets, collapse_sweep,
                              element_qualities, glide_line, remesh_pass,
                              smooth_bulk, split_edge, split_sweep,
                              swap_sweep, try_collapse, try_swap)
from grainflow.state import IdAllocator, RemeshParams, SimState

from .conftest import equilateral_mesh, grid_mesh, reconstructed


def make_ctx(mesh, graph, h):
    alloc = IdAllocator.above(mesh, graph)
    return RemeshCtx(mesh, graph, alloc, RemeshParams(h=h))


def make_state(mesh, graph, h):
    return SimState(mesh, graph, IdAllocator.above(mesh, graph),
                    RemeshParams(h=h))


def assert_ctx_counts(ctx):
    lm = {lid: len(v) for lid, v in lnodes_by_line(ctx.mesh).items()}
    assert ctx.line_count == lm
    sc = Counter(int(s) for s in ctx.mesh.surf[ctx.mesh.alive_elems()])
    assert ctx.surf_count == dict(sc)
    assert set(ctx.graph.surfaces) == set(ctx.surf_count)


def total_area(mesh):
    return float(mesh.areas().sum())


def all_positive(mesh):
    return bool((mesh.areas() > 0).all())


# -- quality -----------------------------------------------------------------

def test_quality_equilateral():
    m = equilateral_mesh(3, 3, 0.1)
    q_shape, q = element_qualities(m, m.alive_elems(), 0.1)
    assert np.allclose(q_shape, 1.0, atol=1e-12)
    assert np.allclose(q, 1.0, atol=1e-12)


def test_quality_size_penalty():
    m = equilateral_mesh(2, 2, 0.2)
    q_shape, q = element_qualities(m, m.alive_elems(), 0.1)
    assert np.allclose(q_shape, 1.0, atol=1e-12)
    assert np.allclose(q, 0.5, atol=1e-12)


# -- collapse ----------------------------------------------------------------

def test_collapse_short_bulk_edge():
    mesh = grid_mesh(8, 8)
    mesh, graph = reconstructed(mesh)
    a, b = 30, 31  # interior horizontal neighbors
    mesh.pos[b] = mesh.pos[a] + (0.01, 0.0)
    before = mesh.n_nodes()
    area0 = total_area(mesh)
    ctx = make_ctx(mesh, graph, h=0.125)
    stats = collapse_sweep(ctx)
    assert stats.collapsed >= 1
    assert mesh.n_nodes() < before
    assert not (mesh.node_alive[a] and mesh.node_alive[b])
    assert all_positive(mesh)
    assert total_area(mesh) == pytest.approx(area0, abs=1e-12)
    assert_ctx_counts(ctx)


def test_collapse_precedence_bulk_dies_into_line(strip_mesh):
    mesh, graph = reconstructed(strip_mesh)
    lnode = 40  # (0.5, 0.5) on the interface
    snode = 41  # bulk neighbor at (0.625, 0.5)
    assert mesh.topo[lnode] == LNODE and mesh.topo[snode] == SNODE
    mesh.pos[snode] = mesh.pos[lnode] + (0.01, 0.0)
    lpos = mesh.pos[lnode].copy()
    ctx = make_ctx(mesh, graph, h=0.125)
    assert try_collapse(ctx, lnode, snode)
    assert not mesh.node_alive[snode]
    assert mesh.node_alive[lnode]
    assert np.array_equal(mesh.pos[lnode], lpos)
    assert all_positive(mesh)
    assert_ctx_counts(ctx)


def test_collapse_line_pair_midpoint(strip_mesh):
    mesh, graph = reconstructed(strip_mesh)
    a, b = 40, 49  # chain neighbors on the interface
    assert mesh.topo[a] == LNODE and mesh.topo[b] == LNODE
    n_line = len(lnodes_by_line(mesh)[int(mesh.entity[a])])
    mesh.pos[b] = mesh.pos[a] + (0.0, 0.01)
    mid = 0.5 * (mesh.pos[a] + mesh.pos[b])
    old_nxt = int(mesh.nxt[b])
    ctx = make_ctx(mesh, graph, h=0.125)
    assert try_collapse(ctx, a, b)
    assert mesh.node_alive[a] and not mesh.node_alive[b]
    assert np.array_equal(mesh.pos[a], mid)
    # chain spliced past the dead node, both directions
    assert int(mesh.nxt[a]) == old_nxt
    assert int(mesh.prv[old_nxt]) == a
    assert len(lnodes_by_line(mesh)[int(mesh.entity[a])]) == n_line - 1
    assert_ctx_counts(ctx)


def test_collapse_terminal_line_node_into_junction(strip_mesh):
    mesh, graph = reconstructed(strip_mesh)
    p, l = 4, 13  # wall junction of the interface and its first chain node
    assert mesh.topo[p] == PNODE and mesh.topo[l] == LNODE
    nxt_l = int(mesh.nxt[l])
    ppos = mesh.pos[p].copy()
    mesh.pos[l] = mesh.pos[p] + (0.0, 0.01)
    ctx = make_ctx(mesh, graph, h=0.125)
    assert try_collapse(ctx, p, l)
    assert not mesh.node_alive[l]
    assert np.array_equal(mesh.pos[p], ppos)
    assert int(mesh.prv[nxt_l]) == p
    assert_ctx_counts(ctx)


def test_collapse_skips_long_edges():
    mesh, graph = reconstructed(grid_mesh(4, 4))
    ctx = make_ctx(mesh, graph, h=0.25)
    n0 = mesh.n_nodes()
    stats = collapse_sweep(ctx)
    assert stats.collapsed == 0 and stats.killed == 0
    assert mesh.n_nodes() == n0


def test_collapse_blocked_when_dead_is_shared(strip_mesh):
    mesh, graph = reconstructed(strip_mesh)
    lnode, snode = 40, 41
    mesh.pos[snode] = mesh.pos[lnode] + (0.01, 0.0)
    mesh.shared[snode] = {1}
    ctx = make_ctx(mesh, graph, h=0.125)
    assert not try_collapse(ctx, lnode, snode)
    assert mesh.node_alive[snode]


def test_collapse_blocked_for_corner():
    mesh, graph = reconstructed(grid_mesh(4, 4))
    corner, wall = 0, 1
    mesh.pos[wall] = mesh.pos[corner] + (0.01, 0.0)
    ctx = make_ctx(mesh, graph, h=0.25)
    # the corner must survive, at its own position
    assert try_collapse(ctx, corner, wall)
    assert mesh.node_alive[corner] and not mesh.node_alive[wall]
    assert np.array_equal(mesh.pos[corner], (0.0, 0.0))
    assert_ctx_counts(ctx)


def test_collapse_blocked_wall_to_interior():
    mesh, graph = reconstructed(grid_mesh(4, 4))
    wall, interior = 2, 7  # wall L-node and the bulk node above it
    assert mesh.bnd[wall] != BND_NONE and mesh.bnd[interior] == BND_NONE
    mesh.pos[interior] = mesh.pos[wall] + (0.0, 0.01)
    ctx = make_ctx(mesh, graph, h=0.25)
    # bulk node dies into the wall node, never the other way around
    assert try_collapse(ctx, wall, interior)
    assert mesh.node_alive[wall] and not mesh.node_alive[interior]
    assert mesh.pos[wall][1] == 0.0
    assert_ctx_counts(ctx)


def _patch_mesh(node_pos, elements):
    nodes = [(i, x, y) for i, (x, y) in enumerate(node_pos)]
    elems = [(i, tri, 0) for i, tri in enumerate(elements)]
    mesh = build_mesh(nodes, elems)
    mesh.bnd[:] = BND_NONE  # isolate interior rules from wall handling
    return reconstructed(mesh)


def test_collapse_blocked_by_link_condition():
    # nodes 0 and 1 share neighbor 4 beyond the two edge apexes
    mesh, graph = _patch_mesh(
        [(0.0, 0.0), (1.0, 0.0), (0.5, 0.8), (0.5, -0.8), (0.5, 1.6)],
        [(0, 1, 2), (1, 0, 3), (0, 2, 4), (2, 1, 4)])
    ctx = make_ctx(mesh, graph, h=10.0)
    assert not try_collapse(ctx, 0, 1)
    assert mesh.n_nodes() == 5


def test_collapse_blocked_by_flip():
    # non-convex patch around node 1: merging it into node 0 drives the
    # sliver (1, 2, 3) through its far edge
    pos = [(-0.001, 0.0), (0.0, 0.0), (-0.0003, 0.01), (-0.0003, 0.004),
           (0.01, 0.0), (0.0, -0.01)]
    elems = [(1, 4, 2), (1, 2, 3), (1, 3, 0), (1, 0, 5), (1, 5, 4)]
    mesh, graph = _patch_mesh(pos, elems)
    ctx = make_ctx(mesh, graph, h=0.004)
    assert not try_collapse(ctx, 0, 1)
    assert all_positive(mesh)
    # without the offending sliver the same collapse goes through
    pos2 = [p for p in pos if p != (-0.0003, 0.004)]
    elems2 = [(1, 3, 2), (1, 2, 0), (1, 0, 4), (1, 4, 3)]
    mesh2, graph2 = _patch_mesh(pos2, elems2)
    ctx2 = make_ctx(mesh2, graph2, h=0.004)
    assert try_collapse(ctx2, 0, 1)
    assert all_positive(mesh2)


def test_collapse_junction_pair_merges_lines():
    # 2x2 quadruple-point grid: every interface line joins two junctions
    # directly, so collapsing one of them is a whole-line disappearance
    mesh = grid_mesh(2, 2, tag_fn=lambda cx, cy: (0 if cx < 0.5 else 1)
                     + (0 if cy < 0.5 else 2))
    mesh, graph = reconstructed(mesh)
    center, south = 4, 1
    assert mesh.topo[center] == PNODE and mesh.topo[south] == PNODE
    pid_c = int(mesh.entity[center])
    pid_s = int(mesh.entity[south])
    n_lines = len(graph.lines)
    area0 = total_area(mesh)
    ctx = make_ctx(mesh, graph, h=1.0)
    assert try_collapse(ctx, center, south)
    assert not mesh.node_alive[center]
    assert np.array_equal(mesh.pos[south], (0.5, 0.0))
    assert pid_c not in graph.points
    assert len(graph.lines) == n_lines - 1
    # the survivor keeps its two wall lines and inherits the dead
    # junction's three other interface lines; the collapsed line is gone
    conns = {lid for k, lid in graph.points[pid_s].connections
             if k == KIND_LINE}
    assert len(conns) == 5
    assert len(graph.surfaces) == 4
    assert total_area(mesh) == pytest.approx(area0, abs=1e-12)
    assert all_positive(mesh)
    assert_ctx_counts(ctx)
    recanonicalize_lines(mesh)


def lens_mesh():
    """A one-element grain B pinched between W (above) and R (below).

    Boundary of B: the chain i0 - i1 - i2 against W and the direct
    junction-junction line (i0, i2) against R; the designated disappearance
    path is the collapse of that line.
    """
    pos = [(-0.05, 0.0), (0.0, 0.004), (0.05, 0.0),      # i0, i1, i2
           (0.0, 1.0), (-1.0, 0.5), (-1.0, -0.5),       # h0, h1, h2
           (0.0, -1.0), (1.0, -0.5), (1.0, 0.5)]        # h3, h4, h5
    B, W, R = 0, 1, 2
    elems = [((0, 1, 2), B),
             ((0, 1, 4), W), ((1, 4, 3), W), ((1, 3, 8), W),
             ((1, 2, 8), W), ((0, 4, 5), W), ((2, 8, 7), W),
             ((0, 5, 6), R), ((0, 6, 2), R), ((2, 6, 7), R)]
    nodes = [(i, x, y) for i, (x, y) in enumerate(pos)]
    mesh = build_mesh(nodes, [(i, tri, s) for i, (tri, s) in enumerate(elems)])
    return reconstructed(mesh)


def test_lens_mesh_classes():
    mesh, graph = lens_mesh()
    assert mesh.topo[1] == LNODE
    assert mesh.topo[0] == PNODE and mesh.topo[2] == PNODE
    assert len(graph.surfaces) == 3
    assert {int(mesh.prv[1]), int(mesh.nxt[1])} == {0, 2}


def test_collapse_blocked_grain_death_off_path():
    mesh, graph = lens_mesh()
    ctx = make_ctx(mesh, graph, h=1.0)
    # collapsing the chain into a junction would remove B's last element
    # through a non-designated operation
    assert not try_collapse(ctx, 0, 1)
    assert not try_collapse(ctx, 1, 2)
    assert mesh.n_nodes() == 9


def test_collapse_lens_death():
    mesh, graph = lens_mesh()
    b_sid = int(mesh.surf[0])
    lid_chain = int(mesh.entity[1])
    pid_dead = int(mesh.entity[2])
    area0 = total_area(mesh)
    ctx = make_ctx(mesh, graph, h=1.0)
    lid_direct = ctx.whole_line_edge(0, 2)
    assert lid_direct is not None
    assert try_collapse(ctx, 0, 2)
    # grain B, both of its lines and the absorbed junction are gone
    assert b_sid not in graph.surfaces
    assert lid_direct not in graph.lines
    assert lid_chain not in graph.lines
    assert pid_dead not in graph.points
    assert not mesh.node_alive[2]
    # the chain node loses its interface and becomes a bulk node
    assert mesh.topo[1] == SNODE
    patch_surfs = {int(mesh.surf[e]) for e in mesh.n2e[1]}
    assert patch_surfs == {int(mesh.entity[1])}
    assert int(mesh.prv[1]) == NULL_ID and int(mesh.nxt[1]) == NULL_ID
    # the survivor keeps its two wall-bound junction lines
    conns = {lid for k, lid in
             graph.points[int(mesh.entity[0])].connections if k == KIND_LINE}
    assert len(conns) == 2
    assert total_area(mesh) == pytest.approx(area0, abs=1e-12)
    assert all_positive(mesh)
    assert_ctx_counts(ctx)
    recanonicalize_lines(mesh)


def island_mesh():
    """A one-element grain bounded by a closed loop of three L-nodes."""
    pos = [(0.0, 0.05), (-0.0433, -0.025), (0.0433, -0.025),
           (0.0, 1.0), (-0.866, 0.5), (-0.866, -0.5),
           (0.0, -1.0), (0.866, -0.5), (0.866, 0.5)]
    A, B = 0, 1
    elems = [((0, 1, 2), B),
             ((1, 0, 3), A), ((1, 3, 4), A), ((1, 4, 5), A),
             ((2, 1, 5), A), ((2, 5, 6), A), ((2, 6, 7), A),
             ((0, 2, 7), A), ((0, 7, 8), A), ((0, 8, 3), A)]
    nodes = [(i, x, y) for i, (x, y) in enumerate(pos)]
    mesh = build_mesh(nodes, [(i, tri, s) for i, (tri, s) in enumerate(elems)])
    return reconstructed(mesh)


def test_kill_island_grain():
    mesh, graph = island_mesh()
    assert all(mesh.topo[n] == LNODE for n in (0, 1, 2))
    b_sid = int(mesh.surf[0])
    a_sid = int(mesh.surf[1])
    lid = int(mesh.entity[0])
    area0 = total_area(mesh)
    ctx = make_ctx(mesh, graph, h=1.0)
    stats = collapse_sweep(ctx)
    assert stats.killed == 1
    assert b_sid not in graph.surfaces
    assert lid not in graph.lines
    # the three loop nodes merge into one bulk node
    assert mesh.node_alive[0] and not mesh.node_alive[1] \
        and not mesh.node_alive[2]
    assert mesh.topo[0] == SNODE and int(mesh.entity[0]) == a_sid
    assert total_area(mesh) == pytest.approx(area0, abs=1e-12)
    assert all_positive(mesh)
    assert_ctx_counts(ctx)
    # nothing left to do
    ctx2 = make_ctx(mesh, graph, h=1.0)
    assert collapse_sweep(ctx2).total() == 0


# -- relaxation --------------------------------------------------------------

def test_settle_backs_off_to_valid():
    mesh, _ = reconstructed(grid_mesh(5, 5, w=1.0, h=1.0))
    n = 14  # interior node at (0.4, 0.4)
    moved = settle_offsets(mesh, np.array([n]), np.array([[0.35, 0.0]]))
    assert all_positive(mesh)
    dx = mesh.pos[n][0] - 0.4
    assert 0.0 < dx < 0.35
    assert moved in (0, 1)


def test_settle_zeroes_blocked_direction():
    mesh, _ = reconstructed(grid_mesh(5, 5))
    n = 14
    # flatten one patch element, then push parallel to its base: the area
    # stays zero at every halving, so the offset is dropped entirely
    mesh.pos[n] = (0.5, 0.3)
    p0 = mesh.pos[n].copy()
    settle_offsets(mesh, np.array([n]), np.array([[0.1, 0.1]]))
    assert np.array_equal(mesh.pos[n], p0)


def test_smooth_regular_grid_is_stationary():
    mesh, _ = reconstructed(equilateral_mesh(6, 6, 0.1))
    before = mesh.pos.copy()
    smooth_bulk(mesh)
    assert np.abs(mesh.pos - before).max() < 1e-12


def test_smooth_restores_jiggled_node():
    mesh, _ = reconstructed(equilateral_mesh(6, 6, 0.1))
    nids = mesh.alive_nodes()
    interior = nids[mesh.topo[nids] == SNODE]
    n = int(interior[len(interior) // 2])
    home = mesh.pos[n].copy()
    mesh.pos[n] = home + (0.02, 0.015)
    smooth_bulk(mesh)
    # neighbors were still at rest, so the node lands back on its target
    assert np.abs(mesh.pos[n] - home).max() < 1e-12
    assert all_positive(mesh)


def test_smooth_skips_shared(strip_mesh):
    mesh, _ = reconstructed(strip_mesh)
    n = 30
    assert mesh.topo[n] == SNODE
    mesh.pos[n] += (0.03, 0.02)
    mesh.shared[n] = {1}
    p = mesh.pos[n].copy()
    smooth_bulk(mesh)
    assert np.array_equal(mesh.pos[n], p)


def test_glide_is_tangential(strip_mesh):
    mesh, _ = reconstructed(strip_mesh)
    n = 40  # interface L-node at (0.5, 0.5)
    mesh.pos[n] = (0.5, 0.54)
    glide_line(mesh)
    # the chain here is the vertical x = 0.5, so motion is purely vertical
    assert mesh.pos[n][0] == 0.5
    assert abs(mesh.pos[n][1] - 0.5) < 0.04
    assert all_positive(mesh)


def test_glide_wall_node_stays_on_wall():
    mesh, _ = reconstructed(grid_mesh(6, 6))
    n = 3  # bottom wall L-node
    assert mesh.bnd[n] == BND_TANGENT_X and mesh.topo[n] == LNODE
    mesh.pos[n] = (mesh.pos[n][0] + 0.03, 0.0)
    glide_line(mesh)
    assert mesh.pos[n][1] == 0.0
    assert abs(mesh.pos[n][0] - 0.5) < 0.03


# -- split -------------------------------------------------------------------

def test_split_bulk_edge():
    mesh, graph = reconstructed(grid_mesh(4, 4))
    a, b = 12, 13  # interior horizontal edge
    n_el = mesh.n_elems()
    area0 = total_area(mesh)
    ctx = make_ctx(mesh, graph, h=0.25)
    nid = split_edge(ctx, a, b)
    assert nid is not None
    assert mesh.topo[nid] == SNODE and int(mesh.entity[nid]) == 0
    assert np.array_equal(mesh.pos[nid], 0.5 * (mesh.pos[a] + mesh.pos[b]))
    assert mesh.n_elems() == n_el + 2
    assert mesh.edge_elements(a, b) == []
    assert len(mesh.edge_elements(a, nid)) == 2
    assert total_area(mesh) == pytest.approx(area0, abs=1e-12)
    assert_ctx_counts(ctx)


def test_split_interface_edge_extends_chain(strip_mesh):
    mesh, graph = reconstructed(strip_mesh)
    a, b = 40, 49  # interface chain neighbors
    lid = int(mesh.entity[a])
    n_line = len(lnodes_by_line(mesh)[lid])
    ctx = make_ctx(mesh, graph, h=0.125)
    nid = split_edge(ctx, a, b)
    assert mesh.topo[nid] == LNODE and int(mesh.entity[nid]) == lid
    assert int(mesh.nxt[a]) == nid and int(mesh.prv[nid]) == a
    assert int(mesh.nxt[nid]) == b and int(mesh.prv[b]) == nid
    assert len(lnodes_by_line(mesh)[lid]) == n_line + 1
    assert_ctx_counts(ctx)
    recanonicalize_lines(mesh)


def test_split_junction_line_edge():
    mesh = grid_mesh(2, 2, tag_fn=lambda cx, cy: (0 if cx < 0.5 else 1)
                     + (0 if cy < 0.5 else 2))
    mesh, graph = reconstructed(mesh)
    center, south = 4, 1
    ctx = make_ctx(mesh, graph, h=0.5)
    nid = split_edge(ctx, center, south)
    assert mesh.topo[nid] == LNODE
    assert int(mesh.prv[nid]) == south and int(mesh.nxt[nid]) == center
    lid = int(mesh.entity[nid])
    assert ctx.line_count[lid] == 1
    assert_ctx_counts(ctx)
    recanonicalize_lines(mesh)


def test_split_wall_edge():
    mesh, graph = reconstructed(grid_mesh(4, 4))
    a, b = 1, 2  # bottom wall edge
    ctx = make_ctx(mesh, graph, h=0.25)
    nid = split_edge(ctx, a, b)
    assert nid is not None
    assert mesh.bnd[nid] == BND_TANGENT_X
    assert mesh.topo[nid] == LNODE
    assert mesh.pos[nid][1] == 0.0
    assert all_positive(mesh)
    assert_ctx_counts(ctx)


def test_split_refuses_partition_cut():
    mesh, graph = reconstructed(grid_mesh(4, 4))
    a, b = 12, 13
    elems = mesh.edge_elements(a, b)
    mesh.remove_element(elems[0])  # leave a cut-like single-element edge
    ctx = make_ctx(mesh, graph, h=0.25)
    assert split_edge(ctx, a, b) is None


def test_split_sweep_reaches_fixpoint(strip_mesh):
    mesh, graph = reconstructed(strip_mesh)
    params_h = 0.11  # makes every grid diagonal (0.177) too long
    ctx = make_ctx(mesh, graph, h=params_h)
    n = split_sweep(ctx)
    assert n > 0
    edges = mesh.edge_array()
    ln = np.linalg.norm(mesh.pos[edges[:, 0]] - mesh.pos[edges[:, 1]], axis=1)
    assert ln.max() <= ctx.params.delta_s + 1e-12
    assert all_positive(mesh)
    assert total_area(mesh) == pytest.approx(1.0, abs=1e-12)
    assert_ctx_counts(ctx)
    recanonicalize_lines(mesh)


def test_split_sweep_deterministic():
    def run():
        mesh, graph = reconstructed(
            grid_mesh(8, 8, tag_fn=lambda cx, cy: 0 if cx < 0.5 else 1))
        ctx = make_ctx(mesh, graph, h=0.11)
        split_sweep(ctx)
        eids = mesh.alive_elems()
        return mesh.tri[eids].copy(), mesh.pos[mesh.alive_nodes()].copy()
    t1, p1 = run()
    t2, p2 = run()
    assert np.array_equal(t1, t2)
    assert np.array_equal(p1, p2)


# -- swap --------------------------------------------------------------------

def skewed_quad():
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 5.0, 5.0), (3, 0.0, 1.0)]
    elems = [(0, (0, 2, 3), 0), (1, (0, 1, 2), 0)]
    return reconstructed(build_mesh(nodes, elems))


def test_swap_improves_skewed_pair():
    mesh, graph = skewed_quad()
    area0 = total_area(mesh)
    ctx = make_ctx(mesh, graph, h=2.0)
    n = swap_sweep(ctx)
    assert n == 1
    assert mesh.edge_elements(0, 2) == []
    assert len(mesh.edge_elements(1, 3)) == 2
    assert all_positive(mesh)
    assert total_area(mesh) == pytest.approx(area0, abs=1e-12)
    # a second sweep finds nothing more
    assert swap_sweep(ctx) == 0


def test_swap_requires_strict_gain():
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 1.0, 1.0), (3, 0.0, 1.0)]
    elems = [(0, (0, 1, 2), 0), (1, (0, 2, 3), 0)]
    mesh, graph = reconstructed(build_mesh(nodes, elems))
    ctx = make_ctx(mesh, graph, h=1.0)
    assert not try_swap(ctx, 0, 2)
    assert len(mesh.edge_elements(0, 2)) == 2


def test_swap_refuses_interface(strip_mesh):
    mesh, graph = reconstructed(strip_mesh)
    a, b = 40, 49
    ctx = make_ctx(mesh, graph, h=0.125)
    assert not try_swap(ctx, a, b)


# -- full pass ---------------------------------------------------------------

def test_remesh_pass_fixed_point():
    mesh, graph = reconstructed(equilateral_mesh(8, 8, 0.1))
    pos0 = mesh.pos.copy()
    tri0 = mesh.tri[mesh.alive_elems()].copy()
    stats = remesh_pass(make_state(mesh, graph, h=0.1))
    assert stats.collapsed == 0 and stats.killed == 0
    assert stats.split == 0 and stats.swapped == 0
    assert np.array_equal(tri0, mesh.tri[mesh.alive_elems()])
    assert np.abs(mesh.pos - pos0).max() < 1e-12


def test_remesh_pass_scope_restricts(strip_mesh):
    mesh, graph = reconstructed(strip_mesh)
    a, b = 30, 31
    mesh.pos[b] = mesh.pos[a] + (0.01, 0.0)
    state = make_state(mesh, graph, h=0.125)
    # a scope elsewhere, or an empty one, leaves the short edge alone
    stats = remesh_pass(state, scope={70, 71})
    assert mesh.node_alive[a] and mesh.node_alive[b]
    pos0 = mesh.pos.copy()
    assert remesh_pass(state, scope=set()).total() == 0
    assert np.array_equal(mesh.pos, pos0)
    # scoping onto it collapses it
    stats = collapse_sweep(make_ctx(mesh, graph, h=0.125), scope={a, b})
    assert stats.collapsed == 1
    assert not (mesh.node_alive[a] and mesh.node_alive[b])


def test_remesh_pass_repairs_jiggled_mesh(monkeypatch):
    made = []

    class RecordingCtx(RemeshCtx):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr("grainflow.remesh.RemeshCtx", RecordingCtx)
    rng = np.random.default_rng(7)
    mesh, graph = reconstructed(
        grid_mesh(8, 8, tag_fn=lambda cx, cy: 0 if cx < 0.5 else 1))
    nids = mesh.alive_nodes()
    bulk = nids[(mesh.topo[nids] == SNODE)]
    mesh.pos[bulk] += rng.uniform(-0.03, 0.03, size=(len(bulk), 2))
    assert all_positive(mesh)
    state = make_state(mesh, graph, h=0.14)
    remesh_pass(state)
    assert len(made) == 1
    assert_ctx_counts(made[0])
    assert all_positive(mesh)
    assert total_area(mesh) == pytest.approx(1.0, abs=1e-9)
    assert set(graph.surfaces) == {int(s) for s in mesh.surf[mesh.alive_elems()]}
    edges = mesh.edge_array()
    ln = np.linalg.norm(mesh.pos[edges[:, 0]] - mesh.pos[edges[:, 1]], axis=1)
    assert ln.max() <= state.params.delta_s + 1e-12


def test_remesh_pass_deterministic():
    def run():
        rng = np.random.default_rng(11)
        mesh, graph = reconstructed(
            grid_mesh(6, 6, tag_fn=lambda cx, cy: 0 if cx < 0.5 else 1))
        nids = mesh.alive_nodes()
        bulk = nids[mesh.topo[nids] == SNODE]
        mesh.pos[bulk] += rng.uniform(-0.04, 0.04, size=(len(bulk), 2))
        remesh_pass(make_state(mesh, graph, h=0.15))
        return (mesh.pos[mesh.alive_nodes()].copy(),
                mesh.tri[mesh.alive_elems()].copy())
    p1, t1 = run()
    p2, t2 = run()
    assert np.array_equal(p1, p2)
    assert np.array_equal(t1, t2)
