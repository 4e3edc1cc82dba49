"""Mesh container: construction, incidence, boundary marking, VTK output."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grainflow.mesh import (
    Mesh, MeshError, TopologyError, build_mesh, signed_area, element_patch,
    dual_graph, write_vtk, is_domain_boundary_edge,
    BND_NONE, BND_TANGENT_X, BND_TANGENT_Y, BND_CORNER, NULL_ID,
)
from grainflow.tessellation import tessellate
from grainflow.wire import MESH, decode_arrays, encode_arrays

from .conftest import grid_mesh
from .helpers import bootstrapped, parse_vtk


def fan_mesh():
    """Four elements sharing node 0, fanned over a half disk."""
    ang = np.linspace(0.0, np.pi, 5)
    nodes = [(0, 0.0, 0.0)]
    nodes += [(i + 1, np.cos(a), np.sin(a)) for i, a in enumerate(ang)]
    elements = [(k, (0, k + 1, k + 2), 0) for k in range(4)]
    return build_mesh(nodes, elements)


def test_build_counts():
    m = fan_mesh()
    assert m.n_nodes() == 6
    assert m.n_elems() == 4
    assert np.array_equal(m.alive_elems(), [0, 1, 2, 3])


def test_signed_areas_positive_after_ccw_fix():
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 0.0, 1.0)]
    # clockwise winding on input gets flipped
    m = build_mesh(nodes, [(0, (0, 2, 1), 7)])
    assert signed_area(m, 0) == pytest.approx(0.5)
    assert m.surf[0] == 7


def test_duplicate_node_in_element_rejected():
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 0.0, 1.0)]
    with pytest.raises(MeshError):
        build_mesh(nodes, [(0, (0, 1, 1), 0)])


def test_degenerate_element_rejected():
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0)]
    with pytest.raises(MeshError):
        build_mesh(nodes, [(0, (0, 1, 2), 0)])


def test_duplicate_node_id_rejected():
    nodes = [(0, 0.0, 0.0), (0, 1.0, 0.0), (2, 0.0, 1.0)]
    with pytest.raises(MeshError):
        build_mesh(nodes, [(0, (0, 1, 2), 0)])


def test_non_manifold_edge_detected():
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 0.0, 1.0), (3, 0.0, -1.0),
             (4, -1.0, 0.5)]
    elements = [(0, (0, 1, 2), 0), (1, (0, 3, 1), 0), (2, (0, 1, 4), 0)]
    with pytest.raises(TopologyError):
        build_mesh(nodes, elements)


def test_edge_incidence_totals():
    m = grid_mesh(6, 5)
    edges, ee = m.edge_array(with_elems=True)
    counts = (ee != NULL_ID).sum(axis=1)
    assert counts.sum() == 3 * m.n_elems()
    assert set(np.unique(counts)) <= {1, 2}


def edges_by_rows(mesh, with_elems=False):
    """``Mesh.edge_array`` as a unique over sorted (a, b) rows: the
    formulation the one-int64 edge key replaced."""
    eids = mesh.alive_elems()
    t = mesh.tri[eids]
    raw = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    raw.sort(axis=1)
    edges, inv, cnt = np.unique(raw, axis=0, return_inverse=True,
                                return_counts=True)
    edges = edges.reshape(-1, 2)
    if not with_elems:
        return edges
    owner = np.tile(eids, 3)[np.argsort(inv.ravel(), kind="stable")]
    ee = np.full((len(edges), 2), NULL_ID, dtype=np.int64)
    s = 0
    for k, c in enumerate(cnt):
        ee[k, :c] = owner[s:s + c]
        s += c
    return edges, ee


def mesh_of(nids, pos, eids, tri, surf):
    """A mesh of the given nodes and elements, elements added in ascending
    id order."""
    m = Mesh()
    for n, xy in zip(nids, pos):
        m.add_node(n, xy)
    for k in np.argsort(eids):
        m.add_element(eids[k], tri[k], surf[k])
    return m


@st.composite
def tombstoned_meshes(draw):
    """A grid mesh under sparse random ids, with some elements removed."""
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    g = grid_mesh(nx, ny)
    nids, pos, eids, tri, surf = g.live_arrays()
    node_ids = np.array(draw(st.lists(
        st.integers(0, 4 * len(nids)), min_size=len(nids),
        max_size=len(nids), unique=True)), dtype=np.int64)
    elem_ids = np.array(draw(st.lists(
        st.integers(0, 4 * len(eids)), min_size=len(eids),
        max_size=len(eids), unique=True)), dtype=np.int64)
    corners = draw(st.permutations(range(3)))
    m = mesh_of(node_ids, pos, elem_ids, node_ids[tri][:, corners], surf)
    for e in draw(st.lists(st.sampled_from(elem_ids.tolist()), unique=True,
                           max_size=len(elem_ids))):
        m.remove_element(e)
    return m


@settings(max_examples=60, deadline=None)
@given(tombstoned_meshes())
def test_edge_array_matches_row_unique(m):
    edges = m.edge_array()
    assert edges.dtype == np.int64 and edges.shape[1] == 2
    assert np.array_equal(edges, edges_by_rows(m))
    got, got_ee = m.edge_array(with_elems=True)
    want, want_ee = edges_by_rows(m, with_elems=True)
    assert np.array_equal(got, want) and np.array_equal(got_ee, want_ee)


def test_edge_array_three_elements_raise():
    # three elements on edge (3, 7), among tombstoned ids on both sides
    m = mesh_of(
        [3, 7, 8, 9, 12], [(0, 0), (1, 0), (0, 1), (0, -1), (-1, 0.5)],
        [2, 5, 6, 9], [(3, 7, 8), (3, 9, 7), (8, 9, 12), (3, 7, 12)],
        [0, 0, 0, 0])
    m.remove_element(6)
    for with_elems in (False, True):
        with pytest.raises(TopologyError, match="more than two elements") \
                as err:
            m.edge_array(with_elems=with_elems)
        assert str((np.int64(3), np.int64(7))) in str(err.value)


def test_edge_elements_query():
    m = fan_mesh()
    assert m.edge_elements(0, 2) == [0, 1]
    assert m.edge_elements(0, 1) == [0]
    assert m.edge_elements(1, 3) == []


def test_element_patch_and_neighbors():
    m = fan_mesh()
    assert element_patch(m, 0) == [0, 1, 2, 3]
    assert element_patch(m, 1) == [0]
    assert m.node_neighbors(0) == [1, 2, 3, 4, 5]
    assert m.node_neighbors(3) == [0, 2, 4]


def test_dual_graph_fan_is_path():
    m = fan_mesh()
    g = dual_graph(m)
    assert g == {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}


def test_boundary_marks_grid():
    m = grid_mesh(4, 4)
    corners = {0, 4, 20, 24}
    for nid in m.alive_nodes():
        x, y = m.pos[nid]
        if nid in corners:
            assert m.bnd[nid] == BND_CORNER
        elif y in (0.0, 1.0):
            assert m.bnd[nid] == BND_TANGENT_X
        elif x in (0.0, 1.0):
            assert m.bnd[nid] == BND_TANGENT_Y
        else:
            assert m.bnd[nid] == BND_NONE


def test_domain_boundary_edge_vs_cut():
    m = grid_mesh(4, 4)
    # wall edge along y=0
    assert is_domain_boundary_edge(m, 0, 1)
    # interior edge
    assert not is_domain_boundary_edge(m, 6, 7)
    # both nodes on boundary but edge spans the corner: stays a wall pair
    assert not is_domain_boundary_edge(m, 3, 9)


def test_add_remove_cycle():
    m = fan_mesh()
    m.add_node(99, (2.0, 2.0))
    with pytest.raises(MeshError):
        m.add_node(99, (3.0, 3.0))
    m.add_element(50, (99, 1, 2), 0)
    with pytest.raises(MeshError):
        m.remove_node(99)
    m.remove_element(50)
    m.remove_node(99)
    assert not m.node_alive[99]
    assert 99 not in m.n2e


def test_replace_node_in_element():
    m = fan_mesh()
    m.add_node(10, (0.1, -0.5))
    m.replace_node_in_element(0, 0, 10)
    assert set(m.tri[0]) == {10, 1, 2}
    assert m.n2e[10] == {0}
    assert m.n2e[0] == {1, 2, 3}


def test_remove_element_then_node():
    m = fan_mesh()
    for eid in list(m.alive_elems()):
        m.remove_element(eid)
    m.remove_node(0)
    assert m.n_elems() == 0
    assert m.n_nodes() == 5


def test_vtk_roundtrip(tmp_path):
    m = grid_mesh(3, 2, tag_fn=lambda cx, cy: 0 if cx < 0.5 else 1)
    path = tmp_path / "mesh.vtk"
    write_vtk(m.live_arrays(), path)
    pts, cells, data = parse_vtk(path)
    assert pts.shape == (m.n_nodes(), 3)
    assert len(cells) == m.n_elems()
    assert list(data) == ["surface_id"]
    assert np.array_equal(data["surface_id"], m.surf[m.alive_elems()])
    # connectivity survives the id compaction
    alive = m.alive_nodes()
    remap = {nid: k for k, nid in enumerate(alive)}
    want = sorted(tuple(sorted(remap[n] for n in m.tri[e]))
                  for e in m.alive_elems())
    got = sorted(tuple(sorted(c)) for c in cells)
    assert want == got


@pytest.mark.parametrize("n_parts", [2, 3])
def test_vtk_of_merged_pieces_matches_whole(tmp_path, n_parts):
    # bootstrapped worker pieces travel as framed arrays and are
    # concatenated as they arrive; writing the merge must give the bytes of
    # the mesh rank 0 built
    states, mesh = bootstrapped(lambda: tessellate(
        np.random.default_rng(5), 0.1, 0.1, 8, 0.004)[0], n_parts)
    whole = tmp_path / "whole.vtk"
    write_vtk(mesh.live_arrays(), whole)
    pieces = [decode_arrays(encode_arrays(st.mesh.live_arrays(), MESH), MESH)
              for st in states]
    assert sum(len(p[0]) for p in pieces) > mesh.n_nodes()  # shared nodes
    for order in (pieces, pieces[::-1]):
        merged = tuple(np.concatenate(c) for c in zip(*order))
        path = tmp_path / "merged.vtk"
        write_vtk(merged, path)
        assert path.read_bytes() == whole.read_bytes()


def test_areas_vectorized_matches_scalar():
    m = grid_mesh(5, 3)
    areas = m.areas()
    for eid, a in zip(m.alive_elems(), areas):
        assert a == pytest.approx(signed_area(m, eid))
    assert areas.sum() == pytest.approx(1.0)
