"""Node classes, entity reconstruction, line tracing and renaming."""

import hashlib

import numpy as np
import pytest

from grainflow.mesh import (
    NULL_ID, PNODE, LNODE, SNODE, TopologyError, build_mesh,
)
from grainflow.entities import (
    KIND_POINT, KIND_LINE, KIND_SURFACE,
    tag_nodes, reconstruct_entities,
    lnodes_by_line, line_segments, recanonicalize_lines, rename_entities,
    is_interface_edge,
)
from grainflow.state import KIND_ELEM, KIND_NODE, IdAllocator
from grainflow.tessellation import tessellate

from .conftest import grid_mesh, reconstructed


def nid_at(m, x, y):
    d = np.linalg.norm(m.pos[m.alive_nodes()] - (x, y), axis=1)
    return int(m.alive_nodes()[np.argmin(d)])


def test_stride_counter():
    alloc = IdAllocator({KIND_NODE: 10, KIND_LINE: 0}, rank=1, stride=3)
    assert [alloc.take(KIND_NODE) for _ in range(3)] == [10, 13, 16]
    assert [alloc.take(KIND_LINE) for _ in range(3)] == [1, 4, 7]


def test_tag_classes_on_strip(strip_mesh):
    m = strip_mesh
    tag_nodes(m)
    assert m.topo[nid_at(m, 0.5, 0.5)] == LNODE      # interface interior
    assert m.topo[nid_at(m, 0.5, 0.0)] == PNODE      # interface meets wall
    assert m.topo[nid_at(m, 0.0, 0.0)] == PNODE      # corner
    assert m.topo[nid_at(m, 0.25, 0.0)] == LNODE     # plain wall
    assert m.topo[nid_at(m, 0.25, 0.5)] == SNODE     # bulk


def test_tag_junction(tjunction_mesh):
    m = tjunction_mesh
    tag_nodes(m)
    assert m.topo[nid_at(m, 0.5, 0.5)] == PNODE


def test_single_grain_square():
    m, g = reconstructed(grid_mesh(4, 4))
    assert len(g.surfaces) == 1
    assert len(g.lines) == 4
    assert len(g.points) == 4
    assert set(np.unique(m.surf[m.alive_elems()])) == {0}
    assert {p.node for p in g.points.values()} == {0, 4, 20, 24}
    for p in g.points.values():
        assert len(p.connections) == 2


def test_strip_reconstruction(strip_mesh):
    m, g = reconstructed(strip_mesh)
    assert len(g.surfaces) == 2
    assert len(g.lines) == 7
    assert len(g.points) == 6
    # the two grains keep their original tags on the Surface records
    assert sorted(s.orig_tag for s in g.surfaces.values()) == [0, 1]
    # interface chain x = 0.5 runs bottom P to top P through 7 L-nodes
    lid = int(m.entity[nid_at(m, 0.5, 0.5)])
    members = lnodes_by_line(m)[lid]
    assert members == [13, 22, 31, 40, 49, 58, 67]
    segs = line_segments(m, lid, members)
    assert len(segs) == 1
    assert segs[0].nodes == [4, 13, 22, 31, 40, 49, 58, 67, 76]
    assert not segs[0].closed
    # the wall junction point joins two wall lines plus the interface
    p = g.point_at(m, 4)
    assert len(p.connections) == 3
    assert (KIND_LINE, lid) in p.connections


def test_quadruple_reconstruction(quad_mesh):
    m, g = reconstructed(quad_mesh)
    assert len(g.surfaces) == 4
    assert len(g.lines) == 12
    assert len(g.points) == 9
    center = nid_at(m, 0.5, 0.5)
    p = g.point_at(m, center)
    assert len(p.connections) == 4


def test_closed_loop_line():
    m, g = reconstructed(grid_mesh(
        6, 6, tag_fn=lambda cx, cy: 1 if (1/3 < cx < 2/3 and 1/3 < cy < 2/3) else 0))
    assert len(g.surfaces) == 2
    assert len(g.lines) == 5
    assert len(g.points) == 4
    loop_lid = int(m.entity[nid_at(m, 0.5, 1/3)])
    members = lnodes_by_line(m)[loop_lid]
    assert len(members) == 8
    segs = line_segments(m, loop_lid, members)
    assert len(segs) == 1 and segs[0].closed
    assert len(segs[0].nodes) == 8
    assert segs[0].nodes[0] == min(members)
    # links form one cycle
    for n in members:
        assert int(m.prv[int(m.nxt[n])]) == n


# sha256 of the node and element entity arrays and the sorted entity graph,
# point connections included, after reconstructing 0.2 mm / 30-grain
# tessellations (h = 0.004 mm); recorded before reconstruction took its chain
# links from the ``recanonicalize_lines`` tracer.
GOLDEN_RECONSTRUCTION = {
    0: "0ad80f668f38e9091a544fc2dfa9dd7b6891fd6ff80de460eada69f1dfa56ea2",
    1: "c404d0332d0d369ecce89b205b9f1c318ba7307b19411525d9d05c819682d17c",
    2: "00d797a3dda2ee589381d54ebecba819ff1692e2e6ced5e7a0d3dbedaf303f52",
    3: "272e7fffde5b4a46312afeaa7ad4da33adbb23032db110577fe703fe507f9493",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_RECONSTRUCTION))
def test_reconstruction_golden(seed):
    m, _, _ = tessellate(np.random.default_rng(seed), 0.2, 0.2, 30, 0.004)
    m, g = reconstructed(m)
    h = hashlib.sha256()
    for name in ("entity", "prv", "nxt", "topo", "surf"):
        h.update(getattr(m, name).tobytes())
    h.update(repr((
        sorted((pid, p.node, sorted(p.connections))
               for pid, p in g.points.items()),
        sorted(g.lines),
        sorted((sid, s.orig_tag) for sid, s in g.surfaces.items()),
    )).encode())
    assert h.hexdigest() == GOLDEN_RECONSTRUCTION[seed]


def test_stride_ids_per_rank(strip_mesh):
    # reconstruction numbers each kind 0, 1, 2, ...; rank 1 of 3 then
    # allocates above the highest id in use, in its own residue class
    m, g = reconstructed(strip_mesh)
    assert sorted(g.surfaces) == [0, 1]
    assert sorted(g.lines) == list(range(7))
    assert sorted(g.points) == list(range(6))
    alloc = IdAllocator.above(m, g, rank=1, stride=3)
    kinds = (KIND_NODE, KIND_ELEM, KIND_POINT, KIND_LINE, KIND_SURFACE)
    assert [alloc.take(k) for k in kinds] == [82, 130, 7, 7, 4]
    assert [alloc.take(k) for k in kinds] == [85, 133, 10, 10, 7]


def test_element_order_invariance():
    def build(perm):
        base = grid_mesh(8, 8, tag_fn=lambda cx, cy: 0 if cx < 0.5 else 1)
        eids = base.alive_elems()
        nodes = [(int(n), *base.pos[n]) for n in base.alive_nodes()]
        elements = [(int(perm[k]), tuple(base.tri[e]), int(base.surf[e]))
                    for k, e in enumerate(eids)]
        m = build_mesh(nodes, elements)
        tag_nodes(m)
        reconstruct_entities(m)
        return m

    rng = np.random.default_rng(7)
    n = grid_mesh(8, 8).n_elems()
    perm = rng.permutation(n)
    a = build(np.arange(n))
    b = build(perm)
    assert np.array_equal(a.topo[a.node_alive], b.topo[b.node_alive])
    ln = a.alive_nodes()[a.topo[a.alive_nodes()] == LNODE]
    assert np.array_equal(a.prv[ln], b.prv[ln])
    assert np.array_equal(a.nxt[ln], b.nxt[ln])
    # surfaces agree as partitions of the physical cells even if ids differ
    def parts(m, to_cell):
        groups = {}
        for e in m.alive_elems():
            groups.setdefault(int(m.surf[e]), set()).add(int(to_cell[e]))
        return sorted(map(frozenset, groups.values()), key=min)
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    assert parts(a, np.arange(n)) == parts(b, inv)


def test_line_segments_with_gap(strip_mesh):
    m, g = reconstructed(strip_mesh)
    lid = int(m.entity[nid_at(m, 0.5, 0.5)])
    members = lnodes_by_line(m)[lid]
    without = [n for n in members if n != 40]
    segs = line_segments(m, lid, without)
    assert len(segs) == 2
    assert segs[0].nodes == [4, 13, 22, 31]
    assert segs[1].nodes == [49, 58, 67, 76]


def test_recanonicalize_reproduces_links(strip_mesh):
    m, g = reconstructed(strip_mesh)
    ln = m.alive_nodes()[m.topo[m.alive_nodes()] == LNODE]
    want_prv = m.prv[ln].copy()
    want_nxt = m.nxt[ln].copy()
    rng = np.random.default_rng(3)
    m.prv[ln] = rng.permutation(ln)
    m.nxt[ln] = NULL_ID
    recanonicalize_lines(m)
    assert np.array_equal(m.prv[ln], want_prv)
    assert np.array_equal(m.nxt[ln], want_nxt)


def test_recanonicalize_closed_loop():
    m, g = reconstructed(grid_mesh(
        6, 6, tag_fn=lambda cx, cy: 1 if (1/3 < cx < 2/3 and 1/3 < cy < 2/3) else 0))
    ln = m.alive_nodes()[m.topo[m.alive_nodes()] == LNODE]
    want_prv = m.prv[ln].copy()
    want_nxt = m.nxt[ln].copy()
    m.prv[ln] = NULL_ID
    m.nxt[ln] = NULL_ID
    recanonicalize_lines(m)
    assert np.array_equal(m.prv[ln], want_prv)
    assert np.array_equal(m.nxt[ln], want_nxt)


def test_inconsistent_tags_detected(strip_mesh):
    m = strip_mesh
    tag_nodes(m)
    m.topo[m.alive_nodes()] = SNODE
    with pytest.raises(TopologyError):
        reconstruct_entities(m)


def test_is_interface_edge(strip_mesh):
    m, g = reconstructed(strip_mesh)
    assert is_interface_edge(m, 4, 13)       # between the grains
    assert is_interface_edge(m, 0, 1)        # wall edge
    assert not is_interface_edge(m, 14, 23)  # interior edge of one grain


def test_rename_surfaces_merges(strip_mesh):
    m, g = reconstructed(strip_mesh)
    snode = nid_at(m, 0.75, 0.5)
    assert m.entity[snode] == 1
    rename_entities(m, g, KIND_SURFACE, {1: 0})
    assert set(np.unique(m.surf[m.alive_elems()])) == {0}
    assert m.entity[snode] == 0
    assert sorted(g.surfaces) == [0]


def test_rename_lines_updates_connections(strip_mesh):
    m, g = reconstructed(strip_mesh)
    lid = int(m.entity[nid_at(m, 0.5, 0.5)])
    rename_entities(m, g, KIND_LINE, {lid: 99})
    assert int(m.entity[nid_at(m, 0.5, 0.5)]) == 99
    assert 99 in g.lines and lid not in g.lines
    p = g.point_at(m, 4)
    assert (KIND_LINE, 99) in p.connections
    assert (KIND_LINE, lid) not in p.connections


def test_rename_points(strip_mesh):
    m, g = reconstructed(strip_mesh)
    pid = int(m.entity[4])
    rename_entities(m, g, KIND_POINT, {pid: 77})
    assert int(m.entity[4]) == 77
    assert g.points[77].node == 4
