"""Node classes, entity reconstruction and line tracing."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from grainflow.mesh import (
    NULL_ID, PNODE, LNODE, SNODE, TopologyError, build_mesh,
)
from grainflow.entities import (
    Point, bare_lines, tag_nodes, reconstruct_entities, line_ids,
    lnodes_by_line, line_segments, recanonicalize_lines,
    is_interface_edge,
)
from grainflow.state import (KIND_ELEM, KIND_LINE, KIND_NODE, KIND_POINT,
                             IdAllocator)
from grainflow.tessellation import tessellate

from .conftest import grid_mesh, reconstructed


def nid_at(m, x, y):
    d = np.linalg.norm(m.pos[m.alive_nodes()] - (x, y), axis=1)
    return int(m.alive_nodes()[np.argmin(d)])


def surface_ids(m):
    """The live surface ids, ascending."""
    return np.unique(m.surf[m.alive_elems()]).tolist()


def surface_tags(m, tags):
    """(surface id, element tag) per surface, sorted; ``tags`` is a copy of
    ``m.surf`` taken before reconstruction renumbered the surfaces."""
    eids = m.alive_elems()
    return sorted((sid, int(tags[eids[m.surf[eids] == sid][0]]))
                  for sid in surface_ids(m))


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
    assert len(surface_ids(m)) == 1
    assert len(line_ids(m, g)) == 4
    assert len(g.points) == 4
    assert set(np.unique(m.surf[m.alive_elems()])) == {0}
    assert {p.node for p in g.points.values()} == {0, 4, 20, 24}
    for p in g.points.values():
        assert len(p.connections) == 2


def test_strip_reconstruction(strip_mesh):
    tags = strip_mesh.surf.copy()
    m, g = reconstructed(strip_mesh)
    assert len(surface_ids(m)) == 2
    assert len(line_ids(m, g)) == 7
    assert len(g.points) == 6
    # each grain is one surface of one original tag
    assert sorted(t for _, t in surface_tags(m, tags)) == [0, 1]
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
    assert lid in p.connections


def test_quadruple_reconstruction(quad_mesh):
    m, g = reconstructed(quad_mesh)
    assert len(surface_ids(m)) == 4
    assert len(line_ids(m, g)) == 12
    assert len(g.points) == 9
    center = nid_at(m, 0.5, 0.5)
    p = g.point_at(m, center)
    assert len(p.connections) == 4


def test_closed_loop_line():
    m, g = reconstructed(grid_mesh(
        6, 6, tag_fn=lambda cx, cy: 1 if (1/3 < cx < 2/3 and 1/3 < cy < 2/3) else 0))
    assert len(surface_ids(m)) == 2
    assert len(line_ids(m, g)) == 5
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
# each point's connected line ids included, after reconstructing 0.2 mm /
# 30-grain tessellations (h = 0.004 mm); recorded again when connections
# stopped carrying an entity-kind tag, with only that tag dropped.
GOLDEN_RECONSTRUCTION = {
    0: "7984213f5bf76ad1e977b69904280e3edb2b0a654856128789acef75619c7f61",
    1: "b7a308876bdcf98fb4c5eac67f2b3f766e6bd3bd29a7862778882cbb9a600992",
    2: "e1e1e83ebaf5ddb5f1cc423ee79b7009134b58acb0f6521aad35f88b143dc95c",
    3: "09c5e39f423637ad1413a34f6593509309e76f3da6634d4952545d2bdbebac86",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_RECONSTRUCTION))
def test_reconstruction_golden(seed):
    m, _, _ = tessellate(np.random.default_rng(seed), 0.2, 0.2, 30, 0.004)
    tags = m.surf.copy()
    m, g = reconstructed(m)
    h = hashlib.sha256()
    for name in ("entity", "prv", "nxt", "topo", "surf"):
        h.update(getattr(m, name).tobytes())
    h.update(repr((
        sorted((pid, p.node, sorted(p.connections))
               for pid, p in g.points.items()),
        sorted(line_ids(m, g)),
        surface_tags(m, tags),
    )).encode())
    assert h.hexdigest() == GOLDEN_RECONSTRUCTION[seed]


def test_stride_ids_per_rank(strip_mesh):
    # reconstruction numbers each kind 0, 1, 2, ...; rank 1 of 3 then
    # allocates above the highest id in use, in its own residue class
    m, g = reconstructed(strip_mesh)
    assert surface_ids(m) == [0, 1]
    assert sorted(line_ids(m, g)) == list(range(7))
    assert sorted(g.points) == list(range(6))
    alloc = IdAllocator.above(m, g, rank=1, stride=3)
    kinds = (KIND_NODE, KIND_ELEM, KIND_POINT, KIND_LINE)
    assert [alloc.take(k) for k in kinds] == [82, 130, 7, 7]
    assert [alloc.take(k) for k in kinds] == [85, 133, 10, 10]


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


@given(st.sets(st.integers(0, 8)), st.sets(st.integers(0, 8)),
       st.dictionaries(st.integers(0, 8), st.integers(0, 3)))
def test_bare_lines_counts_and_members_agree(la, lb, counts):
    pa = Point(0, 0, set(la))
    pb = Point(1, 1, set(lb))
    members = {lid: list(range(10, 10 + c)) for lid, c in counts.items()}
    got = bare_lines(pa, pb, counts)
    assert got == bare_lines(pa, pb, members) == bare_lines(pb, pa, counts)
    assert got == sorted(l for l in la & lb if counts.get(l, 0) == 0)
