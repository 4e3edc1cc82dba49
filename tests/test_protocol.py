"""Distributed protocol tests.

Workers run as threads over the in-process exchange, each building its own
copy of the global fixture so nothing is shared behind the transport's back.
The recurring pattern: run a collective function on every rank, return plain
data, and audit the per-rank results against each other and against an
unsplit or brute-force picture of the same mesh.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np
import pytest

from grainflow import geometry
from grainflow import protocol as pr
from grainflow import runner
from grainflow.entities import (EntityGraph, KIND_LINE, KIND_POINT,
                                KIND_SURFACE, Line, Point, Surface,
                                line_segments, lnodes_by_line)
from grainflow.geometry import NATURAL, NOT_A_KNOT, PERIODIC
from grainflow.mesh import LNODE, NULL_ID, PNODE, SNODE, Mesh, TopologyError
from grainflow.motion import reduced_mobility
from grainflow.remesh import (MIN_AREA, RemeshCtx, settle_offsets, split_edge,
                              try_collapse, try_swap)
from grainflow.runner import RunConfig, run
from grainflow.state import KIND_ELEM, KIND_NODE, RemeshParams
from grainflow.transport import run_workers
from grainflow.wire import (MODE_ARMS, MODE_CHAIN, TempNodeReply,
                           encode_records)

from .conftest import grid_mesh, reconstructed

H = 0.125
DT = 10.0


def make_strip():
    return grid_mesh(8, 8, tag_fn=lambda cx, cy: 0 if cx < 0.5 else 1)


def make_tjunction():
    def tag(cx, cy):
        if cx < 0.5:
            return 0
        return 1 if cy > 0.5 else 2
    return grid_mesh(8, 8, tag_fn=tag)


def parts_by(mesh: Mesh, fn) -> np.ndarray:
    parts = np.full(len(mesh.elem_alive), NULL_ID, dtype=np.int64)
    for e in mesh.alive_elems():
        cx, cy = mesh.pos[mesh.tri[e]].mean(axis=0)
        parts[e] = fn(cx, cy)
    return parts


def booted(transport, make_mesh, part_fn, h=H):
    full = make_mesh()
    return pr.bootstrap_state(transport, full, parts_by(full, part_fn), h)


def x_split(cx, cy):
    return 0 if cx < 0.5 else 1


# -- shared-node registry ----------------------------------------------------

def test_detect_shared_nodes_matches_seam():
    def worker(t):
        st = booted(t, make_strip, x_split)
        return {n: sorted(r) for n, r in st.mesh.shared.items()}

    r0, r1 = run_workers(2, worker)
    seam = {9 * j + 4 for j in range(9)}
    assert set(r0) == seam
    assert set(r1) == seam
    assert all(v == [1] for v in r0.values())
    assert all(v == [0] for v in r1.values())


def test_detect_single_worker_empty():
    def worker(t):
        st = booted(t, make_strip, lambda cx, cy: 0)
        return dict(st.mesh.shared)

    (reg,) = run_workers(1, worker)
    assert reg == {}


def test_detect_three_way_node():
    # three parts meeting at the grid center list each other pairwise
    def corner(cx, cy):
        if cx < 0.5:
            return 0
        return 1 if cy > 0.5 else 2

    def worker(t):
        st = booted(t, make_strip, corner)
        return {n: sorted(r) for n, r in st.mesh.shared.items()}

    regs = run_workers(3, worker)
    center = 40
    assert regs[0][center] == [1, 2]
    assert regs[1][center] == [0, 2]
    assert regs[2][center] == [0, 1]
    for r, reg in enumerate(regs):
        for n, owners in reg.items():
            for j in owners:
                assert r in regs[j][n]


# -- ranking -----------------------------------------------------------------

def _rank_for_counts(counts):
    def worker(t):
        return list(pr.compute_ranking(t, counts[t.rank]))

    res = run_workers(len(counts), worker)
    for r in res[1:]:
        assert r == res[0]
    return res[0]


def test_ranking_fewest_elements_highest():
    assert _rank_for_counts([100, 50, 75]) == [0, 2, 1]


def test_ranking_tie_lower_part_wins():
    assert _rank_for_counts([10, 10]) == [1, 0]


def test_ranking_matches_sort_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        counts = [int(c) for c in rng.integers(0, 100, rng.integers(1, 7))]
        ranking = _rank_for_counts(counts)
        assert sorted(ranking) == list(range(len(counts)))
        order = sorted(range(len(counts)), key=lambda p: (counts[p], p))
        for hi, p in enumerate(order):
            assert ranking[p] == len(counts) - 1 - hi


# -- identity regularization -------------------------------------------------

def _identity_mesh(nodes):
    """Node-only mesh: {nid: (topo, entity)} with positions irrelevant."""
    m = Mesh()
    for nid, (topo, ent) in sorted(nodes.items()):
        m.add_node(nid, (float(nid), 0.0), topo=topo, entity=ent)
    return m


class _DSU:
    def __init__(self):
        self.up = {}

    def find(self, x):
        self.up.setdefault(x, x)
        while self.up[x] != x:
            self.up[x] = self.up[self.up[x]]
            x = self.up[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.up[max(ra, rb)] = min(ra, rb)


def synthetic_identity_case(seed):
    """Random multi-part surface-identity scenario plus its expected names.

    Returns (n_parts, per-part {nid: sid}, per-part registry, per-part
    expected {old: new}).  The expectation comes from union-find over the
    identity coincidences, entirely independent of the exchange machinery.
    """
    rng = np.random.default_rng(seed)
    n_parts = int(rng.integers(2, 5))
    n_entities = int(rng.integers(1, 21))
    pool = rng.permutation(np.arange(1, 40))

    owned: list[dict[int, int]] = [{} for _ in range(n_parts)]  # local sid set
    couplings = []  # (part_a, id_a, part_b, id_b)
    k = 0
    for _ in range(n_entities):
        owners = sorted(rng.choice(n_parts, int(rng.integers(1, n_parts + 1)),
                                   replace=False))
        ids = []
        for p in owners:
            sid = int(pool[k % len(pool)])
            while sid in owned[p]:
                sid = sid % 38 + 1
            owned[p][sid] = 1
            ids.append(sid)
            k += 1
        for (pa, ia), (pb, ib) in zip(zip(owners, ids), zip(owners[1:], ids[1:])):
            couplings.append((pa, ia, pb, ib))
        if len(owners) > 2 and rng.random() < 0.5:
            couplings.append((owners[0], ids[0], owners[-1], ids[-1]))

    nodes: list[dict[int, tuple[int, int]]] = [{} for _ in range(n_parts)]
    registries: list[dict[int, set[int]]] = [{} for _ in range(n_parts)]
    for nid, (pa, ia, pb, ib) in enumerate(couplings, start=1000):
        nodes[pa][nid] = (SNODE, ia)
        nodes[pb][nid] = (SNODE, ib)
        registries[pa].setdefault(nid, set()).add(pb)
        registries[pb].setdefault(nid, set()).add(pa)

    # identity-value coincidence joins groups; an id that never sits on a
    # coupling node is out of the exchange and so keeps its name
    dsu = _DSU()
    coupled: list[set[int]] = [set() for _ in range(n_parts)]
    for pa, ia, pb, ib in couplings:
        dsu.union(ia, ib)
        coupled[pa].add(ia)
        coupled[pb].add(ib)
    expected = [{sid: dsu.find(sid) if sid in coupled[p] else sid
                 for sid in sorted(owned[p])} for p in range(n_parts)]
    return n_parts, nodes, registries, [sorted(p) for p in owned], expected


def _run_surface_regularization(n_parts, nodes, registries, owned=None):
    if owned is None:
        owned = [sorted({sid for _t, sid in nodes[p].values()})
                 for p in range(n_parts)]

    def worker(t):
        mesh = _identity_mesh(nodes[t.rank])
        graph = EntityGraph()
        for sid in owned[t.rank]:
            graph.surfaces[sid] = Surface(sid)
        renames = pr.regularize_identities(t, mesh, graph, registries[t.rank])
        ents = {nid: int(mesh.entity[nid]) for nid in nodes[t.rank]}
        return renames[KIND_SURFACE], sorted(graph.surfaces), ents

    return run_workers(n_parts, worker)


def test_regularize_fig4_surface_groups():
    # two groups spanning three parts, one part holding two names of a group
    nodes = [
        {100: (SNODE, 1), 102: (SNODE, 4), 103: (SNODE, 4)},
        {100: (SNODE, 5), 101: (SNODE, 5), 102: (SNODE, 8),
         103: (SNODE, 2), 104: (SNODE, 2)},
        {101: (SNODE, 3), 104: (SNODE, 6)},
    ]
    registries = [
        {100: {1}, 102: {1}, 103: {1}},
        {100: {0}, 101: {2}, 102: {0}, 103: {0}, 104: {2}},
        {101: {1}, 104: {1}},
    ]
    res = _run_surface_regularization(3, nodes, registries)
    maps = [r[0] for r in res]
    assert maps[0] == {4: 2}
    assert maps[1] == {5: 1, 8: 2}
    assert maps[2] == {3: 1, 6: 2}
    for renamed, surfs, ents in res:
        assert surfs == [1, 2]
    assert res[0][2] == {100: 1, 102: 2, 103: 2}
    assert res[1][2] == {100: 1, 101: 1, 102: 2, 103: 2, 104: 2}
    assert res[2][2] == {101: 1, 104: 2}


def test_regularize_matches_union_find_oracle():
    for seed in range(40):
        n_parts, nodes, registries, owned, expected = \
            synthetic_identity_case(seed)
        res = _run_surface_regularization(n_parts, nodes, registries, owned)
        for rank, (_renames, surfs, ents) in enumerate(res):
            want = expected[rank]
            assert surfs == sorted(set(want.values())), f"seed {seed}"
            for nid, sid in ents.items():
                old = nodes[rank][nid][1]
                assert sid == want[old], f"seed {seed} node {nid}"


def test_regularize_idempotent():
    n_parts, nodes, registries, _owned, _ = synthetic_identity_case(7)

    def worker(t):
        mesh = _identity_mesh(nodes[t.rank])
        graph = EntityGraph()
        for _nid, (_topo, sid) in nodes[t.rank].items():
            graph.surfaces.setdefault(sid, Surface(sid))
        pr.regularize_identities(t, mesh, graph, registries[t.rank])
        second = pr.regularize_identities(t, mesh, graph, registries[t.rank])
        return second

    for renames in run_workers(n_parts, worker):
        assert all(not m for m in renames.values())


def test_regularize_all_kinds_and_connections():
    # one shared node per kind; the line rename must also rewrite the
    # junction's connection tuples
    def worker(t):
        mesh = _identity_mesh({
            1: (PNODE, 20 + t.rank),
            2: (LNODE, 10 + t.rank),
            3: (SNODE, 30 + 2 * t.rank),
        })
        graph = EntityGraph()
        graph.points[20 + t.rank] = Point(20 + t.rank, 1,
                                          {(KIND_LINE, 10 + t.rank)})
        graph.lines[10 + t.rank] = Line(10 + t.rank)
        graph.surfaces[30 + 2 * t.rank] = Surface(30 + 2 * t.rank)
        registry = {1: {1 - t.rank}, 2: {1 - t.rank}, 3: {1 - t.rank}}
        pr.regularize_identities(t, mesh, graph, registry)
        return (sorted(graph.points), sorted(graph.lines),
                sorted(graph.surfaces), graph.points[20].connections,
                [int(e) for e in mesh.entity[[1, 2, 3]]])

    for pts, lns, srf, conns, ents in run_workers(2, worker):
        assert (pts, lns, srf) == ([20], [10], [30])
        assert conns == {(KIND_LINE, 10)}
        assert ents == [20, 10, 30]


def test_regularize_class_mismatch_raises():
    def worker(t):
        mesh = _identity_mesh({5: (LNODE if t.rank == 0 else SNODE, 9)})
        graph = EntityGraph()
        graph.lines[9] = Line(9)
        graph.surfaces[9] = Surface(9)
        pr.regularize_identities(t, mesh, graph, {5: {1 - t.rank}})

    with pytest.raises(TopologyError):
        run_workers(2, worker)


# -- selection and scattering ------------------------------------------------

def three_part_layout(cx, cy):
    """Smallest part on top right so its rank is highest, mirroring the
    canonical unidirectional-selection example."""
    if cx < 0.5:
        return 0
    return 1 if cy > 0.5 else 2


def make_fig_mesh():
    return grid_mesh(4, 4, tag_fn=lambda cx, cy: 0 if cy < 0.5 else 1)


def test_select_unidirectional_fixture():
    def worker(t):
        st = booted(t, make_fig_mesh, three_part_layout, h=0.25)
        ranking = pr.compute_ranking(t, st.mesh.n_elems())
        sel = pr.select_elements_to_send(st.mesh, st.mesh.shared, ranking,
                                        t.rank)
        return list(ranking), {j: sorted(v) for j, v in sel.items()}

    res = run_workers(3, worker)
    assert res[0][0] == [0, 2, 1]
    # the loaded part ships its whole seam layer, center elements going to
    # the top part only; the middle part ships only toward the top part
    assert res[0][1] == {1: [10, 11, 18, 19, 26, 27], 2: [2, 3]}
    assert res[1][1] == {}
    assert res[2][1] == {1: [12, 13, 14, 15]}
    sent_sets = [set(v) for v in res[0][1].values()]
    assert sent_sets[0] & sent_sets[1] == set()


def test_scatter_moves_triple_node_into_bulk():
    def worker(t):
        st = booted(t, make_fig_mesh, three_part_layout, h=0.25)
        ranking = pr.compute_ranking(t, st.mesh.n_elems())
        sel = pr.select_elements_to_send(st.mesh, st.mesh.shared, ranking,
                                        t.rank)
        rep = pr.scatter_mesh(t, st, sel)
        mesh = st.mesh
        chains = {}
        for n in mesh.alive_nodes():
            if mesh.topo[n] == LNODE:
                chains[int(n)] = (int(mesh.prv[n]), int(mesh.nxt[n]))
        return dict(
            elems=sorted(int(e) for e in mesh.alive_elems()),
            nodes=sorted(int(n) for n in mesh.alive_nodes()),
            shared={n: sorted(r) for n, r in mesh.shared.items()},
            received=sorted(rep.received),
            chains=chains,
            area=float(mesh.areas().sum()),
        )

    res = run_workers(3, worker)
    assert res[0]["elems"] == [0, 1, 8, 9, 16, 17, 24, 25]
    assert res[2]["elems"] == [2, 3, 4, 5, 6, 7]
    assert sorted(res[0]["elems"] + res[1]["elems"] + res[2]["elems"]) \
        == list(range(32))
    # the old triple node is now interior to the top part
    assert all(12 not in r["shared"] for r in res)
    assert [12 in r["nodes"] for r in res] == [False, True, False]
    # a new triple node appears one ring back
    assert [r["shared"].get(6) for r in res] == [[1, 2], [0, 2], [0, 1]]
    assert abs(sum(r["area"] for r in res) - 1.0) < 1e-12
    # the received interface run is spliced through; the link toward the
    # absent far-side node stays null
    for n in (12, 13):
        prv, nxt = res[1]["chains"][n]
        assert {prv, nxt} == {n - 1, n + 1}
    assert set(res[1]["chains"][11]) == {NULL_ID, 12}


def test_scatter_conservation_iterated():
    def worker(t):
        st = booted(t, make_strip, x_split)
        snapshots = []
        for _ in range(30):
            ranking = pr.compute_ranking(t, st.mesh.n_elems())
            sel = pr.select_elements_to_send(st.mesh, st.mesh.shared,
                                            ranking, t.rank)
            pr.scatter_mesh(t, st, sel)
            mesh = st.mesh
            snapshots.append(dict(
                elems={int(e): (tuple(int(x) for x in mesh.tri[e]),
                                int(mesh.surf[e]))
                       for e in mesh.alive_elems()},
                nodes={int(n): (float(mesh.pos[n, 0]), float(mesh.pos[n, 1]),
                                int(mesh.topo[n]), int(mesh.entity[n]))
                       for n in mesh.alive_nodes()},
                shared={n: sorted(r) for n, r in mesh.shared.items()},
                sel={j: sorted(v) for j, v in sel.items()},
            ))
        return snapshots

    full = make_strip()
    want_elems = {int(e): (tuple(int(x) for x in full.tri[e]),
                           int(full.surf[e]))
                  for e in full.alive_elems()}
    full_tagged, _ = reconstructed(make_strip())
    want_nodes = {int(n): (float(full_tagged.pos[n, 0]),
                           float(full_tagged.pos[n, 1]),
                           int(full_tagged.topo[n]),
                           int(full_tagged.entity[n]))
                  for n in full_tagged.alive_nodes()}

    res = run_workers(2, worker)
    for step in range(30):
        snaps = [r[step] for r in res]
        merged = {}
        for s in snaps:
            for e, data in s["elems"].items():
                assert e not in merged, f"element {e} duplicated at {step}"
                merged[e] = data
        assert merged == want_elems
        union_nodes = {}
        for s in snaps:
            for n, data in s["nodes"].items():
                if n in union_nodes:
                    assert union_nodes[n] == data
                union_nodes[n] = data
        assert set(union_nodes) == set(want_nodes)
        sent = [set(e for v in s["sel"].values() for e in v) for s in snaps]
        assert sent[0] & sent[1] == set()
        for r, s in enumerate(snaps):
            for n, owners in s["shared"].items():
                for j in owners:
                    assert r in snaps[j]["shared"][n]


def test_scatter_rejects_self_routing():
    def worker(t):
        st = booted(t, make_strip, lambda cx, cy: 0)
        e = int(st.mesh.alive_elems()[0])
        pr.scatter_mesh(t, st, {0: [e]})

    with pytest.raises(pr.ProtocolError):
        run_workers(1, worker)


def test_splice_conflict_raises():
    mesh = Mesh()
    mesh.add_node(1, (0.0, 0.0), topo=LNODE, entity=3)
    mesh.add_node(2, (1.0, 0.0), topo=LNODE, entity=3)
    mesh.add_node(4, (2.0, 0.0), topo=LNODE, entity=3)
    mesh.prv[1] = 2
    pr._splice_link(mesh, 1, "prv", 2)  # confirming is fine
    with pytest.raises(pr.ProtocolError):
        pr._splice_link(mesh, 1, "prv", 4)


# -- remesh guards at the partition cut --------------------------------------

def notch(cx, cy):
    """x = 0.5 split with one cell of the right part cut into the left."""
    i, j = int(cx // 0.125), int(cy // 0.125)
    return 1 if i >= 4 or (i, j) == (3, 0) else 0


def mesh_digest(mesh: Mesh, graph: EntityGraph) -> str:
    """Digest of every mesh array, the incidence and sharing maps, and the
    entity graph."""
    h = hashlib.sha256()
    for name in ("pos", "topo", "entity", "prv", "nxt", "bnd", "node_alive",
                 "tri", "surf", "elem_alive"):
        h.update(getattr(mesh, name).tobytes())
    for table in (mesh.n2e, mesh.shared):
        h.update(repr(sorted((n, sorted(s)) for n, s in table.items())).encode())
    h.update(repr((sorted(graph.surfaces), sorted(graph.lines),
                   sorted((pid, p.node, sorted(p.connections))
                          for pid, p in graph.points.items()))).encode())
    return h.hexdigest()


def guard_outcome(part_fn, rank, edge, op):
    """Boot the strip on two workers and apply one remesh operator to
    ``edge`` of ``rank``'s slice; returns (operator result, whether that
    slice changed).  With h = 1 the collapse threshold exceeds every grid
    edge, so only the topological guards can refuse."""
    def worker(t):
        st = booted(t, make_strip, part_fn)
        if t.rank != rank:
            return None
        ctx = RemeshCtx(st.mesh, st.graph, st.alloc, RemeshParams(h=1.0))
        before = mesh_digest(st.mesh, st.graph)
        out = op(ctx, *edge)
        return out, mesh_digest(st.mesh, st.graph) != before

    return run_workers(2, worker)[rank]


def test_edge_blocking_cases():
    # rank 0 of the x = 0.5 split: the seam edge (31, 40) has both ends
    # shared and only one local element; every operator refuses it
    seam = (31, 40)
    assert guard_outcome(x_split, 0, seam, try_collapse) == (False, False)
    assert guard_outcome(x_split, 0, seam, split_edge) == (None, False)
    assert guard_outcome(x_split, 0, seam, try_swap) == (False, False)
    # a spoke with one shared end whose private end dies, and a bulk edge
    for edge in ((39, 40), (19, 20)):
        assert guard_outcome(x_split, 0, edge, try_collapse) == (True, True)
        nid, changed = guard_outcome(x_split, 0, edge, split_edge)
        assert nid is not None and changed


def test_edge_blocking_off_cut_shared_edge():
    # the notch leaves an edge whose endpoints are both shared while the
    # edge itself stays inside one part: collapse refused, split allowed
    def worker(t):
        mesh = booted(t, make_strip, notch).mesh
        return [(n, m) for n in sorted(mesh.shared)
                for m in mesh.node_neighbors(n)
                if m > n and mesh.is_shared(m)
                and len(mesh.edge_elements(n, m)) == 2]

    hits = run_workers(2, worker)
    assert any(hits), "staircase produced no off-cut shared edge"
    for rank, edges in enumerate(hits):
        for edge in edges:
            assert guard_outcome(notch, rank, edge, try_collapse) \
                == (False, False)
            nid, changed = guard_outcome(notch, rank, edge, split_edge)
            assert nid is not None and changed


# -- stencil completion and velocities ---------------------------------------

def unsplit_velocities(make_mesh, mob):
    """Velocities of the whole mesh in one piece: nothing shared, no
    remote stencil samples."""
    full, graph = reconstructed(make_mesh())
    return pr.node_velocities_parallel(full, graph, mob, pr.StencilSupport(),
                                       lnodes_by_line(full))


def test_velocities_agree_across_owners_and_with_sequential():
    mob = reduced_mobility()
    vel_seq = unsplit_velocities(make_tjunction, mob)

    def worker(t):
        st = booted(t, make_tjunction, x_split)
        members = lnodes_by_line(st.mesh)
        sup = pr.complete_temporary_nodes(t, st.mesh, st.graph, members)
        vel = pr.node_velocities_parallel(st.mesh, st.graph, mob, sup, members)
        return (sorted(int(n) for n in st.mesh.alive_nodes()),
                set(st.mesh.shared),
                {int(n): vel[n].copy() for n in st.mesh.alive_nodes()})

    res = run_workers(2, worker)
    (n0, s0, v0), (n1, s1, v1) = res
    assert s0 == s1
    for n in sorted(s0):
        assert np.array_equal(v0[n], v1[n]), f"owners disagree at {n}"
    # the cut runs along the interface lines here, so every stencil is
    # complete on both sides and even matches the one-piece evaluation
    for nodes, _shared, vel in res:
        for n in nodes:
            assert np.array_equal(vel[n], vel_seq[n]), f"node {n}"


def test_velocities_cut_across_interface():
    # cutting the strip horizontally severs its vertical interface line
    # mid-chain; owners must still agree bit-for-bit at the cut node
    mob = reduced_mobility()

    def y_split(cx, cy):
        return 0 if cy < 0.5 else 1

    def worker(t):
        st = booted(t, make_strip, y_split)
        members = lnodes_by_line(st.mesh)
        sup = pr.complete_temporary_nodes(t, st.mesh, st.graph, members)
        vel = pr.node_velocities_parallel(st.mesh, st.graph, mob, sup, members)
        sides = {n: sorted(r[0][0] for r in sup.line_sides.get(
            (int(st.mesh.entity[n]), n), [])) for n in st.mesh.shared
            if st.mesh.topo[n] == LNODE}
        return (set(st.mesh.shared), {n: vel[n].copy() for n in sides},
                sides)

    (s0, v0, sides0), (s1, v1, sides1) = run_workers(2, worker)
    assert s0 == s1 and 40 in s0
    assert sides0 == sides1
    assert sides0[40] == [31, 49]  # both chain directions assembled
    for n in v0:
        assert np.array_equal(v0[n], v1[n])


def test_velocities_make_one_banded_solve(monkeypatch):
    # a closed island on rank 0 and an interface cut by the partition: one
    # evaluation solves periodic, natural and not-a-knot chains together
    def tag(cx, cy):
        if 0.125 < cx < 0.375 and 0.125 < cy < 0.375:
            return 2
        return 0 if cx < 0.5 else 1

    def y_split(cx, cy):
        return 0 if cy < 0.5 else 1

    calls, kinds = {}, {}
    real_solve, real_curvature = geometry.solve_banded, pr.spline_curvature

    def counting_solve(*args, **kwargs):
        key = threading.get_ident()
        calls[key] = calls.get(key, 0) + 1
        return real_solve(*args, **kwargs)

    def recording_curvature(chains, ends):
        kinds[threading.get_ident()] = sorted(set(ends))
        return real_curvature(chains, ends)

    monkeypatch.setattr(geometry, "solve_banded", counting_solve)
    monkeypatch.setattr(pr, "spline_curvature", recording_curvature)

    def worker(t):
        st = booted(t, lambda: grid_mesh(8, 8, tag_fn=tag), y_split)
        members = lnodes_by_line(st.mesh)
        sup = pr.complete_temporary_nodes(t, st.mesh, st.graph, members)
        key = threading.get_ident()
        calls.pop(key, None)
        pr.node_velocities_parallel(st.mesh, st.graph, reduced_mobility(), sup,
                                    members)
        return calls.get(key, 0), kinds[key]

    (c0, k0), (c1, k1) = run_workers(2, worker)
    assert c0 == c1 == 1
    assert k0 == [NATURAL, PERIODIC, NOT_A_KNOT]
    assert k1 == [NATURAL, NOT_A_KNOT]


def test_stencil_support_is_one_exchange():
    # the T-junction cut along y = 0.5 shares line nodes and the junction;
    # every owner pushes its support unasked, in a single all-to-all
    def worker(t):
        st = booted(t, make_tjunction, lambda cx, cy: 0 if cy < 0.5 else 1)
        calls = []
        real = t.all_to_all

        def counting(payloads):
            calls.append(payloads)
            return real(payloads)

        t.all_to_all = counting
        members = lnodes_by_line(st.mesh)
        sup = pr.complete_temporary_nodes(t, st.mesh, st.graph, members)
        classes = {int(st.mesh.topo[n]) for n in st.mesh.shared}
        return calls, classes, sup

    (c0, k0, s0), (c1, k1, s1) = run_workers(2, worker)
    assert k0 == k1 and {LNODE, PNODE} <= k0
    assert len(c0) == len(c1) == 1
    assert c0[0][1] and c1[0][0]
    assert s0.line_sides.keys() == s1.line_sides.keys()
    assert s0.point_arms.keys() == s1.point_arms.keys()
    for n, arms in s0.point_arms.items():
        assert [m for m, _ in arms] == [m for m, _ in s1.point_arms[n]]


class PushedBy1:
    """Rank 0 of two, whose one exchange delivers ``records`` from rank 1."""
    rank, size = 0, 2

    def __init__(self, records):
        self.records = records

    def all_to_all(self, payloads):
        return [payloads[0], encode_records(self.records)]


def pushed_by_1(st, records):
    """Stencil support on rank 0 after rank 1 pushed ``records``."""
    return pr.complete_temporary_nodes(PushedBy1(records), st.mesh, st.graph,
                                       lnodes_by_line(st.mesh))


def strip_rank0():
    """Rank 0's slice of the strip cut across its interface at y = 0.5."""
    return run_workers(2, lambda t: booted(
        t, make_strip, lambda cx, cy: 0 if cy < 0.5 else 1))[0]


def test_stencil_support_accepts_a_co_owner_record():
    st = strip_rank0()
    lid = int(st.mesh.entity[40])
    rec = TempNodeReply(MODE_CHAIN, lid, 40, ((49, 0.5, 0.625),))
    sup = pushed_by_1(st, [rec])
    assert [run[0][0] for run in sup.line_sides[(lid, 40)]] == [31, 49]


@pytest.mark.parametrize("node", [31, 76])
def test_stencil_support_from_non_sharer_raises(node):
    # node 31 is private to rank 0, node 76 lives on rank 1 only
    st = strip_rank0()
    assert node not in st.mesh.shared
    rec = TempNodeReply(MODE_CHAIN, int(st.mesh.entity[40]), node, ())
    with pytest.raises(pr.ProtocolError, match="does not share"):
        pushed_by_1(st, [rec])


def test_stencil_support_mode_or_line_mismatch_raises():
    st = strip_rank0()
    assert st.mesh.is_shared(40) and st.mesh.topo[40] == LNODE
    lid = int(st.mesh.entity[40])
    arms = TempNodeReply(MODE_ARMS, NULL_ID, 40, ())
    with pytest.raises(pr.ProtocolError, match="held as class"):
        pushed_by_1(st, [arms])
    other = TempNodeReply(MODE_CHAIN, lid + 100, 40, ((49, 0.5, 0.625),))
    with pytest.raises(pr.ProtocolError, match="on line"):
        pushed_by_1(st, [other])


def test_np1_velocities_bitwise_sequential():
    mob = reduced_mobility()
    vel_seq = unsplit_velocities(make_tjunction, mob)

    def worker(t):
        st = booted(t, make_tjunction, lambda cx, cy: 0)
        members = lnodes_by_line(st.mesh)
        sup = pr.complete_temporary_nodes(t, st.mesh, st.graph, members)
        vel = pr.node_velocities_parallel(st.mesh, st.graph, mob, sup, members)
        return vel

    (vel,) = run_workers(1, worker)
    assert np.array_equal(vel, vel_seq)


# -- collective movement -----------------------------------------------------

def test_parallel_move_matches_sequential_single_worker():
    full, _ = reconstructed(make_strip())
    nodes = full.alive_nodes()[:20]
    rng = np.random.default_rng(3)
    delta = rng.normal(scale=0.08, size=(len(nodes), 2))

    ref, _ = reconstructed(make_strip())
    n_ref = settle_offsets(ref, nodes, delta.copy())

    def worker(t):
        mesh, _ = reconstructed(make_strip())
        n = pr.parallel_move(t, mesh, nodes, delta.copy())
        return n, mesh.pos.copy()

    ((n_par, pos),) = run_workers(1, worker)
    assert n_par == n_ref
    assert np.array_equal(pos, ref.pos)


def test_parallel_move_shared_agreement():
    # both ranks push the seam; one side flips, both sides must damp alike
    def worker(t):
        st = booted(t, make_strip, x_split)
        mesh = st.mesh
        nodes = np.array(sorted(mesh.shared), dtype=np.int64)
        delta = np.zeros((len(nodes), 2))
        delta[:, 0] = -0.11  # past the first interior column of part 0
        moved = pr.parallel_move(t, mesh, nodes, delta)
        return moved, {int(n): mesh.pos[n].copy() for n in nodes}, \
            float(mesh.areas().min())

    (m0, p0, a0), (m1, p1, a1) = run_workers(2, worker)
    assert p0.keys() == p1.keys()
    for n in p0:
        assert np.array_equal(p0[n], p1[n])
    assert a0 > MIN_AREA and a1 > MIN_AREA
    assert m0 == m1
    moved_any = any(not np.array_equal(p0[n], np.array([0.5, (n // 9) / 8]))
                    for n in p0)
    assert moved_any


def test_parallel_move_exhaustion_reverts_everywhere():
    def worker(t):
        st = booted(t, make_strip, x_split)
        mesh = st.mesh
        # wreck one private element so the flip set can never clear
        tri = mesh.tri[int(mesh.alive_elems()[0 if t.rank == 0 else -1])]
        wrecked = int(tri[0])
        keep = mesh.pos[wrecked].copy()
        mesh.pos[wrecked] = mesh.pos[int(tri[1])]
        nodes = np.array(sorted(mesh.shared), dtype=np.int64)
        base = mesh.pos[nodes].copy()
        delta = np.full((len(nodes), 2), 0.01)
        moved = pr.parallel_move(t, mesh, nodes, delta)
        reverted = np.array_equal(mesh.pos[nodes], base)
        mesh.pos[wrecked] = keep
        return moved, reverted

    for moved, reverted in run_workers(2, worker):
        assert moved == 0
        assert reverted


# -- increments --------------------------------------------------------------

# sha256 of stats.csv, the final snapshot and the final in-memory state of a
# short tessellated run, recorded with the former sequential increment; the
# one-worker increment must keep reproducing them byte for byte.  The digests
# depend on the floating-point results of numpy 2.4 / scipy 1.17 builds, so a
# toolchain update may need them recorded again.
GOLDEN_RUN = dict(domain=0.2, grains=8, increments=4, seed=3, output_every=2)
GOLDEN_SHA256 = {
    "stats.csv":
        "2af0995e7202fea053416f65949e390061dff7a263bfa929eab251f4c9414bbd",
    "snapshot_0004.vtk":
        "87564e9479b39ed3e4e3fd48ef2ce063a0cdfbb13a6031087b8c2ee8b9335272",
}
GOLDEN_STATE_SHA256 = \
    "8bdcaf2a0c5880a148fffd1a5595814685b645de7a941df64be0b30005836c6b"


def state_sha256(mesh: Mesh, graph: EntityGraph) -> str:
    """Digest of the exact live mesh arrays and the sorted entity ids."""
    h = hashlib.sha256()
    nodes, elems = mesh.alive_nodes(), mesh.alive_elems()
    for a, dtype in ((nodes, np.int64), (mesh.pos[nodes], np.float64),
                     (mesh.topo[nodes], np.int64),
                     (mesh.entity[nodes], np.int64),
                     (elems, np.int64), (mesh.tri[elems], np.int64),
                     (mesh.surf[elems], np.int64),
                     (sorted(graph.surfaces), np.int64),
                     (sorted(graph.lines), np.int64),
                     (sorted(graph.points), np.int64)):
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return h.hexdigest()


def test_parallel_increment_single_worker_matches_sequential(tmp_path,
                                                             monkeypatch):
    states = []

    def keep_state(transport, state, *args):
        states.append(state)
        return pr.parallel_increment(transport, state, *args)

    monkeypatch.setattr(runner, "parallel_increment", keep_state)
    run(RunConfig(**GOLDEN_RUN, out=str(tmp_path)))
    for name, digest in GOLDEN_SHA256.items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, name
    assert len(states) == GOLDEN_RUN["increments"]
    assert state_sha256(states[-1].mesh, states[-1].graph) == GOLDEN_STATE_SHA256


# The same run on two workers: the snapshots merge two pieces with shared
# nodes, and ids allocated after the bootstrap are stride-disjoint per rank.
# Recorded before the snapshot gather and the id allocators were merged;
# stats.csv and the final states recorded again when the shared-node windows
# moved from scipy's not-a-knot spline into the batched solve, whose round-off
# moved 15 of 3055 final node positions by at most 1.4e-17 mm (ids and
# elements unchanged) and one mean_size_mm value in its 16th digit.
GOLDEN_RUN_2 = dict(GOLDEN_RUN, n_parts=2)
GOLDEN_SHA256_2 = {
    "stats.csv":
        "2d912ca1205b6e0ff36c1d5c4130f1d0318bd33cd58aefbaf03bbb56f01890b9",
    "snapshot_0002.vtk":
        "fa8b82bfc0fc7fbb4e38ff1eb586a114792bfaa3ab51f4a81fb68e8862f42392",
    "snapshot_0004.vtk":
        "3e7eb20d715464c63139602ec53ed18841609394302f96036f8fac879814b1a0",
    "hist_0002.csv":
        "93247c1b7f5a01d4b9cb8b1fe5ca2f02555a4f0c91522c291985b648077b2e16",
    "hist_0004.csv":
        "9c58492793d72b15adb4730c49c81986e98dc4ead9b4cf6dad740324050e3ff2",
}
GOLDEN_STATE_SHA256_2 = (
    "83cf06ec48ab781932ce10215ff05db96d3e1c2a5575150ca4c43720018ca9ab",
    "4b255aa3c0dfb44a00e451c8b78bd19b6f472ee389dbc19e30dc2a47f83ab254",
)


def test_parallel_increment_two_workers_golden(tmp_path, monkeypatch):
    states = {}

    def keep_state(transport, state, *args):
        states[transport.rank] = state
        return pr.parallel_increment(transport, state, *args)

    monkeypatch.setattr(runner, "parallel_increment", keep_state)
    run(RunConfig(**GOLDEN_RUN_2, out=str(tmp_path)))
    for name, digest in GOLDEN_SHA256_2.items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, name
    assert tuple(state_sha256(states[r].mesh, states[r].graph)
                 for r in range(2)) == GOLDEN_STATE_SHA256_2


def test_parallel_increment_two_workers_consistent():
    def worker(t):
        st = booted(t, make_tjunction, x_split)
        shared_traj = []
        for _ in range(3):
            pr.parallel_increment(t, st, DT)
            shared_traj.append({int(n): st.mesh.pos[n].copy()
                                for n in st.mesh.shared})
        mesh = st.mesh
        areas = mesh.areas()
        return dict(
            traj=shared_traj,
            total=float(areas.sum()),
            min_area=float(areas.min()),
            shared={n: sorted(r) for n, r in mesh.shared.items()},
            node_data={int(n): (float(mesh.pos[n, 0]), float(mesh.pos[n, 1]),
                                int(mesh.topo[n]), int(mesh.entity[n]))
                       for n in mesh.shared},
        )

    res = run_workers(2, worker)
    assert abs(res[0]["total"] + res[1]["total"] - 1.0) < 1e-9
    assert res[0]["min_area"] > MIN_AREA
    assert res[1]["min_area"] > MIN_AREA
    for k in range(3):
        t0, t1 = res[0]["traj"][k], res[1]["traj"][k]
        assert set(t0) == set(t1)
        for n in t0:
            assert np.array_equal(t0[n], t1[n])
    for r in range(2):
        for n, owners in res[r]["shared"].items():
            assert owners == [1 - r]
            assert res[1 - r]["node_data"][n] == res[r]["node_data"][n]


# -- bootstrap ---------------------------------------------------------------

def test_bootstrap_consistent_ids_need_no_renames():
    def worker(t):
        full = make_tjunction()
        st = pr.bootstrap_state(t, full, parts_by(full, x_split), H)
        renames = pr.regularize_identities(t, st.mesh, st.graph)
        return renames, sorted(st.graph.surfaces), sorted(st.graph.lines)

    res = run_workers(2, worker)
    for renames, _surfs, _lines in res:
        assert all(not m for m in renames.values())


def test_bootstrap_covers_full_mesh():
    full_ref, graph_ref = reconstructed(make_tjunction())

    def worker(t):
        full = make_tjunction()
        st = pr.bootstrap_state(t, full, parts_by(full, x_split), H)
        return (sorted(int(e) for e in st.mesh.alive_elems()),
                sorted(st.graph.points),
                {pid: sorted(p.connections)
                 for pid, p in st.graph.points.items()})

    res = run_workers(2, worker)
    all_elems = sorted(res[0][0] + res[1][0])
    assert all_elems == [int(e) for e in full_ref.alive_elems()]
    for _elems, pids, conns in res:
        for pid in pids:
            assert set(conns[pid]) <= graph_ref.points[pid].connections


def test_bootstrap_ids_stride_disjoint():
    # each rank allocates every kind above the highest id the full mesh
    # uses, in its own residue class modulo the worker count
    full, graph = reconstructed(make_tjunction())
    ceilings = {KIND_NODE: int(full.alive_nodes().max()) + 1,
                KIND_ELEM: int(full.alive_elems().max()) + 1,
                KIND_POINT: max(graph.points) + 1,
                KIND_LINE: max(graph.lines) + 1,
                KIND_SURFACE: max(graph.surfaces) + 1}

    def worker(t):
        st = booted(t, make_tjunction, x_split)
        return {k: [st.alloc.take(k) for _ in range(3)] for k in ceilings}

    for rank, taken in enumerate(run_workers(2, worker)):
        for kind, ids in taken.items():
            assert 0 <= ids[0] - ceilings[kind] < 2
            assert ids[0] % 2 == rank
            assert ids[1:] == [ids[0] + 2, ids[0] + 4]


def test_walk_outward_stops_at_junction():
    mesh = Mesh()
    mesh.add_node(1, (0.0, 0.0), topo=PNODE, entity=50)
    mesh.add_node(2, (1.0, 0.0), topo=LNODE, entity=7)
    mesh.add_node(3, (2.0, 0.0), topo=LNODE, entity=7)
    mesh.add_node(4, (3.0, 0.0), topo=LNODE, entity=7)
    mesh.prv[2], mesh.nxt[2] = 1, 3
    mesh.prv[3], mesh.nxt[3] = 2, 4
    mesh.prv[4], mesh.nxt[4] = 3, NULL_ID

    run = pr._walk_outward(mesh, 7, 3, 2)
    assert [m for m, _ in run] == [2, 1]  # endpoint junction included
    run = pr._walk_outward(mesh, 7, 3, 4)
    assert [m for m, _ in run] == [4]  # chain break stops the walk
