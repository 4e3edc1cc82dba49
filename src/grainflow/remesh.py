"""Mesh maintenance: collapse, smooth, glide, split and swap.

One maintenance pass runs the operators in a fixed order: collapse short
edges to a fixpoint, relax bulk nodes, glide line nodes tangentially, split
long edges to a fixpoint, then swap away badly shaped elements.  All sweeps
visit candidates in ascending id order so reruns on the same mesh reproduce
the same mesh.

Topology changes respect node precedence (junction beats line node beats
bulk node) and keep every geometric entity consistent:

* a collapse may never remove a shared node, a corner, or a wall node along
  anything but its own wall;
* a surface may lose its last element only through the collapse of a whole
  boundary line (both endpoints junctions, no line nodes left) - the
  designated disappearance path - or through the direct removal of a
  one-element grain whose boundary carries no junction pair;
* whenever two zero-length lines end up joining the same pair of junctions
  they are fused, keeping the lower id.

Operators silently skip anything that would break these rules; a skipped
candidate is retried on a later pass once the surrounding mesh has changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from collections import deque
from itertools import combinations

from .entities import (EntityGraph, KIND_LINE, is_interface_edge,
                       lnodes_by_line)
from .mesh import (Mesh, NULL_ID, PNODE, LNODE, SNODE, BND_NONE, BND_CORNER,
                   BND_TANGENT_X, BND_TANGENT_Y, TopologyError,
                   is_domain_boundary_edge, _tri_area)
from .state import KIND_ELEM, KIND_NODE, IdAllocator, RemeshParams, SimState

MIN_AREA = 1e-12
SQRT3_4 = 4.0 * np.sqrt(3.0)

# flip back-off: at most this many halving rounds, and a node whose offset
# factor drops below the floor stops moving altogether
BACKOFF_ROUNDS = 80
BACKOFF_MIN_FACTOR = 2.0 ** -12


@dataclass
class PassStats:
    collapsed: int = 0
    killed: int = 0
    smoothed: int = 0
    glided: int = 0
    split: int = 0
    swapped: int = 0

    def total(self) -> int:
        return (self.collapsed + self.killed + self.smoothed + self.glided
                + self.split + self.swapped)


class RemeshCtx:
    """Mesh plus the running counts the operators keep up to date during
    one ``remesh_pass``.

    ``line_count`` tracks live L-nodes per line (absent means zero) and
    ``surf_count`` live elements per surface; both let the sweeps decide
    line-disappearance and grain-death questions in O(1).
    """

    def __init__(self, mesh: Mesh, graph: EntityGraph, alloc: IdAllocator,
                 params: RemeshParams) -> None:
        self.mesh = mesh
        self.graph = graph
        self.alloc = alloc
        self.params = params
        self.line_count: dict[int, int] = {
            lid: len(v) for lid, v in lnodes_by_line(mesh).items()}
        self.surf_count: dict[int, int] = {}
        eids = mesh.alive_elems()
        for s in mesh.surf[eids]:
            s = int(s)
            self.surf_count[s] = self.surf_count.get(s, 0) + 1

    def whole_line_edge(self, a: int, b: int) -> int | None:
        """Line id if edge (a, b) realizes an entire L-node-free line."""
        g = self.graph
        pa = g.points.get(int(self.mesh.entity[a]))
        pb = g.points.get(int(self.mesh.entity[b]))
        if pa is None or pb is None:
            return None
        la = {lid for k, lid in pa.connections if k == KIND_LINE}
        lb = {lid for k, lid in pb.connections if k == KIND_LINE}
        zero = [lid for lid in la & lb if self.line_count.get(lid, 0) == 0]
        return min(zero) if zero else None

    def drop_elems(self, eids) -> list[int]:
        """Remove elements; returns surface ids that ran out of elements."""
        died = []
        for e in eids:
            s = int(self.mesh.surf[e])
            self.mesh.remove_element(e)
            self.surf_count[s] -= 1
            if self.surf_count[s] == 0:
                del self.surf_count[s]
                self.graph.surfaces.pop(s, None)
                died.append(s)
        return died


# -- element quality ---------------------------------------------------------

def tri_qualities(p: np.ndarray, h: float):
    """(q_shape, q) for triangles given as an (..., 3, 2) position array.

    q_shape compares the triangle with the equilateral one (1 when regular),
    q folds in how far the mean edge length strays from the target spacing.
    """
    e0 = p[..., 1, :] - p[..., 0, :]
    e1 = p[..., 2, :] - p[..., 1, :]
    e2 = p[..., 0, :] - p[..., 2, :]
    l0 = np.linalg.norm(e0, axis=-1)
    l1 = np.linalg.norm(e1, axis=-1)
    l2 = np.linalg.norm(e2, axis=-1)
    area = np.abs(_tri_area(p))
    denom = l0 ** 2 + l1 ** 2 + l2 ** 2
    q_shape = np.where(denom > 0, SQRT3_4 * area / denom, 0.0)
    hbar = (l0 + l1 + l2) / 3.0
    r = hbar / h
    q_size = np.minimum(r, np.where(r > 0, 1.0 / r, 0.0))
    return q_shape, q_shape * q_size


def element_qualities(mesh: Mesh, eids, h: float):
    return tri_qualities(mesh.pos[mesh.tri[eids]], h)


# -- collapse ----------------------------------------------------------------

def _surf_set(mesh: Mesh, nid: int, skip=()) -> set[int]:
    return {int(mesh.surf[e]) for e in mesh.n2e[nid] if e not in skip}


def _pick_survivor(mesh: Mesh, a: int, b: int):
    ta, tb = int(mesh.topo[a]), int(mesh.topo[b])
    if ta != tb:
        return (a, b) if ta < tb else (b, a)

    def keep_rank(n):
        bnd = int(mesh.bnd[n])
        wall = 0 if bnd == BND_CORNER else (1 if bnd != BND_NONE else 2)
        return (wall, 0 if mesh.is_shared(n) else 1, n)
    s = min(a, b, key=keep_rank)
    return s, (b if s == a else a)


def try_collapse(ctx: RemeshCtx, a: int, b: int) -> bool:
    """Collapse edge (a, b) if every rule allows it; True when done."""
    mesh, graph = ctx.mesh, ctx.graph
    a, b = int(a), int(b)
    if (a >= len(mesh.node_alive) or b >= len(mesh.node_alive)
            or not mesh.node_alive[a] or not mesh.node_alive[b]):
        return False
    elems = mesh.edge_elements(a, b)
    if not elems:
        return False
    if float(np.linalg.norm(mesh.pos[a] - mesh.pos[b])) >= ctx.params.delta_c:
        return False

    surv, dead = _pick_survivor(mesh, a, b)
    if mesh.is_shared(dead):
        return False
    if mesh.bnd[dead] == BND_CORNER:
        return False
    if mesh.bnd[dead] != BND_NONE and not is_domain_boundary_edge(mesh, a, b):
        return False

    ta, tb = int(mesh.topo[a]), int(mesh.topo[b])
    lid_vanish = None
    if ta == LNODE and tb == LNODE:
        if mesh.entity[a] != mesh.entity[b]:
            return False
        if int(mesh.nxt[a]) != b and int(mesh.prv[a]) != b:
            return False
    elif {ta, tb} == {LNODE, PNODE}:
        l = a if ta == LNODE else b
        p = b if ta == LNODE else a
        if int(mesh.prv[l]) != p and int(mesh.nxt[l]) != p:
            return False
    elif ta == PNODE and tb == PNODE:
        lid_vanish = ctx.whole_line_edge(a, b)
        if lid_vanish is None:
            return False

    apexes = {int(n) for e in elems for n in mesh.tri[e]} - {a, b}
    common = set(mesh.node_neighbors(a)) & set(mesh.node_neighbors(b))
    if common != apexes:
        return False

    removed = set(elems)
    by_surf: dict[int, int] = {}
    for e in elems:
        s = int(mesh.surf[e])
        by_surf[s] = by_surf.get(s, 0) + 1
    dying = {s for s, c in by_surf.items() if ctx.surf_count[s] == c}
    if dying and lid_vanish is None:
        return False

    # apex entities must survive untouched; an L apex may only lose a dying
    # surface, which demotes it to a bulk node
    demote: list[tuple[int, int]] = []
    for x in sorted(apexes):
        post = _surf_set(mesh, x, skip=removed)
        if not post:
            return False
        lost = _surf_set(mesh, x) - post
        if lost - dying:
            return False
        if lost:
            if mesh.topo[x] == LNODE:
                if mesh.is_shared(x) or len(post) != 1:
                    return False
                demote.append((x, min(post)))
            # a junction that loses a dying surface persists as-is

    if mesh.is_shared(surv) or mesh.bnd[surv] == BND_CORNER:
        newpos = mesh.pos[surv].copy()
    elif ta == tb and (mesh.bnd[surv] == BND_NONE
                       or is_domain_boundary_edge(mesh, a, b)):
        newpos = 0.5 * (mesh.pos[a] + mesh.pos[b])
    else:
        newpos = mesh.pos[surv].copy()

    affected = sorted((mesh.n2e[dead] | mesh.n2e[surv]) - removed)
    if affected:
        tri = mesh.tri[affected].copy()
        tri[tri == dead] = surv
        p = mesh.pos[tri]
        p[tri == surv] = newpos
        if np.any(_tri_area(p) <= MIN_AREA):
            return False

    # -- commit --
    rel: list[int] = []
    if ta == PNODE and tb == PNODE:
        rel = [n for n in mesh.node_neighbors(dead)
               if mesh.topo[n] == LNODE
               and (int(mesh.prv[n]) == dead or int(mesh.nxt[n]) == dead)]
    ctx.drop_elems(sorted(removed))
    for e in sorted(mesh.n2e[dead].copy()):
        mesh.replace_node_in_element(e, dead, surv)
    mesh.pos[surv] = newpos

    if mesh.topo[dead] == LNODE:
        lid = int(mesh.entity[dead])
        if mesh.topo[surv] == LNODE:
            if int(mesh.nxt[surv]) == dead:
                nn = int(mesh.nxt[dead])
                mesh.nxt[surv] = nn
                if nn != NULL_ID and mesh.topo[nn] == LNODE:
                    mesh.prv[nn] = surv
            elif int(mesh.prv[surv]) == dead:
                pp = int(mesh.prv[dead])
                mesh.prv[surv] = pp
                if pp != NULL_ID and mesh.topo[pp] == LNODE:
                    mesh.nxt[pp] = surv
        else:  # L dies into its terminal junction
            o = int(mesh.nxt[dead]) if int(mesh.prv[dead]) == surv \
                else int(mesh.prv[dead])
            if o != NULL_ID and mesh.node_alive[o] and mesh.topo[o] == LNODE:
                if int(mesh.prv[o]) == dead:
                    mesh.prv[o] = surv
                elif int(mesh.nxt[o]) == dead:
                    mesh.nxt[o] = surv
        ctx.line_count[lid] = ctx.line_count.get(lid, 1) - 1
        if ctx.line_count[lid] <= 0:
            ctx.line_count.pop(lid, None)
    elif mesh.topo[dead] == PNODE:
        dead_pt = graph.points.pop(int(mesh.entity[dead]))
        surv_pt = graph.points[int(mesh.entity[surv])]
        graph.lines.pop(lid_vanish, None)
        ctx.line_count.pop(lid_vanish, None)
        dead_pt.connections.discard((KIND_LINE, lid_vanish))
        surv_pt.connections.discard((KIND_LINE, lid_vanish))
        surv_pt.connections |= dead_pt.connections
        for n in rel:
            if int(mesh.prv[n]) == dead:
                mesh.prv[n] = surv
            if int(mesh.nxt[n]) == dead:
                mesh.nxt[n] = surv

    mesh.remove_node(dead)

    for x, s in demote:
        _demote_lnode(ctx, x, s)
    if mesh.topo[surv] == PNODE:
        _fuse_duplicate_lines(ctx, surv)
    return True


def _demote_lnode(ctx: RemeshCtx, x: int, surf_id: int) -> None:
    """Turn an L-node whose interface vanished into a bulk node."""
    mesh, graph = ctx.mesh, ctx.graph
    lid = int(mesh.entity[x])
    lp, ln = int(mesh.prv[x]), int(mesh.nxt[x])
    for o, side in ((lp, 0), (ln, 1)):
        if o != NULL_ID and o < len(mesh.node_alive) and mesh.node_alive[o] \
                and mesh.topo[o] == LNODE:
            other = ln if side == 0 else lp
            if int(mesh.prv[o]) == x:
                mesh.prv[o] = other
            elif int(mesh.nxt[o]) == x:
                mesh.nxt[o] = other
    mesh.topo[x] = SNODE
    mesh.entity[x] = surf_id
    mesh.prv[x] = NULL_ID
    mesh.nxt[x] = NULL_ID
    n = ctx.line_count.get(lid, 1) - 1
    if n > 0:
        ctx.line_count[lid] = n
        return
    ctx.line_count.pop(lid, None)
    # the line ran out of nodes; if its remaining ends coincide it is a
    # self-loop around a dead grain and disappears entirely
    if lp == ln and lp != NULL_ID and lp < len(mesh.node_alive) \
            and mesh.node_alive[lp] and mesh.topo[lp] == PNODE:
        graph.lines.pop(lid, None)
        pt = graph.points.get(int(mesh.entity[lp]))
        if pt is not None:
            pt.connections.discard((KIND_LINE, lid))


def _fuse_duplicate_lines(ctx: RemeshCtx, pnode: int) -> None:
    """Merge L-node-free lines that join the same pair of junctions."""
    mesh, graph = ctx.mesh, ctx.graph
    pt = graph.points.get(int(mesh.entity[pnode]))
    if pt is None:
        return
    for y in mesh.node_neighbors(pnode):
        if mesh.topo[y] != PNODE:
            continue
        yt = graph.points.get(int(mesh.entity[y]))
        if yt is None:
            continue
        mine = {lid for k, lid in pt.connections if k == KIND_LINE}
        both = sorted(lid for k, lid in yt.connections
                      if k == KIND_LINE and lid in mine
                      and ctx.line_count.get(lid, 0) == 0)
        for lid in both[1:]:
            graph.lines.pop(lid, None)
            pt.connections.discard((KIND_LINE, lid))
            yt.connections.discard((KIND_LINE, lid))


def _kill_tiny_grain(ctx: RemeshCtx, eid: int) -> bool:
    """Remove a one-element grain with no junction-pair boundary.

    Covers the closed-loop grain (three L-nodes of one loop line) and the
    loop pinched at a single junction (junction plus two L-nodes).  The two
    or three boundary nodes merge into one, neighboring grains absorb the
    area, the loop line and the grain disappear.
    """
    mesh, graph = ctx.mesh, ctx.graph
    nodes = [int(n) for n in mesh.tri[eid]]
    if any(mesh.is_shared(n) or mesh.bnd[n] != BND_NONE for n in nodes):
        return False
    topos = sorted(int(mesh.topo[n]) for n in nodes)
    lnodes = sorted(n for n in nodes if mesh.topo[n] == LNODE)
    if topos == [LNODE, LNODE, LNODE]:
        lids = {int(mesh.entity[n]) for n in lnodes}
        if len(lids) != 1:
            return False
        surv = lnodes[0]
        gone = lnodes[1:]
        newpos = mesh.pos[nodes].mean(axis=0)
    elif topos == [PNODE, LNODE, LNODE]:
        lids = {int(mesh.entity[n]) for n in lnodes}
        if len(lids) != 1:
            return False
        surv = next(n for n in nodes if mesh.topo[n] == PNODE)
        for l in lnodes:
            ends = {int(mesh.prv[l]), int(mesh.nxt[l])}
            if not ends <= {surv, *lnodes}:
                return False
        gone = lnodes
        newpos = mesh.pos[surv].copy()
    else:
        return False

    lid = lids.pop()
    dead_surf = int(mesh.surf[eid])
    # every element spanning two of the merging nodes flattens away
    removed = {eid}
    for x, y in combinations(sorted([surv, *gone]), 2):
        removed |= mesh.n2e[x] & mesh.n2e[y]
    per_surf: dict[int, int] = {}
    for e in removed:
        s = int(mesh.surf[e])
        per_surf[s] = per_surf.get(s, 0) + 1
    for s, c in per_surf.items():
        if s != dead_surf and ctx.surf_count.get(s, 0) <= c:
            return False
    # apexes of the flattened elements must keep their entities
    outer = {int(n) for e in removed for n in mesh.tri[e]} - {surv, *gone}
    for x in sorted(outer):
        post = _surf_set(mesh, x, skip=removed)
        if not post:
            return False
        if (_surf_set(mesh, x) - post) - {dead_surf}:
            return False
        if mesh.topo[x] == LNODE and dead_surf in _surf_set(mesh, x):
            return False

    affected = set()
    for n in (surv, *gone):
        affected |= mesh.n2e[n]
    affected = sorted(affected - removed)
    if affected:
        tri = mesh.tri[affected].copy()
        for g in gone:
            tri[tri == g] = surv
        if np.any([len(set(row)) != 3 for row in tri]):
            return False
        p = mesh.pos[tri]
        p[tri == surv] = newpos
        if np.any(_tri_area(p) <= MIN_AREA):
            return False

    ctx.drop_elems(sorted(removed))
    for g in gone:
        for e in sorted(mesh.n2e[g].copy()):
            mesh.replace_node_in_element(e, g, surv)
        mesh.remove_node(g)
    mesh.pos[surv] = newpos
    graph.lines.pop(lid, None)
    ctx.line_count.pop(lid, None)
    if mesh.topo[surv] == PNODE:
        pt = graph.points.get(int(mesh.entity[surv]))
        if pt is not None:
            pt.connections.discard((KIND_LINE, lid))
    else:
        remaining = _surf_set(mesh, surv)
        mesh.topo[surv] = SNODE
        mesh.entity[surv] = min(remaining)
        mesh.prv[surv] = NULL_ID
        mesh.nxt[surv] = NULL_ID
    return True


def collapse_sweep(ctx: RemeshCtx, scope: set[int] | None = None) -> PassStats:
    """Collapse every edge shorter than delta_c, repeating to a fixpoint."""
    mesh = ctx.mesh
    stats = PassStats()
    while True:
        changed = 0
        for sid in sorted(ctx.surf_count):
            if ctx.surf_count.get(sid) != 1:
                continue
            eid = next((int(e) for e in mesh.alive_elems()
                        if int(mesh.surf[e]) == sid), None)
            if eid is None:
                continue
            if scope is not None and not (set(map(int, mesh.tri[eid])) & scope):
                continue
            if _kill_tiny_grain(ctx, eid):
                stats.killed += 1
                changed += 1
        edges = mesh.edge_array()
        if len(edges):
            ln = np.linalg.norm(mesh.pos[edges[:, 0]] - mesh.pos[edges[:, 1]],
                                axis=1)
            short = edges[ln < ctx.params.delta_c]
            if scope is not None and len(short):
                m = np.array([a in scope or b in scope for a, b in short])
                short = short[m]
            for a, b in short[np.lexsort((short[:, 1], short[:, 0]))] \
                    if len(short) else []:
                if try_collapse(ctx, int(a), int(b)):
                    stats.collapsed += 1
                    changed += 1
        if changed == 0:
            return stats


# -- node relaxation ---------------------------------------------------------

def settle_offsets(mesh: Mesh, nodes: np.ndarray, delta: np.ndarray) -> int:
    """Apply node offsets, backing off wherever an element would flip.

    Offsets halve (and finally zero) for nodes of inverted elements until the
    whole mesh is valid again; with all offsets zeroed the original valid
    mesh returns, so the loop always terminates.
    """
    if len(nodes) == 0:
        return 0
    base = mesh.pos[nodes].copy()
    f = np.ones(len(nodes))
    lookup = np.full(len(mesh.node_alive), -1, dtype=np.int64)
    lookup[nodes] = np.arange(len(nodes))
    eids = mesh.alive_elems()
    for _ in range(BACKOFF_ROUNDS):
        mesh.pos[nodes] = base + f[:, None] * delta
        areas = _tri_area(mesh.pos[mesh.tri[eids]])
        bad = eids[areas <= MIN_AREA]
        if len(bad) == 0:
            break
        idx = lookup[mesh.tri[bad]]
        idx = np.unique(idx[idx >= 0])
        f[idx] *= 0.5
        f[f < BACKOFF_MIN_FACTOR] = 0.0
    else:
        mesh.pos[nodes] = base
        return 0
    return int(np.count_nonzero(f))


def smooth_bulk(mesh: Mesh, eligible: np.ndarray | None = None) -> int:
    """One Jacobi relaxation of bulk nodes toward their neighbor average."""
    nids = mesh.alive_nodes()
    if eligible is None:
        eligible = nids[mesh.topo[nids] == SNODE]
    eligible = np.asarray(
        [n for n in eligible if not mesh.is_shared(int(n))], dtype=np.int64)
    if len(eligible) == 0:
        return 0
    edges = mesh.edge_array()
    acc = np.zeros_like(mesh.pos)
    deg = np.zeros(len(mesh.node_alive))
    np.add.at(acc, edges[:, 0], mesh.pos[edges[:, 1]])
    np.add.at(acc, edges[:, 1], mesh.pos[edges[:, 0]])
    np.add.at(deg, edges[:, 0], 1.0)
    np.add.at(deg, edges[:, 1], 1.0)
    ok = deg[eligible] > 0
    eligible = eligible[ok]
    target = acc[eligible] / deg[eligible, None]
    return settle_offsets(mesh, eligible, target - mesh.pos[eligible])


def glide_line(mesh: Mesh, eligible: np.ndarray | None = None) -> int:
    """Even out line-node spacing by sliding along the local chord.

    The node moves only tangentially (toward the projection of the
    prev/next midpoint), so the boundary shape it samples is preserved.
    """
    nids = mesh.alive_nodes()
    if eligible is None:
        eligible = nids[mesh.topo[nids] == LNODE]
    keep = []
    for n in eligible:
        n = int(n)
        if mesh.is_shared(n) or mesh.topo[n] != LNODE:
            continue
        p, q = int(mesh.prv[n]), int(mesh.nxt[n])
        if p == NULL_ID or q == NULL_ID or p == q:
            continue
        if not (mesh.node_alive[p] and mesh.node_alive[q]):
            continue
        keep.append(n)
    if not keep:
        return 0
    nodes = np.asarray(keep, dtype=np.int64)
    pp = mesh.pos[mesh.prv[nodes]]
    qq = mesh.pos[mesh.nxt[nodes]]
    r = mesh.pos[nodes]
    t = qq - pp
    norm = np.linalg.norm(t, axis=1)
    ok = norm > 0
    nodes, pp, qq, r, t, norm = (nodes[ok], pp[ok], qq[ok], r[ok], t[ok],
                                 norm[ok])
    that = t / norm[:, None]
    mid = 0.5 * (pp + qq)
    delta = np.sum((mid - r) * that, axis=1)[:, None] * that
    return settle_offsets(mesh, nodes, delta)


# -- split -------------------------------------------------------------------

def _line_of_pp_edge(ctx: RemeshCtx, a: int, b: int) -> int:
    lid = ctx.whole_line_edge(a, b)
    if lid is None:
        raise TopologyError(
            f"interface edge ({a}, {b}) joins junctions but no line claims it")
    return lid


def split_edge(ctx: RemeshCtx, a: int, b: int) -> int | None:
    """Insert a midpoint node on edge (a, b); returns its id, or None when
    the edge may not be split (a partition cut, or no longer present)."""
    mesh = ctx.mesh
    a, b = int(a), int(b)
    elems = mesh.edge_elements(a, b)
    if not elems:
        return None
    wall = is_domain_boundary_edge(mesh, a, b)
    if len(elems) == 1 and not wall:
        return None

    iface = is_interface_edge(mesh, a, b)
    nid = ctx.alloc.take(KIND_NODE)
    mid = 0.5 * (mesh.pos[a] + mesh.pos[b])
    if wall:
        d = mesh.pos[b] - mesh.pos[a]
        bnd = BND_TANGENT_X if abs(d[0]) >= abs(d[1]) else BND_TANGENT_Y
    else:
        bnd = BND_NONE

    if iface:
        ta, tb = int(mesh.topo[a]), int(mesh.topo[b])
        if ta == LNODE or tb == LNODE:
            l = a if ta == LNODE else b
            lid = int(mesh.entity[l])
            if ta == LNODE and tb == LNODE and int(mesh.entity[a]) != int(mesh.entity[b]):
                raise TopologyError(
                    f"interface edge ({a}, {b}) spans two lines")
        else:
            lid = _line_of_pp_edge(ctx, a, b)
        mesh.add_node(nid, mid, topo=LNODE, entity=lid, bnd=bnd)
        _chain_insert(mesh, a, b, nid, lid)
        ctx.line_count[lid] = ctx.line_count.get(lid, 0) + 1
    else:
        surf = int(mesh.surf[elems[0]])
        mesh.add_node(nid, mid, topo=SNODE, entity=surf, bnd=bnd)

    for e in elems:
        tri = [int(n) for n in mesh.tri[e]]
        s = int(mesh.surf[e])
        k = next(i for i in range(3)
                 if {tri[i], tri[(i + 1) % 3]} == {a, b})
        va, vb, vc = tri[k], tri[(k + 1) % 3], tri[(k + 2) % 3]
        mesh.remove_element(e)
        mesh.add_element(e, (va, nid, vc), s)
        mesh.add_element(ctx.alloc.take(KIND_ELEM), (nid, vb, vc), s)
        ctx.surf_count[s] = ctx.surf_count.get(s, 0) + 1
    return nid


def _chain_insert(mesh: Mesh, a: int, b: int, nid: int, lid: int) -> None:
    ta, tb = int(mesh.topo[a]), int(mesh.topo[b])
    if ta == LNODE and tb == LNODE:
        if int(mesh.nxt[a]) == b:
            mesh.nxt[a] = nid
            mesh.prv[nid] = a
            mesh.nxt[nid] = b
            mesh.prv[b] = nid
        elif int(mesh.nxt[b]) == a:
            mesh.nxt[b] = nid
            mesh.prv[nid] = b
            mesh.nxt[nid] = a
            mesh.prv[a] = nid
        else:
            raise TopologyError(
                f"split of interface edge ({a}, {b}) with broken chain links")
    elif ta == PNODE and tb == PNODE:
        mesh.prv[nid] = min(a, b)
        mesh.nxt[nid] = max(a, b)
    else:
        l = a if ta == LNODE else b
        p = b if ta == LNODE else a
        if int(mesh.prv[l]) == p:
            mesh.prv[l] = nid
            mesh.nxt[nid] = l
            mesh.prv[nid] = p
        elif int(mesh.nxt[l]) == p:
            mesh.nxt[l] = nid
            mesh.prv[nid] = l
            mesh.nxt[nid] = p
        else:
            raise TopologyError(
                f"split of terminal edge ({a}, {b}) with broken chain links")


def split_sweep(ctx: RemeshCtx, scope: set[int] | None = None) -> int:
    """Split every edge longer than delta_s until none remain."""
    mesh = ctx.mesh
    edges = mesh.edge_array()
    if len(edges) == 0:
        return 0
    ln = np.linalg.norm(mesh.pos[edges[:, 0]] - mesh.pos[edges[:, 1]], axis=1)
    long_e = edges[ln > ctx.params.delta_s]
    if scope is not None and len(long_e):
        m = np.array([a in scope or b in scope for a, b in long_e])
        long_e = long_e[m]
    order = np.lexsort((long_e[:, 1], long_e[:, 0])) if len(long_e) else []
    queue = deque((int(a), int(b)) for a, b in long_e[order])
    n_split = 0
    while queue:
        a, b = queue.popleft()
        if not (mesh.node_alive[a] and mesh.node_alive[b]):
            continue
        if float(np.linalg.norm(mesh.pos[a] - mesh.pos[b])) <= ctx.params.delta_s:
            continue
        nid = split_edge(ctx, a, b)
        if nid is None:
            continue
        n_split += 1
        for other in sorted(set(int(n) for n in mesh.node_neighbors(nid))):
            if float(np.linalg.norm(mesh.pos[nid] - mesh.pos[other])) \
                    > ctx.params.delta_s:
                queue.append((min(nid, other), max(nid, other)))
    return n_split


# -- swap --------------------------------------------------------------------

def try_swap(ctx: RemeshCtx, a: int, b: int) -> bool:
    """Replace diagonal (a, b) of its element pair when quality improves."""
    mesh = ctx.mesh
    a, b = int(a), int(b)
    elems = mesh.edge_elements(a, b)
    if len(elems) != 2:
        return False
    if is_interface_edge(mesh, a, b):
        return False
    e1, e2 = elems
    c = next(int(n) for n in mesh.tri[e1] if int(n) not in (a, b))
    d = next(int(n) for n in mesh.tri[e2] if int(n) not in (a, b))
    if mesh.edge_elements(c, d):
        return False

    def oriented(i, j, k):
        t = np.array([[i, j, k]])
        if _tri_area(mesh.pos[t])[0] < 0:
            t = np.array([[i, k, j]])
        return t[0]

    t1 = oriented(a, c, d)
    t2 = oriented(b, c, d)
    p_new = mesh.pos[np.stack([t1, t2])]
    if np.any(_tri_area(p_new) <= MIN_AREA):
        return False
    h = ctx.params.h
    _, q_old = element_qualities(mesh, [e1, e2], h)
    _, q_new = tri_qualities(p_new, h)
    if not (q_new.mean() > q_old.mean()):
        return False
    s = int(mesh.surf[e1])
    mesh.remove_element(e1)
    mesh.remove_element(e2)
    mesh.add_element(e1, t1, s)
    mesh.add_element(e2, t2, s)
    return True


def swap_sweep(ctx: RemeshCtx, scope: set[int] | None = None) -> int:
    """Swap edges of badly shaped elements until no swap improves things."""
    mesh = ctx.mesh
    n_swapped = 0
    while True:
        eids = mesh.alive_elems()
        if len(eids) == 0:
            return n_swapped
        q_shape, _ = element_qualities(mesh, eids, ctx.params.h)
        bad = eids[q_shape < ctx.params.quality_min]
        if scope is not None and len(bad):
            m = np.array([bool(set(map(int, mesh.tri[e])) & scope)
                          for e in bad])
            bad = bad[m]
        changed = 0
        for e in bad:
            e = int(e)
            if not mesh.elem_alive[e]:
                continue
            tri = [int(n) for n in mesh.tri[e]]
            pairs = [(tri[i], tri[(i + 1) % 3]) for i in range(3)]
            pairs.sort(key=lambda ab: (-float(np.linalg.norm(
                mesh.pos[ab[0]] - mesh.pos[ab[1]])), min(ab), max(ab)))
            for x, y in pairs:
                if try_swap(ctx, x, y):
                    changed += 1
                    break
        n_swapped += changed
        if changed == 0:
            return n_swapped


# -- one full pass -----------------------------------------------------------

def remesh_pass(state: SimState, scope: set[int] | None = None) -> PassStats:
    """Run the maintenance operators once, in their canonical order.

    The running counts are taken from ``state`` at the start of the pass and
    live only as long as it, so elements that migrated in since the last
    pass are counted.  With a ``scope`` only candidates touching those nodes
    are visited; an empty scope has none, so the pass is skipped outright.
    """
    if scope is not None and not scope:
        return PassStats()
    ctx = RemeshCtx(state.mesh, state.graph, state.alloc, state.params)
    stats = collapse_sweep(ctx, scope)
    mesh = ctx.mesh
    if scope is None:
        stats.smoothed = smooth_bulk(mesh)
        stats.glided = glide_line(mesh)
    else:
        nids = np.asarray(sorted(
            n for n in scope
            if n < len(mesh.node_alive) and mesh.node_alive[n]), dtype=np.int64)
        stats.smoothed = smooth_bulk(mesh, nids[mesh.topo[nids] == SNODE]) \
            if len(nids) else 0
        stats.glided = glide_line(mesh, nids[mesh.topo[nids] == LNODE]) \
            if len(nids) else 0
    stats.split = split_sweep(ctx, scope)
    stats.swapped = swap_sweep(ctx, scope)
    return stats
