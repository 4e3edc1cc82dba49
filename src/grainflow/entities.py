"""Topological tagging and geometric entity reconstruction.

The mesh alone only knows triangles and surface tags.  This module derives
the geometric skeleton on top of it: every node is classed by how many
surfaces it touches, boundary lines are traced as chains of L-nodes between
junction points, and each connected patch of same-tag elements becomes a
surface entity.  Reconstruction numbers each kind 0, 1, 2, ... in discovery
order, so every worker that reconstructs the same mesh gets the same ids;
entities created later take theirs from the worker's ``state.IdAllocator``.

A line is stored implicitly: each of its L-nodes carries the line id plus
links to the previous and next node on the chain (NULL_ID at a break, a
P-node id at an attached endpoint).  A line crossing into another partition
is therefore just a chain that stops early; segments can always be retraced
locally from the element tags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import (Mesh, TopologyError, NULL_ID, PNODE, LNODE, SNODE,
                   BND_NONE, BND_CORNER, is_domain_boundary_edge)

KIND_POINT = "P"
KIND_LINE = "L"
KIND_SURFACE = "S"


@dataclass
class Point:
    """Junction entity anchored at a single P-node."""
    id: int
    node: int
    connections: set[tuple[str, int]] = field(default_factory=set)


@dataclass
class Line:
    """Boundary line entity; its L-nodes are found via ``Mesh.entity``.

    A line whose interior nodes all collapsed away has no L-nodes and lives
    on as a single mesh edge between its two endpoint P-nodes.
    """
    id: int


@dataclass
class Surface:
    """Grain entity; its elements are found via ``Mesh.surf``."""
    id: int
    orig_tag: int = NULL_ID


class EntityGraph:
    """All live entities of one partition."""

    def __init__(self) -> None:
        self.points: dict[int, Point] = {}
        self.lines: dict[int, Line] = {}
        self.surfaces: dict[int, Surface] = {}

    def point_at(self, mesh: Mesh, nid: int) -> Point:
        pid = int(mesh.entity[nid])
        return self.points[pid]


def tag_nodes(mesh: Mesh) -> np.ndarray:
    """Class every live node by the number of distinct adjacent surfaces.

    One surface makes an S-node, two an L-node, three or more a P-node.
    Domain-boundary nodes are promoted one step (the wall acts as an extra
    interface): a bulk wall node becomes an L-node, a wall node on an
    interface becomes a P-node, and corners are always P-nodes.
    """
    for nid in mesh.alive_nodes():
        nid = int(nid)
        elems = mesh.n2e.get(nid)
        if not elems:
            raise TopologyError(f"node {nid} has no adjacent element")
        k = len({int(mesh.surf[e]) for e in elems})
        mesh.topo[nid] = _node_class(k, mesh.bnd[nid])
    return mesh.topo


def _node_class(k: int, bnd: int) -> int:
    """Class from the adjacent-surface count and wall status.

    Each wall acts as one extra interface, so corners (two walls) are always
    junctions."""
    if bnd == BND_NONE:
        return SNODE if k == 1 else (LNODE if k == 2 else PNODE)
    if bnd == BND_CORNER:
        return PNODE
    return LNODE if k == 1 else PNODE


def interface_edge_mask(mesh: Mesh, edges: np.ndarray, ee: np.ndarray) -> np.ndarray:
    """Boolean mask of edges that separate surfaces or lie on a domain wall.

    An edge with a single incident element counts only when it follows a
    wall; a bare cut at a partition boundary is not an interface.
    """
    mask = np.zeros(len(edges), dtype=bool)
    two = ee[:, 1] != NULL_ID
    mask[two] = mesh.surf[ee[two, 0]] != mesh.surf[ee[two, 1]]
    for k in np.flatnonzero(~two):
        a, b = edges[k]
        mask[k] = is_domain_boundary_edge(mesh, int(a), int(b))
    return mask


def is_interface_edge(mesh: Mesh, a: int, b: int) -> bool:
    elems = mesh.edge_elements(a, b)
    if len(elems) == 2:
        return int(mesh.surf[elems[0]]) != int(mesh.surf[elems[1]])
    if len(elems) == 1:
        return is_domain_boundary_edge(mesh, a, b)
    return False


def reconstruct_entities(mesh: Mesh) -> EntityGraph:
    """Build the entity graph of a tagged mesh and renumber its surfaces.

    Surfaces are edge-connected components of same-tag elements, discovered
    in ascending element id order; element tags are rewritten to the new
    surface ids.  Boundary lines are traced as chains of
    L-nodes, truncated wherever they leave the partition, and every P-node
    becomes a point whose connections list the lines ending there.
    """
    graph = EntityGraph()
    _build_surfaces(mesh, graph)
    edges, ee = mesh.edge_array(with_elems=True)
    iface = edges[interface_edge_mask(mesh, edges, ee)]
    adj = _interface_adjacency(mesh, iface)
    _build_points(mesh, graph, adj)
    _trace_lines(mesh, graph, adj)
    return graph


def _build_surfaces(mesh: Mesh, graph: EntityGraph) -> None:
    eids = mesh.alive_elems()
    comp = {}
    for seed in eids:
        seed = int(seed)
        if seed in comp:
            continue
        sid = len(graph.surfaces)
        graph.surfaces[sid] = Surface(sid, orig_tag=int(mesh.surf[seed]))
        tag = int(mesh.surf[seed])
        stack = [seed]
        comp[seed] = sid
        while stack:
            e = stack.pop()
            for a, b in ((0, 1), (1, 2), (2, 0)):
                na, nb = int(mesh.tri[e][a]), int(mesh.tri[e][b])
                for other in mesh.n2e[na] & mesh.n2e[nb]:
                    if other != e and other not in comp and int(mesh.surf[other]) == tag:
                        comp[other] = sid
                        stack.append(other)
    for e, sid in comp.items():
        mesh.surf[e] = sid
    for nid in mesh.alive_nodes():
        nid = int(nid)
        if mesh.topo[nid] == SNODE:
            mesh.entity[nid] = mesh.surf[min(mesh.n2e[nid])]


def _interface_adjacency(mesh: Mesh, iface: np.ndarray) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for a, b in iface:
        a, b = int(a), int(b)
        if mesh.topo[a] == SNODE or mesh.topo[b] == SNODE:
            raise TopologyError(
                f"interface edge ({a}, {b}) touches an S-node; tagging is inconsistent")
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for n in adj:
        adj[n].sort()
    return adj


def _build_points(mesh: Mesh, graph: EntityGraph, adj: dict[int, list[int]]) -> None:
    for nid in mesh.alive_nodes():
        nid = int(nid)
        if mesh.topo[nid] == PNODE:
            pid = len(graph.points)
            graph.points[pid] = Point(pid, nid)
            mesh.entity[nid] = pid


def _trace_lines(mesh: Mesh, graph: EntityGraph, adj: dict[int, list[int]]) -> None:
    lnodes = [int(n) for n in mesh.alive_nodes() if mesh.topo[n] == LNODE]
    for nid in lnodes:
        if nid in adj:
            deg = sum(1 for m in adj[nid] if mesh.topo[m] == LNODE)
            deg += sum(1 for m in adj[nid] if mesh.topo[m] == PNODE)
            if deg > 2:
                raise TopologyError(
                    f"L-node {nid} has {deg} interface neighbors; tagging is inconsistent")
    assigned: set[int] = set()
    for nid in sorted(lnodes):
        if nid in assigned:
            continue
        chain, closed = _walk_chain(mesh, adj, nid)
        lid = len(graph.lines)
        graph.lines[lid] = Line(lid)
        _link_chain(mesh, graph, chain, closed, lid)
        assigned.update(n for n in chain if mesh.topo[n] == LNODE)
    # bare point-to-point interface edges carry a line of their own
    for nid in sorted(adj):
        if mesh.topo[nid] != PNODE:
            continue
        for m in adj[nid]:
            if mesh.topo[m] == PNODE and nid < m:
                lid = len(graph.lines)
                graph.lines[lid] = Line(lid)
                for end in (nid, m):
                    graph.point_at(mesh, end).connections.add((KIND_LINE, lid))


def _walk_chain(mesh: Mesh, adj: dict[int, list[int]], start: int):
    """Maximal chain of L-nodes through ``start``; returns (nodes, closed).

    Open chains include an attached P-node at either end when present.
    """
    def lneigh(n):
        return [m for m in adj.get(n, []) if mesh.topo[m] == LNODE]

    chain = [start]
    closed = False
    for direction in (0, 1):
        prev = start
        cands = lneigh(start)
        if direction >= len(cands):
            continue
        cur = cands[direction]
        while True:
            if cur == start:
                closed = True
                break
            if direction == 0:
                chain.append(cur)
            else:
                chain.insert(0, cur)
            nxt = [m for m in lneigh(cur) if m != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
        if closed:
            break
    if not closed:
        # attach terminal P-nodes where the chain ends at a junction; a loop
        # pinched at one junction reuses the same P-node on both ends
        head, tail = chain[0], chain[-1]
        ph = [m for m in adj.get(head, []) if mesh.topo[m] == PNODE]
        pt = [m for m in adj.get(tail, []) if mesh.topo[m] == PNODE]
        if head == tail:
            if ph:
                chain.insert(0, ph[0])
            if len(pt) >= 2:
                chain.append(pt[1])
        else:
            if ph:
                chain.insert(0, ph[0])
            if pt:
                chain.append(pt[0])
    return chain, closed


def _link_chain(mesh: Mesh, graph: EntityGraph, chain: list[int], closed: bool,
                lid: int) -> None:
    n = len(chain)
    if closed:
        # canonical cycle: start at the smallest id, walk toward its smaller neighbor
        k = chain.index(min(chain))
        chain = chain[k:] + chain[:k]
        if n > 2 and chain[-1] < chain[1]:
            chain = [chain[0]] + chain[1:][::-1]
        for i, nid in enumerate(chain):
            mesh.entity[nid] = lid
            mesh.prv[nid] = chain[(i - 1) % n]
            mesh.nxt[nid] = chain[(i + 1) % n]
        return
    # orient by L-node ends so retracing from links reproduces the direction
    lends = [c for c in chain if mesh.topo[c] == LNODE]
    if lends[-1] < lends[0]:
        chain = chain[::-1]
    for i, nid in enumerate(chain):
        if mesh.topo[nid] != LNODE:
            continue
        mesh.entity[nid] = lid
        mesh.prv[nid] = chain[i - 1] if i > 0 else NULL_ID
        mesh.nxt[nid] = chain[i + 1] if i < n - 1 else NULL_ID
    for nid in (chain[0], chain[-1]):
        if mesh.topo[nid] == PNODE:
            graph.point_at(mesh, nid).connections.add((KIND_LINE, lid))


def lnodes_by_line(mesh: Mesh) -> dict[int, list[int]]:
    """Live L-node ids grouped by line id, each group ascending."""
    out: dict[int, list[int]] = {}
    nids = mesh.alive_nodes()
    ln = nids[mesh.topo[nids] == LNODE]
    for nid in ln:
        out.setdefault(int(mesh.entity[nid]), []).append(int(nid))
    return out


@dataclass
class Segment:
    """One connected run of a line inside this partition.

    ``nodes`` holds the chain in order, including attached endpoint P-nodes;
    for a closed loop the first node is not repeated.
    """
    line: int
    nodes: list[int]
    closed: bool = False


def line_segments(mesh: Mesh, lid: int, members: list[int]) -> list[Segment]:
    """Segments of one line, retraced from the stored prev/next links."""
    member_set = set(members)
    segs: list[Segment] = []
    seen: set[int] = set()

    def step(nid, back):
        t = int((mesh.nxt if not back else mesh.prv)[nid])
        if t == NULL_ID or t >= len(mesh.node_alive) or not mesh.node_alive[t]:
            return None
        return t

    for start in sorted(member_set):
        if start in seen:
            continue
        chain = [start]
        closed = False
        cur = start
        while True:  # walk backward to the segment head
            t = step(cur, back=True)
            if t is None or t not in member_set:
                head_term = t
                break
            if t == start:
                closed = True
                break
            cur = t
            chain.insert(0, cur)
        if closed:
            seen.update(chain)
            k = chain.index(min(chain))
            segs.append(Segment(lid, chain[k:] + chain[:k], closed=True))
            continue
        cur = chain[-1]
        while True:
            t = step(cur, back=False)
            if t is None or t not in member_set:
                tail_term = t
                break
            cur = t
            chain.append(cur)
        seen.update(chain)
        nodes = list(chain)
        if head_term is not None and mesh.topo[head_term] == PNODE:
            nodes.insert(0, head_term)
        if tail_term is not None and mesh.topo[tail_term] == PNODE:
            nodes.append(tail_term)
        segs.append(Segment(lid, nodes, closed=False))
    segs.sort(key=lambda s: min(s.nodes))
    return segs


def recanonicalize_lines(mesh: Mesh, graph: EntityGraph) -> None:
    """Rebuild all prev/next links from element tags.

    After elements migrate between partitions the carried links may point at
    nodes that never arrived or may disagree in direction between fragments
    that grew independently.  Neighborhood on a line is recoverable from the
    mesh itself (two same-line nodes joined by an interface edge are
    consecutive), so the links are cache, not truth; this rewrites them in a
    canonical per-segment orientation.
    """
    edges, ee = mesh.edge_array(with_elems=True)
    iface = edges[interface_edge_mask(mesh, edges, ee)]
    neigh: dict[int, list[int]] = {}
    terminal: dict[int, list[int]] = {}
    for a, b in iface:
        a, b = int(a), int(b)
        ta, tb = mesh.topo[a], mesh.topo[b]
        if ta == LNODE and tb == LNODE:
            if mesh.entity[a] != mesh.entity[b]:
                raise TopologyError(
                    f"interface edge ({a}, {b}) joins different lines")
            neigh.setdefault(a, []).append(b)
            neigh.setdefault(b, []).append(a)
        elif ta == LNODE and tb == PNODE:
            terminal.setdefault(a, []).append(b)
        elif ta == PNODE and tb == LNODE:
            terminal.setdefault(b, []).append(a)

    nids = mesh.alive_nodes()
    ln = [int(n) for n in nids[mesh.topo[nids] == LNODE]]
    for n in ln:
        mesh.prv[n] = NULL_ID
        mesh.nxt[n] = NULL_ID
        if len(neigh.get(n, ())) + len(terminal.get(n, ())) > 2:
            raise TopologyError(f"L-node {n} has more than two line neighbors")

    seen: set[int] = set()
    for start in sorted(ln):
        if start in seen:
            continue
        chain = [start]
        closed = False
        nb = neigh.get(start, [])
        prev, cur = start, (nb[0] if nb else None)
        while cur is not None:
            if cur == start:
                closed = True
                break
            chain.append(cur)
            follow = [m for m in neigh.get(cur, []) if m != prev]
            prev, cur = cur, (follow[0] if follow else None)
        if not closed and len(nb) == 2:
            prev, cur = start, nb[1]
            while cur is not None:
                chain.insert(0, cur)
                follow = [m for m in neigh.get(cur, []) if m != prev]
                prev, cur = cur, (follow[0] if follow else None)
        seen.update(chain)
        if closed:
            k = chain.index(min(chain))
            chain = chain[k:] + chain[:k]
            if len(chain) > 2 and chain[-1] < chain[1]:
                chain = [chain[0]] + chain[1:][::-1]
            m = len(chain)
            for i, nid in enumerate(chain):
                mesh.prv[nid] = chain[(i - 1) % m]
                mesh.nxt[nid] = chain[(i + 1) % m]
            continue
        if chain[-1] < chain[0]:
            chain = chain[::-1]
        m = len(chain)
        for i, nid in enumerate(chain):
            mesh.prv[nid] = chain[i - 1] if i > 0 else NULL_ID
            mesh.nxt[nid] = chain[i + 1] if i < m - 1 else NULL_ID
        if m == 1:
            ps = sorted(set(terminal.get(chain[0], [])))
            if ps:
                mesh.prv[chain[0]] = ps[0]
            if len(ps) >= 2:
                mesh.nxt[chain[0]] = ps[1]
        else:
            head_p = terminal.get(chain[0], [])
            tail_p = terminal.get(chain[-1], [])
            if head_p:
                mesh.prv[chain[0]] = head_p[0]
            if tail_p:
                mesh.nxt[chain[-1]] = tail_p[0]


def rename_entities(mesh: Mesh, graph: EntityGraph, kind: str,
                    mapping: dict[int, int]) -> None:
    """Apply id renames of one entity kind, merging on collision.

    When two local fragments are renamed to the same id they become one
    entity; chains that do not touch inside this partition simply stay as
    separate segments of it.
    """
    if not mapping:
        return
    if kind == KIND_SURFACE:
        store = graph.surfaces
        sel = mesh.surf
        node_mask = mesh.topo == SNODE
    elif kind == KIND_LINE:
        store = graph.lines
        sel = None
        node_mask = mesh.topo == LNODE
    else:
        store = graph.points
        sel = None
        node_mask = mesh.topo == PNODE

    if sel is not None:
        lookup = sel.copy()
        for old, new in mapping.items():
            lookup[sel == old] = new
        alive = mesh.elem_alive
        mesh.surf[alive] = lookup[alive]
    node_mask = node_mask & mesh.node_alive
    ent = mesh.entity
    upd = ent.copy()
    for old, new in mapping.items():
        upd[(ent == old) & node_mask] = new
    mesh.entity[node_mask] = upd[node_mask]

    for old, new in sorted(mapping.items()):
        if old == new or old not in store:
            continue
        obj = store.pop(old)
        if new not in store:
            obj.id = new
            store[new] = obj
        # else: merged into the existing entity; nothing else to carry over

    if kind in (KIND_LINE, KIND_POINT):
        for pt in graph.points.values():
            conns = set()
            for ck, cid in pt.connections:
                if ck == kind and cid in mapping:
                    conns.add((ck, mapping[cid]))
                else:
                    conns.add((ck, cid))
            pt.connections = conns
