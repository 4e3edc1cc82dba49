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
locally from the element tags.  One tracer writes these links from the
interface edges, in a canonical orientation: reconstruction numbers its
lines by the runs it traces, and ``recanonicalize_lines`` reruns it on an
evolved mesh.
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
    surface ids.  Every P-node becomes a point.  Each connected run of
    L-nodes becomes a line, numbered in ascending order of the run's
    smallest node and linked by the ``recanonicalize_lines`` tracer; bare
    junction-to-junction interface edges come after them.  A point's
    connections list the lines ending there.
    """
    graph = EntityGraph()
    _build_surfaces(mesh, graph)
    adj = _interface_adjacency(mesh)
    _build_points(mesh, graph)
    _build_lines(mesh, graph, adj)
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


def _interface_adjacency(mesh: Mesh) -> dict[int, list[int]]:
    """Interface neighbors of every node on an interface, ascending."""
    edges, ee = mesh.edge_array(with_elems=True)
    adj: dict[int, list[int]] = {}
    for a, b in edges[interface_edge_mask(mesh, edges, ee)]:
        a, b = int(a), int(b)
        if mesh.topo[a] == SNODE or mesh.topo[b] == SNODE:
            raise TopologyError(
                f"interface edge ({a}, {b}) touches an S-node; tagging is inconsistent")
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for n in adj:
        adj[n].sort()
    return adj


def _build_points(mesh: Mesh, graph: EntityGraph) -> None:
    for nid in mesh.alive_nodes():
        nid = int(nid)
        if mesh.topo[nid] == PNODE:
            pid = len(graph.points)
            graph.points[pid] = Point(pid, nid)
            mesh.entity[nid] = pid


def _build_lines(mesh: Mesh, graph: EntityGraph, adj: dict[int, list[int]]) -> None:
    for run in _link_runs(mesh, adj):
        lid = len(graph.lines)
        graph.lines[lid] = Line(lid)
        mesh.entity[run] = lid
        for end in (int(mesh.prv[run[0]]), int(mesh.nxt[run[-1]])):
            if end != NULL_ID and mesh.topo[end] == PNODE:
                graph.point_at(mesh, end).connections.add((KIND_LINE, lid))
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


def _link_runs(mesh: Mesh, adj: dict[int, list[int]]) -> list[list[int]]:
    """Rewrite the prev/next links of every live L-node from the interface
    adjacency ``adj``; returns the L-node runs in ascending order of their
    smallest node, each in link order.

    Two L-nodes joined by an interface edge are consecutive.  A closed run
    starts at its smallest node and heads toward the smaller of that node's
    neighbors.  An open run heads from its smaller end node to its larger
    one, and each end links the smallest junction adjacent to it (a lone
    L-node links its two smallest junctions, prev first).
    """
    nids = mesh.alive_nodes()
    ln = [int(n) for n in nids[mesh.topo[nids] == LNODE]]
    neigh: dict[int, list[int]] = {}
    terminal: dict[int, list[int]] = {}
    for n in ln:
        around = adj.get(n, [])
        neigh[n] = [m for m in around if mesh.topo[m] == LNODE]
        terminal[n] = [m for m in around if mesh.topo[m] == PNODE]
        deg = len(neigh[n]) + len(terminal[n])
        if deg > 2:
            raise TopologyError(
                f"L-node {n} has {deg} interface neighbors; tagging is inconsistent")
    mesh.prv[ln] = NULL_ID
    mesh.nxt[ln] = NULL_ID

    def walk(start, cur):
        """Nodes from ``cur`` on, away from ``start``; whether it closed."""
        out, prev = [], start
        while cur is not None and cur != start:
            out.append(cur)
            follow = [m for m in neigh[cur] if m != prev]
            prev, cur = cur, (follow[0] if follow else None)
        return out, cur == start

    runs: list[list[int]] = []
    seen: set[int] = set()
    for start in ln:
        if start in seen:
            continue
        nb = neigh[start]
        fwd, closed = walk(start, nb[0]) if nb else ([], False)
        back = walk(start, nb[1])[0] if len(nb) == 2 and not closed else []
        chain = back[::-1] + [start] + fwd
        seen.update(chain)
        m = len(chain)
        if closed:
            if m > 2 and chain[-1] < chain[1]:
                chain = [chain[0]] + chain[1:][::-1]
            for i, nid in enumerate(chain):
                mesh.prv[nid] = chain[(i - 1) % m]
                mesh.nxt[nid] = chain[(i + 1) % m]
            runs.append(chain)
            continue
        if chain[-1] < chain[0]:
            chain = chain[::-1]
        for i, nid in enumerate(chain):
            mesh.prv[nid] = chain[i - 1] if i > 0 else NULL_ID
            mesh.nxt[nid] = chain[i + 1] if i < m - 1 else NULL_ID
        head = terminal[chain[0]]
        tail = terminal[chain[-1]][m == 1:]
        if head:
            mesh.prv[chain[0]] = head[0]
        if tail:
            mesh.nxt[chain[-1]] = tail[0]
        runs.append(chain)
    return runs


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


def recanonicalize_lines(mesh: Mesh) -> None:
    """Rebuild all prev/next links from element tags.

    After elements migrate between partitions the carried links may point at
    nodes that never arrived or may disagree in direction between fragments
    that grew independently.  Neighborhood on a line is recoverable from the
    mesh itself (two same-line nodes joined by an interface edge are
    consecutive), so the links are cache, not truth; this rewrites them in a
    canonical per-segment orientation.  Reconstruction links its lines with
    the same tracer, so on a freshly reconstructed mesh this is a no-op.
    """
    adj = _interface_adjacency(mesh)
    for a in sorted(adj):
        for b in adj[a]:
            if (a < b and mesh.topo[a] == LNODE and mesh.topo[b] == LNODE
                    and mesh.entity[a] != mesh.entity[b]):
                raise TopologyError(
                    f"interface edge ({a}, {b}) joins different lines")
    _link_runs(mesh, adj)


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
