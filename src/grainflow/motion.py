"""Curvature-driven interface motion: mobility and local rules.

Node velocities follow v = m * kappa, with m the reduced mobility and kappa
the curvature vector of the interface.  This module holds the pieces the
increment in ``protocol`` builds them from: the mobility, the boundary edges
(arms) a junction's curvature is assembled from, and the wall constraint,
under which wall nodes slide along their wall and corners never move.

Junctions where more than three interfaces meet are unstable; they are
decomposed into triple junctions by peeling off the closest pair of arms
onto a new junction a small offset away, repeatedly until every junction is
triple.  The peel retriangulates the patch in place, so total area is
conserved exactly.
"""

from __future__ import annotations

import numpy as np
from scipy.constants import R as GAS_CONSTANT

from .entities import EntityGraph, Point, bare_lines, lnodes_by_line
from .mesh import (BND_CORNER, BND_TANGENT_X, BND_TANGENT_Y, LNODE, PNODE,
                   MIN_AREA, Mesh, TopologyError, _tri_area,
                   is_domain_boundary_edge)
from .state import KIND_ELEM, KIND_LINE, KIND_NODE, KIND_POINT

MOBILITY_PREFACTOR = 1.56e11    # mm^4 / (J s)
ACTIVATION_ENERGY = 2.8e5       # J / mol
BOUNDARY_ENERGY = 6.0e-7        # J / mm^2
DEFAULT_TEMPERATURE = 1323.0    # K

JUNCTION_OFFSET_FRAC = 0.3      # peel distance for decomposition, in units of h


def reduced_mobility(temperature: float = DEFAULT_TEMPERATURE) -> float:
    """Product M * gamma in mm^2/s of an austenitic steel."""
    return MOBILITY_PREFACTOR * np.exp(
        -ACTIVATION_ENERGY / (GAS_CONSTANT * temperature)) * BOUNDARY_ENERGY


def junction_arms(mesh: Mesh, graph: EntityGraph, members,
                  nid: int) -> list[int]:
    """Ids, ascending, of the nodes at the far end of a junction's arms.

    Arms are read off the entity structure: L-nodes chained to the
    junction, neighbouring junctions joined to it by a line without
    L-nodes (``members`` is ``lnodes_by_line(mesh)``), and wall edges.
    Unlike a comparison of the two elements on an edge, this sees an arm
    whose edge straddles a partition cut, so at a shared junction each
    owner reports the arms it holds and their union is exact.
    """
    pt = graph.points.get(int(mesh.entity[nid]))
    arms = []
    for m in mesh.node_neighbors(nid):
        if int(mesh.topo[m]) == LNODE:
            arm = nid in (int(mesh.prv[m]), int(mesh.nxt[m]))
        elif int(mesh.topo[m]) == PNODE and pt is not None:
            other = graph.points.get(int(mesh.entity[m]))
            arm = other is not None and bool(bare_lines(pt, other, members))
        else:
            arm = False
        if arm or is_domain_boundary_edge(mesh, nid, m):
            arms.append(m)
    return arms


def constrain_to_walls(mesh: Mesh, vel: np.ndarray) -> None:
    """Project velocities onto the walls; corners are pinned."""
    vel[mesh.bnd == BND_TANGENT_X, 1] = 0.0
    vel[mesh.bnd == BND_TANGENT_Y, 0] = 0.0
    vel[mesh.bnd == BND_CORNER] = 0.0


# -- junction decomposition --------------------------------------------------

def _patch_ring(mesh: Mesh, nid: int) -> tuple[list[int], bool]:
    """Neighbors of a node in counterclockwise patch order.

    Returns the ring and whether it closes; wall patches are open arcs
    running from the clockwise-most neighbor to the counterclockwise-most.
    """
    succ: dict[int, int] = {}
    for eid in mesh.n2e[nid]:
        a, b, c = (int(x) for x in mesh.tri[eid])
        if a == nid:
            u, v = b, c
        elif b == nid:
            u, v = c, a
        else:
            u, v = a, b
        succ[u] = v
    starts = sorted(set(succ) - set(succ.values()))
    if len(starts) > 1:
        raise TopologyError(f"patch of node {nid} is not a disk")
    cur = starts[0] if starts else min(succ)
    ring = [cur]
    while True:
        nxt = succ.get(ring[-1])
        if nxt is None or nxt == ring[0]:
            return ring, nxt == ring[0]
        ring.append(nxt)


def _split_junction(mesh: Mesh, graph: EntityGraph, alloc, members,
                    nid: int, delta: float) -> bool:
    """Peel the closest non-wall arm pair of a junction onto a new point.

    ``members`` is ``lnodes_by_line(mesh)``; a peel leaves it valid, since
    it moves no L-node and its new line has none."""
    ring, closed = _patch_ring(mesh, nid)
    arm_set = set(junction_arms(mesh, graph, members, nid))
    arms = [x for x in ring if x in arm_set]
    if len(arms) <= 3:
        return False
    center = mesh.pos[nid].copy()
    on_wall = {x for x in arms if is_domain_boundary_edge(mesh, nid, x)}
    pairs = list(zip(arms, arms[1:]))
    if closed:
        pairs.append((arms[-1], arms[0]))
    best = None
    for u, v in pairs:
        if u in on_wall or v in on_wall:
            continue
        eu = mesh.pos[u] - center
        ev = mesh.pos[v] - center
        au = np.arctan2(eu[1], eu[0])
        gap = (np.arctan2(ev[1], ev[0]) - au) % (2.0 * np.pi)
        if best is None or (gap, u, v) < best[:3]:
            best = (gap, u, v, au)
    if best is None:
        return False
    gap, a, b, a_ang = best
    bis = np.array([np.cos(a_ang + 0.5 * gap), np.sin(a_ang + 0.5 * gap)])

    # the moving fan runs one element beyond each arm, so the arm edges
    # detach cleanly and the two filler triangles sit on interior edges
    size = len(ring)
    ia, ib = ring.index(a), ring.index(b)
    span = (ib - ia) % size if closed else ib - ia
    arc = [ring[(ia - 1 + j) % size] for j in range(span + 3)]
    c1, c2 = arc[0], arc[-1]
    fan = []
    for u, v in zip(arc, arc[1:]):
        eids = set(mesh.edge_elements(u, v)) & mesh.n2e[nid]
        if len(eids) != 1:
            raise TopologyError(f"broken fan at junction node {nid}")
        fan.append(eids.pop())
    fan_tri = mesh.tri[fan].copy()
    fan_mask = fan_tri == nid

    d = delta
    while True:
        m_pos = center + d * bis
        p = mesh.pos[fan_tri]
        p[fan_mask] = m_pos
        ok = (_tri_area(p) > MIN_AREA).all()
        tris = np.array([[center, mesh.pos[c1], m_pos],
                         [center, m_pos, mesh.pos[c2]]])
        ok = ok and (_tri_area(tris) > MIN_AREA).all()
        if ok:
            break
        d *= 0.5
        if d < 0.1 * delta:
            return False

    p_pt = graph.point_at(mesh, nid)
    m_nid = alloc.take(KIND_NODE)
    m_pid = alloc.take(KIND_POINT)
    lid_new = alloc.take(KIND_LINE)
    mesh.add_node(m_nid, m_pos, topo=PNODE, entity=m_pid)
    for eid in fan:
        mesh.replace_node_in_element(eid, nid, m_nid)
    surf1 = int(mesh.surf[fan[0]])
    surf2 = int(mesh.surf[fan[-1]])
    mesh.add_element(alloc.take(KIND_ELEM), (nid, c1, m_nid), surf1)
    mesh.add_element(alloc.take(KIND_ELEM), (nid, m_nid, c2), surf2)

    moved_lids = set()
    for x in (a, b):
        if mesh.topo[x] == LNODE:
            moved_lids.add(int(mesh.entity[x]))
            if int(mesh.prv[x]) == nid:
                mesh.prv[x] = m_nid
            if int(mesh.nxt[x]) == nid:
                mesh.nxt[x] = m_nid
        else:
            x_pt = graph.point_at(mesh, x)
            direct = bare_lines(p_pt, x_pt, members)
            if not direct:
                raise TopologyError(
                    f"no direct line between points {p_pt.id}, {x_pt.id}")
            moved_lids.add(direct[0])
    p_pt.connections -= moved_lids
    p_pt.connections.add(lid_new)
    graph.points[m_pid] = Point(m_pid, m_nid, moved_lids | {lid_new})
    return True


def decompose_junctions(mesh: Mesh, graph: EntityGraph, alloc, params) -> int:
    """Split every junction with more than three arms; returns the count.

    Junctions on partition-shared nodes are left alone: their arms are not
    all local, so no single owner could peel them consistently.
    """
    delta = JUNCTION_OFFSET_FRAC * params.h
    members = lnodes_by_line(mesh)
    done = 0
    for pid in sorted(graph.points):
        pt = graph.points.get(pid)
        if pt is None:
            continue
        if mesh.is_shared(pt.node):
            continue
        while _split_junction(mesh, graph, alloc, members, pt.node, delta):
            done += 1
    return done
