"""The distributed evolution protocol.

Every worker owns one partition and all workers execute the same program
order, meeting only in transport collectives.  A sequential run is the
one-worker case of the same program: nothing is shared, nothing migrates,
and every collective just hands a worker its own payload back.  The pieces
here keep the partitions telling one consistent story:

* a shared-node registry built from global node ids,
* a shared-node agreement check, in which co-owners compare the class and
  entity of every node they share in one exchange; rank 0 names every
  entity before the bootstrap splits the mesh, so nothing is renamed,
* unidirectional element selection and scattering, which migrate boundary
  layers toward less loaded workers while splicing chains and junction
  connections back together on the receiving side; the bootstrap hands
  each worker its first slice through the same receiving code,
* stencil completion, in which every owner pushes its co-owners, unasked
  and in one exchange, the few positions they need so curvature at a
  shared node comes out bit-identical on every owner; which nodes those
  are is fixed once per increment by the ``VelocityPlan``, which also
  holds the line segments and junction arms the velocities read,
* a collective movement sweep whose flip back-off is agreed globally, so
  shared nodes land on exactly the same coordinates everywhere.

Determinism is load-bearing throughout: iteration follows sorted ids,
every payload of every collective is one ``wire`` frame of typed arrays
over raw doubles, decoded against the layout its receiver expects, and
every decision that touches a shared node is made from data all owners
possess.  A frame that decodes but says what no correct peer could say
raises ``ProtocolError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Callable

import numpy as np

from .entities import (EntityGraph, Point, line_segments, lnodes_by_line,
                       reconstruct_entities, tag_nodes)
from .geometry import (NATURAL, NOT_A_KNOT, PERIODIC, junction_curvature,
                       spline_curvature)
from .mesh import LNODE, NULL_ID, PNODE, Mesh, TopologyError
from .motion import constrain_to_walls, decompose_junctions, junction_arms
from .remesh import remesh_pass, settle_offsets
from .state import ID_KINDS, IdAllocator, RemeshParams, SimState, id_ceilings
from .transport import Transport
from .wire import (IDS, MIGRATION, MODE_ARMS, MODE_CHAIN, SPEEDS, SUPPORT,
                   TRIPLETS, decode_arrays, encode_arrays)

# the stencil support mode that belongs to each node class
_SUPPORT_MODE = {LNODE: MODE_CHAIN, PNODE: MODE_ARMS}

# how many chain nodes each side contributes to a shared-node stencil
_STENCIL_DEPTH = 2

# the farthest a node may travel in one motion substep, as a fraction of h
MAX_TRAVEL_FRAC = 0.25


class ProtocolError(RuntimeError):
    """A worker received data that no correct peer could have sent."""


# -- registry and ranking ----------------------------------------------------

def detect_shared_nodes(transport: Transport, mesh: Mesh) -> None:
    """Rebuild the shared-node registry ``mesh.shared`` from global node ids.

    Each worker publishes its live ids as an ``IDS`` frame; intersection
    with every other worker's set yields the co-owner lists.  The registry
    is symmetric by construction.
    """
    mine = mesh.alive_nodes().astype(np.int64)
    blobs = transport.all_gather(encode_arrays([mine], IDS))
    mesh.shared = {}
    for src, blob in enumerate(blobs):
        if src == transport.rank:
            continue
        (theirs,) = decode_arrays(blob, IDS)
        for n in np.intersect1d(mine, theirs, assume_unique=True):
            mesh.shared.setdefault(int(n), set()).add(src)


def compute_ranking(transport: Transport, n_local_elems: int) -> np.ndarray:
    """Per-part rank values: fewer elements means a higher value, ties go to
    the lower part number.  Identical on every worker; the element counts
    travel as one-value ``IDS`` frames."""
    counts = _gather_one(transport, n_local_elems, IDS)
    order = sorted(range(len(counts)), key=lambda p: (counts[p], p))
    ranking = np.zeros(len(counts), dtype=np.int64)
    for pos, p in enumerate(order):
        ranking[p] = len(counts) - 1 - pos
    return ranking


def _gather_one(transport: Transport, value, layout) -> list:
    """Every worker's ``value``, all-gathered as a one-value frame of
    ``layout``; a frame holding any other number of values raises
    ``ProtocolError``."""
    values = []
    for src, blob in enumerate(transport.all_gather(
            encode_arrays([[value]], layout))):
        (a,) = decode_arrays(blob, layout)
        if len(a) != 1:
            raise ProtocolError(f"worker {src} sent {len(a)} values, not one")
        values.append(a[0].item())
    return values


# -- shared-node agreement ---------------------------------------------------

def check_shared_agreement(transport: Transport, mesh: Mesh) -> None:
    """Check that all co-owners of every shared node agree on what it is.

    Each worker sends every co-owner one ``TRIPLETS`` frame with a (node,
    class, entity) row per node the two share, in ascending node order.
    The registry ``mesh.shared`` is symmetric, so a correct peer sends back
    exactly the rows it was sent; the first row that differs raises
    ``ProtocolError``.  A shared node without an entity raises
    ``TopologyError``.
    """
    outbox: list[list[tuple[int, int, int]]] = [
        [] for _ in range(transport.size)]
    for n in sorted(mesh.shared):
        ident = int(mesh.entity[n])
        if ident == NULL_ID:
            raise TopologyError(f"shared node {n} carries no entity identity")
        for j in sorted(mesh.shared[n]):
            outbox[j].append((n, int(mesh.topo[n]), ident))

    received = transport.all_to_all([encode_arrays([o], TRIPLETS)
                                     for o in outbox])
    for src, blob in enumerate(received):
        (rows,) = decode_arrays(blob, TRIPLETS)
        for got, want in zip_longest(map(tuple, rows.tolist()), outbox[src]):
            if got != want:
                node = min(r[0] for r in (got, want) if r is not None)
                raise ProtocolError(
                    f"workers {transport.rank} and {src} disagree at node "
                    f"{node}: (node, class, entity) {want} here, {got} there")


# -- element selection -------------------------------------------------------

def select_elements_to_send(mesh: Mesh, ranking: np.ndarray, rank: int
                            ) -> dict[int, list[int]]:
    """Pick, per higher-ranked neighbor, the boundary elements to hand over.

    Only parts outranking the sender receive anything.  Candidates around
    nodes shared (``mesh.shared``) with such a neighbor are kept only when
    no node of the element is co-owned by a still higher-ranked part, so
    every element travels to the single best destination and the
    per-destination sets never overlap.
    """
    by_part: dict[int, list[int]] = {}
    for n in sorted(mesh.shared):
        for j in mesh.shared[n]:
            if ranking[j] > ranking[rank]:
                by_part.setdefault(j, []).append(n)

    sends: dict[int, list[int]] = {}
    for j in sorted(by_part):
        sends_j: list[int] = []
        seen: set[int] = set()
        for n in by_part[j]:
            for e in sorted(mesh.n2e.get(n, ())):
                if e in seen:
                    continue
                seen.add(e)
                sends_j.append(e)
        sends[j] = sends_j
    return _filter_ranked(mesh, ranking, sends)


def _filter_ranked(mesh, ranking, sends):
    out: dict[int, list[int]] = {}
    for j, elems in sorted(sends.items()):
        if not elems:
            continue
        kept: list[int] = []
        for e in elems:
            best = j
            for n in mesh.tri[e]:
                for k in mesh.shared.get(int(n), ()):
                    if ranking[k] > ranking[best]:
                        best = k
            if best == j:
                kept.append(e)
        if kept:
            out[j] = kept
    return out


# -- migration frames --------------------------------------------------------

def _point_connections(mesh, graph, nid):
    """Wire form of a junction's line connections: (line, anchor) pairs,
    where the anchor is the locally known node that realizes the arm."""
    pt = graph.points.get(int(mesh.entity[nid]))
    if pt is None:
        raise ProtocolError(f"P-node {nid} has no point entity")
    out = []
    for lid in sorted(pt.connections):
        anchor = NULL_ID
        chained = [m for m in mesh.node_neighbors(nid)
                   if mesh.topo[m] == LNODE and int(mesh.entity[m]) == lid
                   and nid in (int(mesh.prv[m]), int(mesh.nxt[m]))]
        if chained:
            anchor = min(chained)
        else:
            for m in mesh.node_neighbors(nid):
                if mesh.topo[m] != PNODE:
                    continue
                other = graph.points.get(int(mesh.entity[m]))
                if other is not None and lid in other.connections:
                    anchor = m
                    break
        out.append((lid, anchor))
    return out


def _migration_frame(mesh, graph, elems) -> bytes:
    """One destination's ``MIGRATION`` frame: the elements, each of their
    nodes once with its geometry, class, entity, boundary kind and (for an
    L-node) chain links, and the line connections of their junctions.  Co-
    owner ranks do not travel: the receiver rebuilds its shared-node
    registry after every scatter."""
    eids = np.asarray(elems, dtype=np.int64)
    tri = mesh.tri[eids]
    nids = np.unique(tri)
    topo = mesh.topo[nids]
    lnode = topo == LNODE
    nodes = np.column_stack([
        nids, topo, mesh.entity[nids], mesh.bnd[nids],
        np.where(lnode, mesh.prv[nids], NULL_ID),
        np.where(lnode, mesh.nxt[nids], NULL_ID)])
    conns = [(n, lid, anchor) for n in nids[topo == PNODE].tolist()
             for lid, anchor in _point_connections(mesh, graph, n)]
    return encode_arrays([np.column_stack([eids, mesh.surf[eids], tri]),
                          nodes, mesh.pos[nids], conns], MIGRATION)


def _read_migration(blob, src):
    """A ``MIGRATION`` frame as element rows (id, surf, a, b, c) and a
    map from node id to (topo, entity, bnd, prv, nxt, x, y, connections)."""
    elems, rows, xy, conn_rows = decode_arrays(blob, MIGRATION)
    if len(xy) != len(rows):
        raise ProtocolError(f"worker {src} sent {len(rows)} migrating nodes "
                            f"with {len(xy)} positions")
    conns: dict[int, list[tuple[int, int]]] = {}
    for n, lid, anchor in conn_rows.tolist():
        conns.setdefault(n, []).append((lid, anchor))
    nodes = {row[0]: (*row[1:], *p, conns.get(row[0], ()))
             for row, p in zip(rows.tolist(), xy.tolist())}
    return elems.tolist(), nodes


# -- scattering --------------------------------------------------------------

@dataclass
class ScatterReport:
    """What one scatter did to this partition."""
    sent: dict[int, list[int]] = field(default_factory=dict)
    received: list[int] = field(default_factory=list)
    touched_nodes: set[int] = field(default_factory=set)


def scatter_mesh(transport: Transport, state: SimState,
                 selections: dict[int, list[int]]) -> ScatterReport:
    """Exchange the selected elements and restore a consistent partition.

    Each destination gets one ``MIGRATION`` frame in which every node of
    its elements travels once; a corner missing from the frame raises
    ``ProtocolError``.  Receivers instantiate unknown nodes once, splice
    line chains through the carried prev/next ids (absent references stay
    null), and connect junction arms they can resolve locally.  Senders
    then drop what they handed over, cutting chains where a node leaves.
    Ends by rebuilding the shared-node registry.
    """
    mesh, graph = state.mesh, state.graph
    payloads = []
    for j in range(transport.size):
        elems = selections.get(j, [])
        if elems and j == transport.rank:
            raise ProtocolError("selection routed elements to their owner")
        payloads.append(_migration_frame(mesh, graph, elems))
    blobs = transport.all_to_all(payloads)

    frames = [_read_migration(blob, src) for src, blob in enumerate(blobs)
              if src != transport.rank]
    report = ScatterReport(sent={j: list(v) for j, v in selections.items() if v})
    _apply_frames(mesh, graph, frames, report)
    if any(selections.values()):
        _prune_sent(mesh, graph, selections, report)
    detect_shared_nodes(transport, mesh)
    return report


def _apply_frames(mesh, graph, frames, report):
    # each sender's nodes as (id, row), in the order its elements name them
    arrivals = []
    for elems, nodes in frames:
        seen: set[int] = set()
        for eid, surf, *corners in elems:
            for n in corners:
                node = nodes.get(n)
                if node is None:
                    raise ProtocolError(
                        f"element {eid} arrived without its corner {n}")
                if n not in seen:
                    seen.add(n)
                    arrivals.append((n, node))
                topo, entity, bnd, _, _, x, y, _ = node
                if mesh.alive_node(n):
                    if int(mesh.topo[n]) != topo:
                        raise ProtocolError(
                            f"node {n} arrived as class {topo}, "
                            f"held as {int(mesh.topo[n])}")
                    continue
                mesh.add_node(n, (x, y), topo=topo, entity=entity, bnd=bnd)
                report.touched_nodes.add(n)
            mesh.add_element(eid, tuple(corners), surf)
            report.received.append(eid)
            report.touched_nodes.update(corners)

    # chain links after all nodes exist, so presence checks see the union
    links: dict[int, dict[str, set[int]]] = {}
    for n, (topo, line, _, prv, nxt, _, _, _) in arrivals:
        if topo != LNODE:
            continue
        if line == NULL_ID:
            raise ProtocolError(f"L-node {n} arrived without a line")
        slot = links.setdefault(n, {"prv": set(), "nxt": set()})
        if prv != NULL_ID:
            slot["prv"].add(prv)
        if nxt != NULL_ID:
            slot["nxt"].add(nxt)
    for n in sorted(links):
        for attr, vals in links[n].items():
            if len(vals) > 1:
                raise ProtocolError(
                    f"senders disagree on {attr} of node {n}: {sorted(vals)}")
            if vals:
                _splice_link(mesh, n, attr, vals.pop())

    for n, (topo, pid, _, _, _, _, _, conns) in arrivals:
        if topo == PNODE:
            _apply_point(mesh, graph, n, pid, conns)


def _splice_link(mesh, n, attr, target):
    """Set one direction of a chain link, with reciprocal fill-in.

    Both directions describe the same global chain, so an existing link may
    only be confirmed, never changed: one that names another node raises,
    held or not, and nothing is written.  A target this worker does not
    hold is left out."""
    if not mesh.alive_node(target):
        return
    arr = getattr(mesh, attr)
    cur = int(arr[n])
    if cur not in (target, NULL_ID):
        raise ProtocolError(f"chain conflict at node {n}: {attr} is "
                            f"{cur}, packet says {target}")
    back = mesh.nxt if attr == "prv" else mesh.prv
    reciprocal = int(mesh.topo[target]) == LNODE
    if reciprocal and int(back[target]) not in (n, NULL_ID):
        raise ProtocolError(f"chain conflict at node {target}: reciprocal "
                            f"of {n} is {int(back[target])}")
    arr[n] = target
    if reciprocal:
        back[target] = n


def _apply_point(mesh, graph, nid, pid, conns):
    """Create or confirm the point at junction ``nid`` and connect it to
    each line whose arm this worker holds: the anchor is a live node that
    shares an element with the junction."""
    pt = graph.points.get(pid)
    if pt is None:
        pt = graph.points[pid] = Point(pid, nid)
    elif pt.node != nid:
        raise ProtocolError(
            f"point {pid} anchored at node {pt.node}, packet says {nid}")
    for lid, anchor in conns:
        if lid == NULL_ID:
            raise ProtocolError(f"point {pid} connection without a line")
        if anchor != NULL_ID and mesh.alive_node(anchor) \
                and mesh.n2e[nid] & mesh.n2e[anchor]:
            pt.connections.add(lid)


def _prune_sent(mesh, graph, selections, report):
    gone: set[int] = set()
    for elems in selections.values():
        gone.update(int(e) for e in elems)
    candidates: set[int] = set()
    for e in sorted(gone):
        candidates.update(int(n) for n in mesh.tri[e])
        mesh.remove_element(e)
    report.touched_nodes.update(candidates)
    removed = []
    for n in sorted(candidates):
        if not mesh.alive_node(n) or mesh.n2e.get(n):
            continue
        if int(mesh.topo[n]) == PNODE:
            graph.points.pop(int(mesh.entity[n]), None)
        mesh.remove_node(n)
        removed.append(n)
    # cut every chain where it names a node that left: a junction that
    # returns with a later scatter must not find a stale link to itself
    alive = mesh.alive_nodes()
    for arr in (mesh.prv, mesh.nxt):
        arr[alive[np.isin(arr[alive], removed)]] = NULL_ID


# -- stencil completion ------------------------------------------------------

@dataclass
class StencilSupport:
    """Remote samples completing the curvature stencils at shared nodes.

    ``line_sides`` maps (line, node) to up to two outward-ordered sample
    runs, each a list of (node id, position); ``point_arms`` maps a shared
    junction's node to its merged global arm list.  Entries are plain data,
    never mesh nodes, and simply expire with the object."""
    line_sides: dict[tuple[int, int], list[list[tuple[int, np.ndarray]]]] = \
        field(default_factory=dict)
    point_arms: dict[int, list[tuple[int, np.ndarray]]] = \
        field(default_factory=dict)

    def far_side(self, lid: int, nid: int, inward: int):
        """The sample run leading away from ``inward`` at node ``nid``."""
        for side in self.line_sides.get((lid, nid), []):
            if side and side[0][0] != inward:
                return side
        return []


def _walk_outward(mesh, lid, nid, link):
    """Ids of the chain nodes starting at ``link`` and moving away from
    ``nid``.

    Stops after ``_STENCIL_DEPTH`` nodes, at a chain break, or at an
    attached endpoint junction (which is still included, like segments
    do)."""
    ids = []
    prev, cur = int(nid), int(link)
    while len(ids) < _STENCIL_DEPTH and cur != NULL_ID \
            and mesh.alive_node(cur):
        ids.append(cur)
        if int(mesh.topo[cur]) != LNODE or int(mesh.entity[cur]) != lid:
            break
        a, b = int(mesh.prv[cur]), int(mesh.nxt[cur])
        prev, cur = cur, (b if a == prev else a if b == prev else NULL_ID)
    return ids


def _local_sides(mesh, lid, nid):
    sides = []
    for link in (int(mesh.prv[nid]), int(mesh.nxt[nid])):
        if link != NULL_ID:
            run = _walk_outward(mesh, lid, nid, link)
            if run:
                sides.append(run)
    return sides


def complete_temporary_nodes(transport: Transport, mesh: Mesh,
                             plan: VelocityPlan) -> StencilSupport:
    """Exchange the remote stencil support of every shared node.

    Each owner sends every co-owner, unasked, the current positions of the
    samples ``plan`` records for each node they share: up to
    ``_STENCIL_DEPTH`` chain nodes per direction at a line node, its local
    arm endpoints at a junction; nodes ascending, co-owners ascending.  The
    shared-node registry is symmetric, so one exchange hands every owner
    the support of all its co-owners, and all owners assemble the same
    merged picture, because every run is keyed by its first node and the
    longest run per key wins.  Each co-owner's records travel as one
    ``SUPPORT`` frame.  A frame whose sample counts do not match the
    samples it carries, or a record for a node its sender does not share
    with this worker or that disagrees with the local node class or line,
    raises ``ProtocolError``.
    """
    registry = mesh.shared
    support = StencilSupport()
    best: dict[tuple[int, int], dict[int, list]] = {}

    def offer(lid, nid, run):
        if not run:
            return
        per_key = best.setdefault((lid, nid), {})
        key = run[0][0]
        old = per_key.get(key)
        if old is None or len(run) > len(old):
            if old is not None:
                _check_prefix(old, run, nid)
            per_key[key] = run
        else:
            _check_prefix(run, old, nid)

    # per co-owner: record heads, sample ids, sample positions
    outbox = [([], [], []) for _ in range(transport.size)]
    for n, mode, lid, runs in plan.stencils:
        sampled = [list(zip(run, mesh.pos[run])) for run in runs]
        if mode == MODE_CHAIN:
            for run in sampled:
                offer(lid, n, run)
        else:
            support.point_arms[n] = dict(sampled[0])
        for j in sorted(registry[n]):
            heads, ids, xy = outbox[j]
            for run in sampled:
                heads.append((mode, lid, n, len(run)))
                ids.extend(m for m, _ in run)
                xy.extend(p for _, p in run)

    blobs = transport.all_to_all([encode_arrays(o, SUPPORT) for o in outbox])
    for src, blob in enumerate(blobs):
        heads, ids, xy = decode_arrays(blob, SUPPORT)
        counts = heads[:, 3]
        if (counts < 0).any() or counts.sum() != len(ids) \
                or len(ids) != len(xy):
            raise ProtocolError(
                f"worker {src} declared {int(counts.sum())} stencil samples "
                f"and sent {len(ids)} ids with {len(xy)} positions")
        ends = np.cumsum(counts).tolist()
        ids = ids.tolist()
        for (mode, lid, n, count), end in zip(heads.tolist(), ends):
            if src not in registry.get(n, ()):
                raise ProtocolError(
                    f"worker {src} sent stencil support at node {n}, "
                    f"which it does not share with worker {transport.rank}")
            topo = int(mesh.topo[n])
            if mode != _SUPPORT_MODE.get(topo):
                raise ProtocolError(
                    f"worker {src} sent mode {mode} stencil support at "
                    f"node {n}, held as class {topo}")
            samples = [(ids[k], xy[k]) for k in range(end - count, end)]
            if mode == MODE_CHAIN:
                if lid != int(mesh.entity[n]):
                    raise ProtocolError(
                        f"worker {src} puts node {n} on line {lid}, "
                        f"held on {int(mesh.entity[n])}")
                offer(lid, n, samples)
            else:
                merged = support.point_arms[n]
                for m, p in samples:
                    if m in merged and not np.array_equal(merged[m], p):
                        raise ProtocolError(
                            f"owners disagree on position of arm node {m}")
                    merged[m] = p

    for (lid, nid), per_key in best.items():
        if len(per_key) > 2:
            raise ProtocolError(
                f"node {nid} reports more than two chain directions")
        support.line_sides[(lid, nid)] = [per_key[k] for k in sorted(per_key)]
    support.point_arms = {n: sorted(((m, p) for m, p in arms.items()))
                          for n, arms in support.point_arms.items()}
    return support


def _check_prefix(short, long, nid):
    for (m1, p1), (m2, p2) in zip(short, long):
        if m1 != m2 or not np.array_equal(p1, p2):
            raise ProtocolError(
                f"owners disagree on the chain beyond node {nid}")


# -- velocities with remote stencils ----------------------------------------

@dataclass
class PlannedSegment:
    """One line segment as every velocity evaluation of an increment reads
    it: its chain ``ids``, and for an open segment the inward neighbour of
    each end that is a shared L-node (``NULL_ID`` otherwise), whose far-side
    support extends the chain.  ``write_ids`` are the nodes whose velocity
    the segment sets, at rows ``write_rows`` of the chain before extension."""
    line: int
    ids: np.ndarray
    closed: bool
    head: int
    tail: int
    write_ids: np.ndarray
    write_rows: np.ndarray


@dataclass
class VelocityPlan:
    """The topology of one increment's stencil completions and velocity
    evaluations.

    Motion moves nodes but never relinks them, so what one look at the
    chains and patches finds holds for every substep:

    * ``stencils``: per shared L-node or junction, ascending by node, what
      it sends its co-owners, as (node, mode, line, runs); ``runs`` are
      lists of sample ids, the outward chain runs at an L-node and the one
      list of arm ids at a junction, whose line is ``NULL_ID``;
    * ``segments``: the line segments;
    * ``junctions``: each junction that is not shared, with its arm ids; a
      shared junction's arms come from the stencil support."""
    stencils: list[tuple[int, int, int, list[list[int]]]] = \
        field(default_factory=list)
    segments: list[PlannedSegment] = field(default_factory=list)
    junctions: list[tuple[int, list[int]]] = field(default_factory=list)


def velocity_plan(mesh: Mesh, graph: EntityGraph) -> VelocityPlan:
    """Plan the stencil completions and velocity evaluations of one
    increment, after junction decomposition."""
    members = lnodes_by_line(mesh)
    plan = VelocityPlan()
    for n in sorted(mesh.shared):
        mode = _SUPPORT_MODE.get(int(mesh.topo[n]))
        if mode == MODE_CHAIN:
            lid = int(mesh.entity[n])
            plan.stencils.append((n, mode, lid, _local_sides(mesh, lid, n)))
        elif mode == MODE_ARMS:
            plan.stencils.append(
                (n, mode, NULL_ID, [junction_arms(mesh, graph, members, n)]))
    shared_lnodes = [n for n, mode, _, _ in plan.stencils
                     if mode == MODE_CHAIN]
    shared_junctions = {n for n, mode, _, _ in plan.stencils
                        if mode == MODE_ARMS}

    for lid in sorted(members):
        for seg in line_segments(mesh, lid, members[lid]):
            ids = np.asarray(seg.nodes)
            if seg.closed:
                plan.segments.append(PlannedSegment(
                    lid, ids, True, NULL_ID, NULL_ID, ids,
                    np.arange(len(ids))))
                continue
            if len(ids) == 1:
                continue  # lone shared node; its window covers it
            shared = np.isin(ids, shared_lnodes)
            head = int(ids[1]) if shared[0] else NULL_ID
            tail = int(ids[-2]) if shared[-1] else NULL_ID
            rows = np.flatnonzero((mesh.topo[ids] == LNODE) & ~shared)
            plan.segments.append(PlannedSegment(
                lid, ids, False, head, tail, ids[rows], rows))
    for pid in sorted(graph.points):
        n = graph.points[pid].node
        if n not in shared_junctions:
            plan.junctions.append((n, junction_arms(mesh, graph, members, n)))
    return plan


def node_velocities_parallel(mesh: Mesh, mobility: float,
                             support: StencilSupport,
                             plan: VelocityPlan) -> np.ndarray:
    """Curvature velocity for every line and junction node, walls applied.

    Every spline of the evaluation goes into one batched solve: open
    segments with natural ends, closed loops periodic, and one not-a-knot
    window per shared line node.  Junctions take the arm formula; bulk nodes
    carry zero velocity and follow through smoothing.  Part of a stencil may
    live remotely: open segments are extended by the far-side samples before
    fitting, shared line nodes take the value of their canonical five-point
    window, and shared junctions use the merged global arm set, so all
    owners produce bit-identical values.  The topology comes from ``plan``,
    built once per increment by ``velocity_plan``; an evaluation reads only
    the current positions and ``support``.
    """
    pos = mesh.pos
    vel = np.zeros_like(pos)
    chains: list[np.ndarray] = []
    ends: list[int] = []
    writes: list[tuple[np.ndarray, np.ndarray]] = []
    for seg in plan.segments:
        pts = pos[seg.ids]
        lead = 0
        if seg.head != NULL_ID:
            run = support.far_side(seg.line, int(seg.ids[0]), seg.head)
            if run:
                pts = np.vstack([[p for _, p in reversed(run)], pts])
                lead = len(run)
        if seg.tail != NULL_ID:
            run = support.far_side(seg.line, int(seg.ids[-1]), seg.tail)
            if run:
                pts = np.vstack([pts, [p for _, p in run]])
        chains.append(pts)
        ends.append(PERIODIC if seg.closed else NATURAL)
        writes.append((seg.write_ids, lead + seg.write_rows))
    for n, mode, lid, _ in plan.stencils:
        if mode == MODE_CHAIN:
            knots, index = _shared_window(mesh, support, lid, n)
            chains.append(knots)
            ends.append(NOT_A_KNOT)
            writes.append((np.array([n]), np.array([index])))
    for (ids, rows), kap in zip(writes, spline_curvature(chains, ends)):
        vel[ids] = mobility * kap[rows]

    for n, arms in plan.junctions:
        vel[n] = mobility * junction_curvature(
            pos[n], [(m, pos[m]) for m in arms])
    for n, arms in support.point_arms.items():
        vel[n] = mobility * junction_curvature(pos[n], arms)
    constrain_to_walls(mesh, vel)
    return vel


def _shared_window(mesh, support, lid, nid):
    """Knots of the canonical stencil window at a shared line node, and the
    node's index in them.

    The window is the node plus up to two samples per side, sides ordered by
    their first node id and the whole window flipped to ascending endpoint
    ids; every owner assembles exactly these knots."""
    sides = support.line_sides.get((lid, nid), [])
    lo = sides[0] if len(sides) > 0 else []
    hi = sides[1] if len(sides) > 1 else []
    ids = [m for m, _ in reversed(lo)] + [nid] + [m for m, _ in hi]
    pts = [p for _, p in reversed(lo)] + [mesh.pos[nid]] + [p for _, p in hi]
    index = len(lo)
    if len(pts) >= 2 and ids[0] > ids[-1]:
        pts = pts[::-1]
        index = len(pts) - 1 - index
    return np.asarray(pts), index


# -- collective movement -----------------------------------------------------

def parallel_move(transport: Transport, mesh: Mesh, nodes: np.ndarray,
                  delta: np.ndarray) -> int:
    """Advance nodes by ``delta``, backing off wherever elements would flip.

    The back-off of ``remesh.settle_offsets``, agreed collectively: every
    round each worker sends one ``IDS`` frame naming its flipped shared
    nodes, plus a ``NULL_ID`` sentinel whenever anything flipped, and damps
    its own flipped nodes and every node a peer named.  Co-owners so keep
    identical factors and identical coordinates, every worker runs the same
    rounds, and if the budget runs out all of them revert together.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    at = {n: i for i, n in enumerate(nodes.tolist())}

    def agree(idx, flipped):
        notices = [n for n in nodes[idx].tolist() if mesh.is_shared(n)]
        if flipped:
            notices.append(NULL_ID)
        gathered = transport.all_gather(encode_arrays([notices], IDS))
        heard = np.concatenate([decode_arrays(b, IDS)[0] for b in gathered])
        if len(heard) == 0:
            return None
        named = [at[n] for n in heard.tolist() if n in at]
        return np.union1d(idx, np.asarray(named, dtype=np.int64))

    return settle_offsets(mesh, nodes, delta, agree)


# -- the increment -----------------------------------------------------------

def parallel_increment(transport: Transport, state: SimState, dt: float,
                       mobility: float):
    """One evolution increment of this worker, in lockstep with its peers.

    Maintenance first with boundary operations blocked, then load balancing
    by ranking and scattering, a second maintenance pass confined to the
    regions the scatter unblocked, junction decomposition away from the
    boundary, stencil completion, and finally the damped collective motion.
    Junctions decompose before stencils are gathered: a peel can rewire a
    chain within stencil reach, and co-owners must fit identical knots.
    Motion never relinks nodes, so one ``velocity_plan`` built after the
    decomposition serves every stencil completion and velocity evaluation
    of the increment.
    The motion substep count is chosen so no node travels more than
    ``MAX_TRAVEL_FRAC * h`` per substep, from the fastest speed of any
    worker (a one-value ``SPEEDS`` frame), with stencil support and
    velocities recomputed from the current positions between substeps.
    A single worker runs the same steps: it shares no nodes,
    sends no elements and its second maintenance pass has nothing in scope.
    """
    mesh, graph = state.mesh, state.graph
    pre_shared = set(mesh.shared)
    stats = remesh_pass(state)

    ranking = compute_ranking(transport, mesh.n_elems())
    selections = select_elements_to_send(mesh, ranking, transport.rank)
    report = scatter_mesh(transport, state, selections)

    scope = {n for n in pre_shared | report.touched_nodes
             if mesh.alive_node(n)}
    remesh_pass(state, scope=scope)

    decompose_junctions(mesh, graph, state.alloc, state.params)
    plan = velocity_plan(mesh, graph)
    support = complete_temporary_nodes(transport, mesh, plan)
    vel = node_velocities_parallel(mesh, mobility, support, plan)

    speeds = np.linalg.norm(vel, axis=1)
    local_vmax = float(speeds.max()) if len(speeds) else 0.0
    vmax = max(_gather_one(transport, local_vmax, SPEEDS))
    cap = MAX_TRAVEL_FRAC * state.params.h
    n_sub = max(1, int(np.ceil(vmax * dt / cap))) if vmax > 0.0 else 1
    for i in range(n_sub):
        if i > 0:
            support = complete_temporary_nodes(transport, mesh, plan)
            vel = node_velocities_parallel(mesh, mobility, support, plan)
        moving = mesh.alive_nodes()
        moving = moving[(vel[moving] != 0.0).any(axis=1)]
        parallel_move(transport, mesh, moving, vel[moving] * (dt / n_sub))
    return stats


# -- bootstrap ---------------------------------------------------------------

def bootstrap_state(transport: Transport,
                    build: Callable[[], tuple[Mesh, np.ndarray]],
                    h: float) -> SimState:
    """Give every worker its partition of a mesh that rank 0 alone builds.

    Only rank 0 calls ``build``, which returns the starting mesh and the
    part of each element, indexed by element id.  Rank 0 tags the mesh,
    reconstructs its entity graph and sends each worker its elements in
    one ``MIGRATION`` frame, which the worker applies to an empty mesh and
    graph as a scatter applies the elements it receives: chain links are
    cut at nodes the slice does not hold.  When rank 0's part holds every
    element, as in a one-worker run, it keeps the built mesh and graph
    themselves rather than a copy.  New ids of every kind start above the
    highest the built mesh and graph use, in this rank's stride; rank 0
    sends these ceilings as one ``IDS`` frame.  Every worker then builds
    the shared-node registry and checks that co-owners agree on each
    shared node's class and entity.
    """
    mesh, graph = Mesh(), EntityGraph()
    payloads = [_migration_frame(mesh, graph, [])] * transport.size
    ceilings: list[int] = []
    if transport.rank == 0:
        full, parts = build()
        tag_nodes(full)
        full_graph = reconstruct_entities(full)
        ceilings = id_ceilings(full, full_graph)
        eids = full.alive_elems()
        held = [eids[parts[eids] == j] for j in range(transport.size)]
        if len(held[0]) == len(eids):
            mesh, graph, held[0] = full, full_graph, []
        payloads = [_migration_frame(full, full_graph, e) for e in held]
    frame = transport.all_to_all(payloads)[0]
    _apply_frames(mesh, graph, [_read_migration(frame, 0)], ScatterReport())
    (tops,) = decode_arrays(
        transport.all_gather(encode_arrays([ceilings], IDS))[0], IDS)
    if len(tops) != len(ID_KINDS):
        raise ProtocolError(f"worker 0 sent {len(tops)} id ceilings, "
                            f"not {len(ID_KINDS)}")
    alloc = IdAllocator(dict(zip(ID_KINDS, tops.tolist())), transport.rank,
                        transport.size)
    state = SimState(mesh=mesh, graph=graph, alloc=alloc,
                     params=RemeshParams(h=h))
    detect_shared_nodes(transport, mesh)
    check_shared_agreement(transport, mesh)
    return state
