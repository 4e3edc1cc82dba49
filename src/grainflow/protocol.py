"""The distributed evolution protocol.

Every worker owns one partition and all workers execute the same program
order, meeting only in transport collectives.  A sequential run is the
one-worker case of the same program: nothing is shared, nothing migrates,
and every collective just hands a worker its own payload back.  The pieces
here keep the partitions telling one consistent story:

* a shared-node registry built from global node ids,
* identity regularization, which renames entities until all co-owners of a
  node agree on the entity names at it,
* unidirectional element selection and scattering, which migrate boundary
  layers toward less loaded workers while splicing chains and junction
  connections back together on the receiving side,
* stencil completion, in which every owner pushes its co-owners, unasked
  and in one exchange, the few positions they need so curvature at a
  shared node comes out bit-identical on every owner,
* a collective movement sweep whose flip back-off is agreed globally, so
  shared nodes land on exactly the same coordinates everywhere.

Determinism is load-bearing throughout: iteration follows sorted ids,
payloads are framed records over raw doubles, and every decision that
touches a shared node is made from data all owners possess.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .entities import (EntityGraph, KIND_LINE, KIND_POINT, KIND_SURFACE,
                       Line, Point, Surface, line_segments,
                       lnodes_by_line, reconstruct_entities, rename_entities,
                       tag_nodes)
from .geometry import (NATURAL, NOT_A_KNOT, PERIODIC, junction_curvature,
                       spline_curvature)
from .mesh import (LNODE, NULL_ID, PNODE, SNODE, Mesh, TopologyError,
                   is_domain_boundary_edge)
from .motion import (constrain_to_walls, decompose_junctions, junction_arms,
                     reduced_mobility)
from .partitioning import restrict_mesh
from .remesh import BACKOFF_MIN_FACTOR, BACKOFF_ROUNDS, MIN_AREA, remesh_pass
from .state import IdAllocator, RemeshParams, SimState
from .transport import Transport
from .wire import (MODE_ARMS, MODE_CHAIN, ElementPacket, FlipNotice,
                   NodePayload, Pair, TempNodeReply, Triplet,
                   decode_records, encode_records)

_KIND_CLASS = {KIND_POINT: PNODE, KIND_LINE: LNODE, KIND_SURFACE: SNODE}

# the stencil support record mode that belongs to each node class
_SUPPORT_MODE = {LNODE: MODE_CHAIN, PNODE: MODE_ARMS}

# how many chain nodes each side contributes to a shared-node stencil
_STENCIL_DEPTH = 2


class ProtocolError(RuntimeError):
    """A worker received data that no correct peer could have sent."""


# -- registry and ranking ----------------------------------------------------

def detect_shared_nodes(transport: Transport, mesh: Mesh) -> None:
    """Rebuild the shared-node registry ``mesh.shared`` from global node ids.

    Each worker publishes its live ids; intersection with every other
    worker's set yields the co-owner lists.  The registry is symmetric by
    construction.
    """
    mine = mesh.alive_nodes().astype(np.int64)
    blobs = transport.all_gather(mine.tobytes())
    mesh.shared = {}
    for src, blob in enumerate(blobs):
        if src == transport.rank:
            continue
        theirs = np.frombuffer(blob, dtype=np.int64)
        for n in np.intersect1d(mine, theirs, assume_unique=True):
            mesh.shared.setdefault(int(n), set()).add(src)


def compute_ranking(transport: Transport, n_local_elems: int) -> np.ndarray:
    """Per-part rank values: fewer elements means a higher value, ties go to
    the lower part number.  Identical on every worker."""
    blobs = transport.all_gather(np.int64(n_local_elems).tobytes())
    counts = [int(np.frombuffer(b, dtype=np.int64)[0]) for b in blobs]
    order = sorted(range(len(counts)), key=lambda p: (counts[p], p))
    ranking = np.zeros(len(counts), dtype=np.int64)
    for pos, p in enumerate(order):
        ranking[p] = len(counts) - 1 - pos
    return ranking


# -- identity regularization -------------------------------------------------

def regularize_identities(transport: Transport, mesh: Mesh,
                          graph: EntityGraph,
                          registry: dict[int, set[int]] | None = None):
    """Agree on entity names across partitions.

    For every shared node, each owner tells all co-owners which entity it
    couples to the node; the resulting identity correspondences are
    broadcast and chased into groups, and every group renames to its lowest
    identity.  Running it twice is a no-op the second time.
    """
    if registry is None:
        registry = mesh.shared
    renames: dict[str, dict[int, int]] = {}
    for kind in (KIND_POINT, KIND_LINE, KIND_SURFACE):
        renames[kind] = _regularize_kind(transport, mesh, graph, registry, kind)
    return renames


def _regularize_kind(transport, mesh, graph, registry, kind):
    cls = _KIND_CLASS[kind]
    outbox: list[list[Pair]] = [[] for _ in range(transport.size)]
    for n in sorted(registry):
        if int(mesh.topo[n]) != cls:
            continue
        ident = int(mesh.entity[n])
        if ident == NULL_ID:
            raise TopologyError(f"shared node {n} carries no entity identity")
        for j in sorted(registry[n]):
            outbox[j].append(Pair(n, ident))

    received = transport.all_to_all([encode_records(o) for o in outbox])
    trips: list[Triplet] = []
    for src, blob in enumerate(received):
        for pair in decode_records(blob):
            n = pair.node
            if not mesh.alive_node(n) or int(mesh.topo[n]) != cls:
                raise TopologyError(
                    f"worker {src} sees node {n} as a different class")
            trips.append(Triplet(int(mesh.entity[n]), pair.identity, src))

    gathered = transport.all_gather(encode_records(trips))
    universe: list[Triplet] = []
    for blob in gathered:
        universe.extend(decode_records(blob))

    treated = [False] * len(universe)
    mapping: dict[int, int] = {}
    for start in range(len(universe)):
        if treated[start]:
            continue
        same = _chase_group(universe, treated, start)
        if not treated[start]:
            # a consistent exchange always contains the mirror triplet
            raise ProtocolError(
                f"unmatched identity triplet {universe[start]}; "
                "the exchange is corrupt")
        lowest = min(ident for ident, _part in same)
        for ident, part in same:
            if part == transport.rank and ident != lowest:
                mapping[ident] = lowest
    if mapping:
        rename_entities(mesh, graph, kind, mapping)
    return mapping


def _chase_group(universe, treated, start):
    """Depth-first closure over identity coincidences.

    Follows each triplet's remote identity through the whole gathered list;
    every matched triplet contributes (remote identity, the part using it)."""
    same: list[tuple[int, int]] = []
    stack = [universe[start]]
    while stack:
        want = stack.pop().remote_id
        for i, u in enumerate(universe):
            if not treated[i] and u.local_id == want:
                treated[i] = True
                same.append((u.remote_id, u.part))
                stack.append(u)
    return same


# -- element selection -------------------------------------------------------

def select_elements_to_send(mesh: Mesh, registry: dict[int, set[int]],
                            ranking: np.ndarray, rank: int
                            ) -> dict[int, list[int]]:
    """Pick, per higher-ranked neighbor, the boundary elements to hand over.

    Only parts outranking the sender receive anything.  Candidates around
    nodes shared with such a neighbor are kept only when no node of the
    element is co-owned by a still higher-ranked part, so every element
    travels to the single best destination and the per-destination sets
    never overlap.
    """
    by_part: dict[int, list[int]] = {}
    for n in sorted(registry):
        for j in registry[n]:
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
    return _filter_ranked(mesh, registry, ranking, sends)


def _filter_ranked(mesh, registry, ranking, sends):
    out: dict[int, list[int]] = {}
    for j, elems in sorted(sends.items()):
        if not elems:
            continue
        kept: list[int] = []
        for e in elems:
            best = j
            for n in mesh.tri[e]:
                for k in registry.get(int(n), ()):
                    if ranking[k] > ranking[best]:
                        best = k
            if best == j:
                kept.append(e)
        if kept:
            out[j] = kept
    return out


# -- element packets ---------------------------------------------------------

def _point_connections(mesh, graph, nid):
    """Wire form of a junction's line connections: (line, anchor) pairs,
    where the anchor is the locally known node that realizes the arm."""
    pt = graph.points.get(int(mesh.entity[nid]))
    if pt is None:
        raise ProtocolError(f"P-node {nid} has no point entity")
    out = []
    for kind, lid in sorted(pt.connections):
        if kind != KIND_LINE:
            continue
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
                if other is not None and (KIND_LINE, lid) in other.connections:
                    anchor = m
                    break
        out.append((lid, anchor))
    return tuple(out)


def _node_payload(mesh, graph, nid):
    nid = int(nid)
    topo = int(mesh.topo[nid])
    payload = dict(node=nid, x=float(mesh.pos[nid, 0]), y=float(mesh.pos[nid, 1]),
                   topo=topo, entity=int(mesh.entity[nid]), bnd=int(mesh.bnd[nid]))
    if topo == LNODE:
        payload.update(prv=int(mesh.prv[nid]), nxt=int(mesh.nxt[nid]),
                       line=int(mesh.entity[nid]))
    elif topo == PNODE:
        payload.update(connections=_point_connections(mesh, graph, nid))
    return NodePayload(**payload)


def _element_packet(mesh, graph, eid):
    eid = int(eid)
    return ElementPacket(eid, int(mesh.surf[eid]),
                         tuple(_node_payload(mesh, graph, n)
                               for n in mesh.tri[eid]))


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

    Receivers instantiate unknown nodes once, splice line chains through the
    carried prev/next ids (absent references stay null), and connect
    junction arms they can resolve locally.  Senders then drop what they
    handed over, cutting chains where a node leaves.  Ends by rebuilding the
    shared-node registry.
    """
    mesh, graph = state.mesh, state.graph
    payloads = []
    for j in range(transport.size):
        elems = selections.get(j, [])
        if elems and j == transport.rank:
            raise ProtocolError("selection routed elements to their owner")
        payloads.append(encode_records(
            [_element_packet(mesh, graph, e) for e in elems]))
    blobs = transport.all_to_all(payloads)

    packets: list[ElementPacket] = []
    for src, blob in enumerate(blobs):
        if src == transport.rank:
            continue
        packets.extend(decode_records(blob))

    report = ScatterReport(sent={j: list(v) for j, v in selections.items() if v})
    if packets:
        _apply_packets(mesh, graph, packets, report)
    if any(selections.values()):
        _prune_sent(mesh, graph, selections, report)
    if packets or any(selections.values()):
        _sweep_graph(mesh, graph)
    detect_shared_nodes(transport, mesh)
    return report


def _apply_packets(mesh, graph, packets, report):
    for pk in packets:
        for np_ in pk.nodes:
            n = np_.node
            if mesh.alive_node(n):
                if int(mesh.topo[n]) != np_.topo:
                    raise ProtocolError(
                        f"node {n} arrived as class {np_.topo}, "
                        f"held as {int(mesh.topo[n])}")
                continue
            mesh.add_node(n, (np_.x, np_.y), topo=np_.topo,
                          entity=np_.entity, bnd=np_.bnd)
            report.touched_nodes.add(n)
        graph.surfaces.setdefault(pk.surf, Surface(pk.surf))
        mesh.add_element(pk.elem, tuple(p.node for p in pk.nodes), pk.surf)
        report.received.append(pk.elem)
        report.touched_nodes.update(p.node for p in pk.nodes)

    # chain links after all nodes exist, so presence checks see the union
    links: dict[int, dict[str, set[int]]] = {}
    for pk in packets:
        for np_ in pk.nodes:
            if np_.topo != LNODE:
                continue
            if np_.line == NULL_ID:
                raise ProtocolError(f"L-node {np_.node} arrived without a line")
            graph.lines.setdefault(np_.line, Line(np_.line))
            slot = links.setdefault(np_.node, {"prv": set(), "nxt": set()})
            if np_.prv != NULL_ID:
                slot["prv"].add(np_.prv)
            if np_.nxt != NULL_ID:
                slot["nxt"].add(np_.nxt)
    for n in sorted(links):
        for attr, vals in links[n].items():
            if len(vals) > 1:
                raise ProtocolError(
                    f"senders disagree on {attr} of node {n}: {sorted(vals)}")
            if vals:
                _splice_link(mesh, n, attr, vals.pop())

    for pk in packets:
        for np_ in pk.nodes:
            if np_.topo == PNODE:
                _apply_point(mesh, graph, np_)


def _splice_link(mesh, n, attr, target):
    """Set one direction of a chain link, with reciprocal fill-in.

    Both directions describe the same global chain, so an existing non-null
    value may only be confirmed, never changed."""
    if not mesh.alive_node(target):
        return
    arr = getattr(mesh, attr)
    cur = int(arr[n])
    if cur == target:
        pass
    elif cur == NULL_ID:
        arr[n] = target
    else:
        raise ProtocolError(
            f"chain conflict at node {n}: {attr} is {cur}, packet says {target}")
    if int(mesh.topo[target]) == LNODE:
        back = mesh.nxt if attr == "prv" else mesh.prv
        cur_back = int(back[target])
        if cur_back == NULL_ID:
            back[target] = n
        elif cur_back != n:
            raise ProtocolError(
                f"chain conflict at node {target}: reciprocal of {n} is "
                f"{cur_back}")


def _apply_point(mesh, graph, np_):
    pid = np_.entity
    pt = graph.points.get(pid)
    if pt is None:
        pt = graph.points[pid] = Point(pid, np_.node)
    elif pt.node != np_.node:
        raise ProtocolError(
            f"point {pid} anchored at node {pt.node}, packet says {np_.node}")
    for lid, anchor in np_.connections:
        if lid == NULL_ID:
            raise ProtocolError(f"point {pid} connection without a line")
        if anchor != NULL_ID and mesh.alive_node(anchor):
            graph.lines.setdefault(lid, Line(lid))
            pt.connections.add((KIND_LINE, lid))


def _prune_sent(mesh, graph, selections, report):
    gone: set[int] = set()
    for elems in selections.values():
        gone.update(int(e) for e in elems)
    candidates: set[int] = set()
    for e in sorted(gone):
        candidates.update(int(n) for n in mesh.tri[e])
        mesh.remove_element(e)
    report.touched_nodes.update(candidates)
    for n in sorted(candidates):
        if not mesh.alive_node(n) or mesh.n2e.get(n):
            continue
        if int(mesh.topo[n]) == LNODE:
            for m in (int(mesh.prv[n]), int(mesh.nxt[n])):
                if mesh.alive_node(m) and int(mesh.topo[m]) == LNODE:
                    if int(mesh.prv[m]) == n:
                        mesh.prv[m] = NULL_ID
                    if int(mesh.nxt[m]) == n:
                        mesh.nxt[m] = NULL_ID
        elif int(mesh.topo[n]) == PNODE:
            graph.points.pop(int(mesh.entity[n]), None)
        mesh.remove_node(n)


def _sweep_graph(mesh, graph):
    """Drop entity objects that no longer touch this partition."""
    eids = mesh.alive_elems()
    alive_surfs = {int(s) for s in np.unique(mesh.surf[eids])} if len(eids) else set()
    for sid in [s for s in graph.surfaces if s not in alive_surfs]:
        del graph.surfaces[sid]
    for pid in [p for p, pt in graph.points.items()
                if not mesh.alive_node(pt.node)]:
        del graph.points[pid]
    members = lnodes_by_line(mesh)
    referenced = {lid for pt in graph.points.values()
                  for kind, lid in pt.connections if kind == KIND_LINE}
    for lid in [l for l in graph.lines
                if l not in members and l not in referenced]:
        del graph.lines[lid]


# -- stencil completion ------------------------------------------------------

def _junction_arms_shared(mesh, graph, members, nid):
    """Arms of a shared junction from topology alone.

    The usual two-element surface comparison cannot see an arm whose edge
    straddles the partition cut, so arms are read off the entity structure:
    chain-linked line members, adjacent far junctions of member-less lines
    (``members`` is ``lnodes_by_line(mesh)``), and wall edges.  Each owner
    reports what it holds; unions are exact.
    """
    pt = graph.points.get(int(mesh.entity[nid]))
    arms: dict[int, np.ndarray] = {}
    for m in mesh.node_neighbors(nid):
        if int(mesh.topo[m]) == LNODE and \
                nid in (int(mesh.prv[m]), int(mesh.nxt[m])):
            arms[m] = mesh.pos[m]
        elif int(mesh.topo[m]) == PNODE and pt is not None:
            other = graph.points.get(int(mesh.entity[m]))
            if other is None:
                continue
            for kind, lid in pt.connections & other.connections:
                if kind == KIND_LINE and not members.get(lid):
                    arms[m] = mesh.pos[m]
                    break
        if m not in arms and is_domain_boundary_edge(mesh, nid, m):
            arms[m] = mesh.pos[m]
    return [(m, arms[m]) for m in sorted(arms)]

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


def _walk_outward(mesh, lid, nid, link, limit=_STENCIL_DEPTH):
    """Chain samples starting at ``link`` and moving away from ``nid``.

    Stops at the sample limit, a chain break, or an attached endpoint
    junction (which is still included, like segments do)."""
    samples = []
    prev, cur = int(nid), int(link)
    while len(samples) < limit and cur != NULL_ID and mesh.alive_node(cur):
        samples.append((cur, mesh.pos[cur].copy()))
        if int(mesh.topo[cur]) != LNODE or int(mesh.entity[cur]) != lid:
            break
        a, b = int(mesh.prv[cur]), int(mesh.nxt[cur])
        prev, cur = cur, (b if a == prev else a if b == prev else NULL_ID)
    return samples


def _local_sides(mesh, lid, nid):
    sides = []
    for link in (int(mesh.prv[nid]), int(mesh.nxt[nid])):
        if link != NULL_ID:
            run = _walk_outward(mesh, lid, nid, link)
            if run:
                sides.append(run)
    return sides


def _wire_samples(run):
    return tuple((m, float(p[0]), float(p[1])) for m, p in run)


def complete_temporary_nodes(transport: Transport, mesh: Mesh,
                             graph: EntityGraph,
                             members: dict[int, list[int]]) -> StencilSupport:
    """Exchange the remote stencil support of every shared node.

    Each owner sends every co-owner, unasked, what it holds at each node
    they share: up to ``_STENCIL_DEPTH`` chain nodes per direction at a line
    node, its local arm endpoints at a junction; nodes ascending, co-owners
    ascending.  The shared-node registry is symmetric, so one exchange hands
    every owner the support of all its co-owners, and all owners assemble
    the same merged picture, because every run is keyed by its first node
    and the longest run per key wins.  A record for a node its sender does
    not share with this worker, or that disagrees with the local node class
    or line, raises ``ProtocolError``.  ``members`` is
    ``lnodes_by_line(mesh)``.
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

    outbox: list[list[TempNodeReply]] = [[] for _ in range(transport.size)]
    for n in sorted(registry):
        topo = int(mesh.topo[n])
        if topo == LNODE:
            lid = int(mesh.entity[n])
            runs = _local_sides(mesh, lid, n)
            for run in runs:
                offer(lid, n, run)
            records = [TempNodeReply(MODE_CHAIN, lid, n, _wire_samples(run))
                       for run in runs]
        elif topo == PNODE:
            arms = _junction_arms_shared(mesh, graph, members, n)
            support.point_arms[n] = {m: p.copy() for m, p in arms}
            records = [TempNodeReply(MODE_ARMS, NULL_ID, n, _wire_samples(arms))]
        else:
            continue
        for j in sorted(registry[n]):
            outbox[j].extend(records)

    blobs = transport.all_to_all([encode_records(o) for o in outbox])
    for src, blob in enumerate(blobs):
        for rep in decode_records(blob):
            n = rep.node
            if src not in registry.get(n, ()):
                raise ProtocolError(
                    f"worker {src} sent stencil support at node {n}, "
                    f"which it does not share with worker {transport.rank}")
            topo = int(mesh.topo[n])
            if rep.mode != _SUPPORT_MODE.get(topo):
                raise ProtocolError(
                    f"worker {src} sent mode {rep.mode} stencil support at "
                    f"node {n}, held as class {topo}")
            samples = [(m, np.array([x, y])) for m, x, y in rep.samples]
            if rep.mode == MODE_CHAIN:
                if rep.line != int(mesh.entity[n]):
                    raise ProtocolError(
                        f"worker {src} puts node {n} on line {rep.line}, "
                        f"held on {int(mesh.entity[n])}")
                offer(rep.line, n, samples)
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

def node_velocities_parallel(mesh: Mesh, graph: EntityGraph, mobility: float,
                             support: StencilSupport,
                             members: dict[int, list[int]]) -> np.ndarray:
    """Curvature velocity for every line and junction node, walls applied.

    Every spline of the evaluation goes into one batched solve: open
    segments with natural ends, closed loops periodic, and one not-a-knot
    window per shared line node.  Junctions take the arm formula; bulk nodes
    carry zero velocity and follow through smoothing.  Part of a stencil may
    live remotely: open segments are extended by the far-side samples before
    fitting, shared line nodes take the value of their canonical five-point
    window, and shared junctions use the merged global arm set, so all
    owners produce bit-identical values.  ``members`` is
    ``lnodes_by_line(mesh)``.
    """
    vel = np.zeros_like(mesh.pos)
    chains: list[np.ndarray] = []
    ends: list[int] = []
    writes: list[tuple[np.ndarray, np.ndarray]] = []
    for lid in sorted(graph.lines):
        for seg in line_segments(mesh, lid, members.get(lid, [])):
            ids = np.asarray(seg.nodes)
            if seg.closed:
                chains.append(mesh.pos[ids])
                ends.append(PERIODIC)
                writes.append((ids, np.arange(len(ids))))
                continue
            if len(ids) == 1:
                continue  # lone shared node; its window covers it
            pts = [mesh.pos[ids]]
            lead = 0
            head, tail = int(ids[0]), int(ids[-1])
            if mesh.topo[head] == LNODE and mesh.is_shared(head):
                run = support.far_side(lid, head, int(ids[1]))
                if run:
                    pts.insert(0, np.array([p for _, p in reversed(run)]))
                    lead = len(run)
            if mesh.topo[tail] == LNODE and mesh.is_shared(tail):
                run = support.far_side(lid, tail, int(ids[-2]))
                if run:
                    pts.append(np.array([p for _, p in run]))
            keep = (mesh.topo[ids] == LNODE) \
                & np.array([not mesh.is_shared(int(n)) for n in ids])
            chains.append(np.vstack(pts))
            ends.append(NATURAL)
            writes.append((ids[keep], lead + np.flatnonzero(keep)))
    for n in sorted(mesh.shared):
        if int(mesh.topo[n]) != LNODE:
            continue
        knots, index = _shared_window(mesh, support, int(mesh.entity[n]), n)
        chains.append(knots)
        ends.append(NOT_A_KNOT)
        writes.append((np.array([n]), np.array([index])))
    for (ids, rows), kap in zip(writes, spline_curvature(chains, ends)):
        vel[ids] = mobility * kap[rows]

    for pid in sorted(graph.points):
        n = graph.points[pid].node
        if mesh.is_shared(n):
            arms = support.point_arms.get(n, [])
        else:
            arms = junction_arms(mesh, n)
        vel[n] = mobility * junction_curvature(mesh.pos[n], arms)
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

    The cascade of ``remesh.settle_offsets``, run collectively: positions
    from a per-node factor on the full offset, factors halving at nodes of
    inverted elements.  Every round the workers agree on the shared nodes
    to damp, so co-owners keep identical factors and identical coordinates;
    a round with purely private flips still reports a sentinel to keep
    everyone in the loop.  If the budget runs out, all workers revert
    together.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    base = mesh.pos[nodes].copy()
    f = np.ones(len(nodes))
    lookup = np.full(len(mesh.node_alive), -1, dtype=np.int64)
    if len(nodes):
        lookup[nodes] = np.arange(len(nodes))
    eids = mesh.alive_elems()
    for _ in range(BACKOFF_ROUNDS):
        mesh.pos[nodes] = base + f[:, None] * delta
        areas = mesh.areas(eids)
        bad = eids[areas <= MIN_AREA]
        idx = lookup[mesh.tri[bad]] if len(bad) else np.zeros(0, dtype=np.int64)
        idx = np.unique(idx[idx >= 0])
        notices = [FlipNotice(int(n)) for n in nodes[idx]
                   if mesh.is_shared(int(n))]
        if len(bad) and len(notices) < len(bad) + len(idx):
            # private flips (or flips with no moving node) still force a round
            notices.append(FlipNotice(NULL_ID))
        gathered = transport.all_gather(encode_records(notices))
        lists = [decode_records(b) for b in gathered]
        if all(len(l) == 0 for l in lists):
            break
        damp = set(int(i) for i in idx)
        for l in lists:
            for fn in l:
                if fn.node != NULL_ID and 0 <= fn.node < len(lookup):
                    j = int(lookup[fn.node])
                    if j >= 0:
                        damp.add(j)
        if damp:
            di = np.fromiter(damp, dtype=np.int64)
            f[di] *= 0.5
            f[f < BACKOFF_MIN_FACTOR] = 0.0
    else:
        mesh.pos[nodes] = base
        return 0
    return int(np.count_nonzero(f))


# -- the increment -----------------------------------------------------------

def parallel_increment(transport: Transport, state: SimState, dt: float,
                       mobility: float | None = None,
                       max_travel_frac: float = 0.25):
    """One evolution increment of this worker, in lockstep with its peers.

    Maintenance first with boundary operations blocked, then load balancing
    by ranking and scattering, a second maintenance pass confined to the
    regions the scatter unblocked, junction decomposition away from the
    boundary, stencil completion, and finally the damped collective motion.
    Junctions decompose before stencils are gathered: a peel can rewire a
    chain within stencil reach, and co-owners must fit identical knots.
    The motion substep count is chosen so no node travels more than
    ``max_travel_frac * h`` per substep, with velocities recomputed between
    substeps.  A single worker runs the same steps: it shares no nodes,
    sends no elements and its second maintenance pass has nothing in scope.
    """
    if mobility is None:
        mobility = reduced_mobility()
    mesh, graph = state.mesh, state.graph
    pre_shared = set(mesh.shared)
    stats = remesh_pass(state)

    ranking = compute_ranking(transport, mesh.n_elems())
    selections = select_elements_to_send(mesh, mesh.shared, ranking,
                                         transport.rank)
    report = scatter_mesh(transport, state, selections)

    scope = {n for n in pre_shared | report.touched_nodes
             if mesh.alive_node(n)}
    remesh_pass(state, scope=scope)

    decompose_junctions(mesh, graph, state.alloc, state.params)
    # motion moves nodes but never relinks them: one member scan serves
    # every velocity evaluation of this increment
    members = lnodes_by_line(mesh)
    support = complete_temporary_nodes(transport, mesh, graph, members)
    vel = node_velocities_parallel(mesh, graph, mobility, support, members)

    speeds = np.linalg.norm(vel, axis=1)
    local_vmax = float(speeds.max()) if len(speeds) else 0.0
    blobs = transport.all_gather(np.float64(local_vmax).tobytes())
    vmax = max(float(np.frombuffer(b, dtype=np.float64)[0]) for b in blobs)
    cap = max_travel_frac * state.params.h
    n_sub = max(1, int(np.ceil(vmax * dt / cap))) if vmax > 0.0 else 1
    for i in range(n_sub):
        if i > 0:
            support = complete_temporary_nodes(transport, mesh, graph,
                                               members)
            vel = node_velocities_parallel(mesh, graph, mobility, support,
                                           members)
        moving = mesh.alive_nodes()
        moving = moving[(vel[moving] != 0.0).any(axis=1)]
        parallel_move(transport, mesh, moving, vel[moving] * (dt / n_sub))
    return stats


# -- bootstrap ---------------------------------------------------------------

def bootstrap_state(transport: Transport, full_mesh: Mesh,
                    parts: np.ndarray, h: float) -> SimState:
    """Carve this worker's partition out of an identically built full mesh.

    Every worker constructs the same tessellation, tags it, reconstructs the
    same entity graph and applies the same partition, so all ids agree from
    the start; the restriction just keeps the local slice, with chain links
    cut at the boundary exactly as a scatter would leave them; a part that
    holds every element evolves the full mesh itself, not a copy.  New ids
    of every kind start above the highest the full mesh and graph use, in
    this rank's stride.  Identity regularization still runs once at the end
    as a cross-check of the exchange plumbing.
    """
    tag_nodes(full_mesh)
    full_graph = reconstruct_entities(full_mesh)
    alloc = IdAllocator.above(full_mesh, full_graph, transport.rank,
                              transport.size)

    sub = restrict_mesh(full_mesh, parts, transport.rank)
    graph = EntityGraph()

    eids = sub.alive_elems()
    for sid in (np.unique(sub.surf[eids]) if len(eids) else ()):
        src = full_graph.surfaces[int(sid)]
        graph.surfaces[int(sid)] = Surface(int(sid), src.orig_tag)

    members_full = lnodes_by_line(full_mesh)
    for n in sub.alive_nodes():
        n = int(n)
        if sub.topo[n] != PNODE:
            continue
        pid = int(sub.entity[n])
        conns = {(KIND_LINE, lid)
                 for kind, lid in full_graph.points[pid].connections
                 if kind == KIND_LINE
                 and _line_visible(sub, full_mesh, full_graph,
                                   members_full, n, lid)}
        graph.points[pid] = Point(pid, n, conns)

    lids = {int(sub.entity[n]) for n in sub.alive_nodes()
            if sub.topo[n] == LNODE}
    lids |= {lid for pt in graph.points.values()
             for kind, lid in pt.connections if kind == KIND_LINE}
    for lid in sorted(lids):
        graph.lines[lid] = Line(lid)

    state = SimState(mesh=sub, graph=graph, alloc=alloc,
                     params=RemeshParams(h=h))
    detect_shared_nodes(transport, sub)
    regularize_identities(transport, sub, graph)
    return state


def _line_visible(sub, full, full_graph, members_full, nid, lid):
    """Whether a junction's line connection is realized inside this slice:
    either a chain-adjacent member node came along, or the line is a bare
    junction-to-junction edge and the far junction came along."""
    for m in sub.node_neighbors(nid):
        if sub.topo[m] == LNODE and int(sub.entity[m]) == lid \
                and nid in (int(full.prv[m]), int(full.nxt[m])):
            return True
        if (sub.topo[m] == PNODE and not members_full.get(lid)
                and (KIND_LINE, lid)
                in full_graph.points[int(sub.entity[m])].connections):
            return True
    return False
