"""Partition-local triangular mesh with stable 64-bit ids.

Nodes and elements are stored in flat numpy arrays indexed directly by id,
with alive masks instead of compaction.  Ids are never reused, so an id that
leaves a partition (or dies) stays dead forever and an array slot is a
tombstone.  This keeps cross-partition bookkeeping trivial: an id means the
same thing everywhere, and wire messages can carry ids verbatim.

Topological classes follow the degree convention used throughout the
package: a P-node (degree 0) sits on a multiple junction, an L-node
(degree 1) lies on a boundary line between two surfaces, and an S-node
(degree 2) is interior to a surface.
"""

from __future__ import annotations

import numpy as np

NULL_ID = -1

# topological classes, ordered by precedence (lower value = higher precedence)
PNODE = 0
LNODE = 1
SNODE = 2

# domain-boundary kind per node
BND_NONE = -1
BND_TANGENT_X = 0   # on a horizontal wall, free to move along x
BND_TANGENT_Y = 1   # on a vertical wall, free to move along y
BND_CORNER = 2      # pinned

MIN_AREA = 1e-12  # mm^2, an element this small is considered collapsed

# how far apart, in mm, two wall nodes may lie across their common wall line
WALL_TOL = 1e-9

_NODE_CHUNK = 1024
_ELEM_CHUNK = 2048


class MeshError(Exception):
    """Raised when mesh construction or mutation violates validity."""


class TopologyError(MeshError):
    """Raised when connectivity is non-manifold or otherwise inconsistent."""


class Mesh:
    """Triangular mesh over global node ids.

    All per-node and per-element attributes live in arrays whose index is the
    id itself.  ``node_alive`` / ``elem_alive`` select the live subset.
    ``n2e`` maps each live node id to the set of live element ids touching it.
    """

    def __init__(self) -> None:
        self.pos = np.zeros((0, 2), dtype=np.float64)
        self.topo = np.zeros(0, dtype=np.int8)
        self.entity = np.zeros(0, dtype=np.int64)
        self.prv = np.zeros(0, dtype=np.int64)
        self.nxt = np.zeros(0, dtype=np.int64)
        self.bnd = np.zeros(0, dtype=np.int8)
        self.node_alive = np.zeros(0, dtype=bool)

        self.tri = np.zeros((0, 3), dtype=np.int64)
        self.surf = np.zeros(0, dtype=np.int64)
        self.elem_alive = np.zeros(0, dtype=bool)

        self.n2e: dict[int, set[int]] = {}
        self.shared: dict[int, set[int]] = {}

    # -- storage ------------------------------------------------------------

    def _grow_nodes(self, nid: int) -> None:
        cap = len(self.pos)
        if nid < cap:
            return
        new = max(nid + 1, cap + _NODE_CHUNK, 2 * cap)
        self.pos = np.vstack([self.pos, np.zeros((new - cap, 2))])
        for name, fill in (("topo", SNODE), ("entity", NULL_ID),
                           ("prv", NULL_ID), ("nxt", NULL_ID), ("bnd", BND_NONE)):
            arr = getattr(self, name)
            ext = np.full(new - cap, fill, dtype=arr.dtype)
            setattr(self, name, np.concatenate([arr, ext]))
        self.node_alive = np.concatenate(
            [self.node_alive, np.zeros(new - cap, dtype=bool)])

    def _grow_elems(self, eid: int) -> None:
        cap = len(self.surf)
        if eid < cap:
            return
        new = max(eid + 1, cap + _ELEM_CHUNK, 2 * cap)
        self.tri = np.vstack([self.tri, np.full((new - cap, 3), NULL_ID, dtype=np.int64)])
        self.surf = np.concatenate(
            [self.surf, np.full(new - cap, NULL_ID, dtype=np.int64)])
        self.elem_alive = np.concatenate(
            [self.elem_alive, np.zeros(new - cap, dtype=bool)])

    # -- mutation -----------------------------------------------------------

    def add_node(self, nid: int, xy, topo: int = SNODE, entity: int = NULL_ID,
                 bnd: int = BND_NONE) -> None:
        nid = int(nid)
        self._grow_nodes(nid)
        if self.node_alive[nid]:
            raise MeshError(f"node id {nid} already present")
        self.pos[nid] = xy
        self.topo[nid] = topo
        self.entity[nid] = entity
        self.prv[nid] = NULL_ID
        self.nxt[nid] = NULL_ID
        self.bnd[nid] = bnd
        self.node_alive[nid] = True
        self.n2e[nid] = set()

    def remove_node(self, nid: int) -> None:
        if self.n2e.get(nid):
            raise MeshError(f"node {nid} still has incident elements")
        self.node_alive[nid] = False
        self.n2e.pop(nid, None)
        self.shared.pop(nid, None)
        self.prv[nid] = NULL_ID
        self.nxt[nid] = NULL_ID
        self.entity[nid] = NULL_ID

    def add_element(self, eid: int, nodes, surf: int) -> None:
        eid = int(eid)
        self._grow_elems(eid)
        if self.elem_alive[eid]:
            raise MeshError(f"element id {eid} already present")
        a, b, c = (int(n) for n in nodes)
        for n in (a, b, c):
            if n >= len(self.node_alive) or not self.node_alive[n]:
                raise MeshError(f"element {eid} references missing node {n}")
        self.tri[eid] = (a, b, c)
        self.surf[eid] = surf
        self.elem_alive[eid] = True
        for n in (a, b, c):
            self.n2e[n].add(eid)

    def remove_element(self, eid: int) -> None:
        if not self.elem_alive[eid]:
            raise MeshError(f"element {eid} not alive")
        for n in self.tri[eid]:
            s = self.n2e.get(int(n))
            if s is not None:
                s.discard(eid)
        self.elem_alive[eid] = False
        self.surf[eid] = NULL_ID

    def replace_node_in_element(self, eid: int, old: int, new: int) -> None:
        row = self.tri[eid]
        m = row == old
        if not m.any():
            raise MeshError(f"element {eid} does not contain node {old}")
        row[m] = new
        self.n2e[old].discard(eid)
        self.n2e[new].add(eid)

    # -- queries ------------------------------------------------------------

    def alive_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.node_alive)

    def alive_elems(self) -> np.ndarray:
        return np.flatnonzero(self.elem_alive)

    def live_arrays(self):
        """(node ids, positions, element ids, corners, surface ids) of the
        live mesh, ids ascending: the piece ``write_vtk`` writes."""
        nids, eids = self.alive_nodes(), self.alive_elems()
        return nids, self.pos[nids], eids, self.tri[eids], self.surf[eids]

    def n_nodes(self) -> int:
        return int(self.node_alive.sum())

    def n_elems(self) -> int:
        return int(self.elem_alive.sum())

    def alive_node(self, nid: int) -> bool:
        """Bounds-safe liveness test for a single id."""
        return 0 <= nid < len(self.node_alive) and bool(self.node_alive[nid])

    def areas(self, eids=None) -> np.ndarray:
        """Signed areas, positive for counterclockwise elements."""
        if eids is None:
            eids = self.alive_elems()
        p = self.pos[self.tri[eids]]
        return _tri_area(p)

    def edge_array(self, with_elems: bool = False):
        """Unique undirected edges among live elements, as an (E, 2) id array
        with each row sorted.  With ``with_elems`` also returns, per edge, the
        ids of its one or two incident elements (second slot NULL_ID), in
        the order the elements' sides (0, 1), (1, 2), (2, 0) list them.

        Each edge (a, b), a < b, is keyed as the one int64 ``a * N + b``
        with N the node capacity, so one flat sort orders the edges as rows
        would be ordered."""
        eids = self.alive_elems()
        t = self.tri[eids]
        u, v = t.T.ravel(), t[:, [1, 2, 0]].T.ravel()
        n = len(self.node_alive)
        key = np.minimum(u, v) * n + np.maximum(u, v)
        if with_elems:
            keys, inv, cnt = np.unique(key, return_inverse=True,
                                       return_counts=True)
        else:
            keys, cnt = np.unique(key, return_counts=True)
        edges = np.column_stack([keys // n, keys % n])
        if (cnt > 2).any():
            bad = edges[cnt > 2][0]
            raise TopologyError(f"edge {tuple(bad)} has more than two elements")
        if not with_elems:
            return edges
        owner = np.tile(eids, 3)[np.argsort(inv, kind="stable")]
        first = np.cumsum(cnt) - cnt
        two = cnt == 2
        ee = np.full((len(edges), 2), NULL_ID, dtype=np.int64)
        ee[:, 0] = owner[first]
        ee[two, 1] = owner[first[two] + 1]
        return edges, ee

    def edge_elements(self, a: int, b: int) -> list[int]:
        """Live elements containing edge (a, b), via patch intersection."""
        sa = self.n2e.get(int(a))
        sb = self.n2e.get(int(b))
        if not sa or not sb:
            return []
        return sorted(sa & sb)

    def node_neighbors(self, nid: int) -> list[int]:
        out: set[int] = set()
        for eid in self.n2e.get(int(nid), ()):
            for m in self.tri[eid]:
                out.add(int(m))
        out.discard(int(nid))
        return sorted(out)

    def is_shared(self, nid: int) -> bool:
        return bool(self.shared.get(int(nid)))


def _tri_area(p: np.ndarray) -> np.ndarray:
    """Signed area of triangles given as an (..., 3, 2) position array."""
    return 0.5 * ((p[..., 1, 0] - p[..., 0, 0]) * (p[..., 2, 1] - p[..., 0, 1])
                  - (p[..., 2, 0] - p[..., 0, 0]) * (p[..., 1, 1] - p[..., 0, 1]))


def signed_area(mesh: Mesh, eid: int) -> float:
    """Signed area in mm^2 of one element, positive when counterclockwise."""
    return float(_tri_area(mesh.pos[mesh.tri[eid]]))


def element_patch(mesh: Mesh, nid: int) -> list[int]:
    """Ids of the live elements incident to a node, in ascending order."""
    if nid not in mesh.n2e:
        raise MeshError(f"unknown node {nid}")
    return sorted(mesh.n2e[nid])


def build_mesh(nodes, elements) -> Mesh:
    """Assemble and validate a mesh.

    ``nodes`` yields (id, x, y) triples and ``elements`` yields
    (id, (a, b, c), surface_tag).  Elements are normalized to positive
    (counterclockwise) orientation.  Rejects duplicate ids, degenerate
    elements and non-manifold edges; marks domain-boundary nodes, with wall
    direction or corner status derived from the boundary edge geometry.
    """
    mesh = Mesh()
    for nid, x, y in nodes:
        mesh.add_node(int(nid), (float(x), float(y)))
    for eid, tri, s in elements:
        a, b, c = (int(n) for n in tri)
        if len({a, b, c}) != 3:
            raise MeshError(f"element {eid} has repeated nodes")
        ar = _tri_area(mesh.pos[[a, b, c]].reshape(1, 3, 2))[0]
        if abs(ar) < MIN_AREA:
            raise MeshError(f"element {eid} is degenerate (area {ar:g})")
        if ar < 0:
            a, b, c = a, c, b
        mesh.add_element(int(eid), (a, b, c), int(s))
    _mark_boundary(mesh)
    return mesh


def _mark_boundary(mesh: Mesh) -> None:
    edges, ee = mesh.edge_array(with_elems=True)
    border = edges[ee[:, 1] == NULL_ID]
    if len(border) == 0:
        return
    per_node: dict[int, list[np.ndarray]] = {}
    for a, b in border:
        d = mesh.pos[b] - mesh.pos[a]
        per_node.setdefault(int(a), []).append(d)
        per_node.setdefault(int(b), []).append(d)
    for nid, dirs in per_node.items():
        if len(dirs) != 2:
            raise TopologyError(
                f"boundary node {nid} lies on {len(dirs)} boundary edges")
        u, v = dirs
        cross = u[0] * v[1] - u[1] * v[0]
        if abs(cross) > 1e-6 * np.linalg.norm(u) * np.linalg.norm(v):
            mesh.bnd[nid] = BND_CORNER
        else:
            mesh.bnd[nid] = BND_TANGENT_X if abs(u[0]) >= abs(u[1]) else BND_TANGENT_Y


def is_domain_boundary_edge(mesh: Mesh, a: int, b: int) -> bool:
    """True when edge (a, b) lies along a domain wall.

    Used to tell real domain boundary apart from the cut left by a partition:
    both show up locally as edges with a single incident element, but only a
    wall edge connects two wall nodes along a common wall line.
    """
    ba, bb = mesh.bnd[a], mesh.bnd[b]
    if ba == BND_NONE or bb == BND_NONE:
        return False
    pa, pb = mesh.pos[a], mesh.pos[b]
    if abs(pa[1] - pb[1]) <= WALL_TOL and ba != BND_TANGENT_Y and bb != BND_TANGENT_Y:
        return True
    if abs(pa[0] - pb[0]) <= WALL_TOL and ba != BND_TANGENT_X and bb != BND_TANGENT_X:
        return True
    return False


def dual_graph(mesh: Mesh) -> dict[int, set[int]]:
    """Element adjacency across interior edges: one vertex per element, one
    edge wherever two elements share a mesh edge."""
    adj: dict[int, set[int]] = {int(e): set() for e in mesh.alive_elems()}
    _, ee = mesh.edge_array(with_elems=True)
    inner = ee[ee[:, 1] != NULL_ID]
    for a, b in inner:
        adj[int(a)].add(int(b))
        adj[int(b)].add(int(a))
    return adj


def write_vtk(piece, path) -> None:
    """Write a mesh as legacy ASCII VTK (triangles, z = 0), with the surface
    id of every element as cell data.

    ``piece`` is ``(nids, pos, eids, tri, surf)`` as ``Mesh.live_arrays``
    returns it, or several workers' pieces concatenated.  Points and cells
    are written in ascending id order; a node listed more than once is
    written once, at its first position (co-owners agree bit for bit).
    """
    nids, pos, eids, tri, surf = piece
    nids, first = np.unique(nids, return_index=True)
    order = np.argsort(eids)
    cells = np.searchsorted(nids, tri[order])
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("grainflow snapshot\n")
        f.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {len(nids)} double\n")
        for x, y in pos[first]:
            f.write(f"{x:.12g} {y:.12g} 0\n")
        f.write(f"CELLS {len(eids)} {4 * len(eids)}\n")
        for row in cells:
            f.write(f"3 {row[0]} {row[1]} {row[2]}\n")
        f.write(f"CELL_TYPES {len(eids)}\n")
        f.write("5\n" * len(eids))
        if len(eids):
            f.write(f"CELL_DATA {len(eids)}\n")
            f.write("SCALARS surface_id long 1\nLOOKUP_TABLE default\n")
            f.write("\n".join(str(int(v)) for v in surf[order]) + "\n")
