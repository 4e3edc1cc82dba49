"""Splitting the element mesh into per-worker partitions.

The built-in partitioner works on the dual graph: patches grow by breadth
first search from seeds spread far apart, then boundary elements are traded
until the patch sizes balance.  It is deliberately simple and fully
deterministic; anything smarter can be plugged in through the partition file
format (one ``elem_id part_rank`` pair per line).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .mesh import Mesh, NULL_ID, dual_graph

BALANCE_FRAC = 0.05

# trades per refinement attempt before giving up on a graph-constrained split
_REFINE_CAP_FACTOR = 4


def initial_partition(mesh: Mesh, n_parts: int) -> np.ndarray:
    """Assign every live element to a part; index the result by element id.

    Dead slots hold NULL_ID.  The split is exhaustive and pairwise disjoint
    by construction; sizes end within ``BALANCE_FRAC`` of the mean whenever
    the adjacency allows it.
    """
    elems = [int(e) for e in mesh.alive_elems()]
    if n_parts < 1:
        raise ValueError("n_parts must be at least 1")
    if n_parts > len(elems):
        raise ValueError(
            f"cannot split {len(elems)} elements into {n_parts} parts")
    parts = np.full(len(mesh.surf), NULL_ID, dtype=np.int64)
    if n_parts == 1:
        parts[elems] = 0
        return parts

    adj = dual_graph(mesh)
    seeds = _spread_seeds(adj, elems, n_parts)
    _grow_patches(parts, adj, elems, seeds)
    _rebalance(parts, adj, elems, n_parts)
    return parts


def _spread_seeds(adj: dict[int, set[int]], elems: list[int],
                  n_parts: int) -> list[int]:
    """First seed is the lowest element id; each next seed maximizes the
    BFS hop distance to all previous ones (unreached components first)."""
    seeds = [elems[0]]
    for _ in range(1, n_parts):
        dist = _multi_source_hops(adj, elems, seeds)
        best = max(elems, key=lambda e: (dist.get(e, np.inf), -e))
        seeds.append(best)
    return seeds


def _multi_source_hops(adj, elems, sources) -> dict[int, int]:
    dist = {s: 0 for s in sources}
    q = deque(sources)
    while q:
        e = q.popleft()
        for m in sorted(adj.get(e, ())):
            if m not in dist:
                dist[m] = dist[e] + 1
                q.append(m)
    return dist


def _grow_patches(parts, adj, elems, seeds) -> None:
    n_parts = len(seeds)
    sizes = [0] * n_parts
    frontiers = [deque([s]) for s in seeds]
    unassigned = set(elems)

    def claim(p: int, e: int) -> None:
        parts[e] = p
        unassigned.discard(e)
        sizes[p] += 1
        frontiers[p].extend(m for m in sorted(adj.get(e, ()))
                            if m in unassigned)

    while unassigned:
        order = sorted(range(n_parts), key=lambda p: (sizes[p], p))
        grew = False
        for p in order:
            f = frontiers[p]
            while f:
                e = f.popleft()
                if e in unassigned:
                    claim(p, e)
                    grew = True
                    break
            if grew:
                break
        if not grew:
            # disconnected leftovers: restart the smallest part there
            p = order[0]
            frontiers[p].append(min(unassigned))


def _rebalance(parts, adj, elems, n_parts) -> None:
    sizes = [0] * n_parts
    for e in elems:
        sizes[parts[e]] += 1
    mean = len(elems) / n_parts
    tol = max(1, round(BALANCE_FRAC * mean))

    for _ in range(_REFINE_CAP_FACTOR * len(elems)):
        if max(sizes) - min(sizes) <= tol:
            break
        move = _pick_trade(parts, adj, elems, sizes)
        if move is None:
            break
        e, dst = move
        sizes[parts[e]] -= 1
        sizes[dst] += 1
        parts[e] = dst


def _pick_trade(parts, adj, elems, sizes):
    """Smallest-id boundary element of an oversized part, moved to its
    smallest adjacent part; only strictly improving trades are taken."""
    by_size = sorted(range(len(sizes)), key=lambda p: (-sizes[p], p))
    for src in by_size:
        if sizes[src] == min(sizes):
            break
        for e in elems:
            if parts[e] != src:
                continue
            targets = {int(parts[m]) for m in adj.get(e, ())
                       if parts[m] != src and parts[m] != NULL_ID}
            targets = {t for t in targets if sizes[t] <= sizes[src] - 2}
            if targets:
                dst = min(targets, key=lambda t: (sizes[t], t))
                return e, dst
    return None


def save_partition(path, parts: np.ndarray) -> None:
    with open(path, "w") as f:
        for e in np.flatnonzero(parts != NULL_ID):
            f.write(f"{int(e)} {int(parts[e])}\n")


def load_partition(path, mesh: Mesh, n_parts: int) -> np.ndarray:
    """Read a partition file, indexed by element id like ``initial_partition``.

    Every live element of ``mesh`` must be assigned exactly once, to a part
    in ``[0, n_parts)``; otherwise ``ValueError`` names the first bad line,
    or the first live element no line assigns.
    """
    parts = np.full(len(mesh.elem_alive), NULL_ID, dtype=np.int64)
    with open(path) as f:
        for ln, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                e, p = (int(v) for v in line.split())
            except ValueError:
                raise ValueError(f"line {ln}: expected 'elem_id part_rank', "
                                 f"got {line!r}") from None
            if not (0 <= e < len(parts) and mesh.elem_alive[e]):
                raise ValueError(f"line {ln}: {e} is not a live element")
            if not 0 <= p < n_parts:
                raise ValueError(f"line {ln}: part {p} of element {e} is "
                                 f"outside 0..{n_parts - 1}")
            if parts[e] != NULL_ID:
                raise ValueError(f"line {ln}: element {e} is assigned twice")
            parts[e] = p
    eids = mesh.alive_elems()
    missing = eids[parts[eids] == NULL_ID]
    if len(missing):
        raise ValueError(f"element {missing[0]} is assigned to no part")
    return parts
