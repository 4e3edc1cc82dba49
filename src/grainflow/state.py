"""Per-worker simulation state: mesh, entity graph, id allocator, knobs.

One allocator hands out the new ids of all four kinds: nodes, elements,
points and lines; no operator makes a grain, so surfaces need none.
Worker r of n takes ids congruent to r modulo n, so workers never hand out
clashing values.  Every kind starts above the highest id in use.  In a parallel run that ceiling must agree on every
worker before local allocation begins: migration frames carry ids from
other workers, and a locally reused id could collide with a node that
migrates in later.  In the bootstrap, rank 0 alone builds the starting
mesh, takes the ceilings from it and sends them to every worker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entities import EntityGraph, line_ids
from .mesh import Mesh

KIND_NODE = "N"
KIND_ELEM = "E"
KIND_POINT = "P"
KIND_LINE = "L"

# the kinds in the order their ceilings travel
ID_KINDS = (KIND_NODE, KIND_ELEM, KIND_POINT, KIND_LINE)

# remeshing thresholds in units of h: edges shorter than COLLAPSE_FRAC
# collapse, edges longer than SPLIT_FRAC split
COLLAPSE_FRAC = 0.6
SPLIT_FRAC = 1.4


def id_ceilings(mesh: Mesh, graph: EntityGraph) -> list[int]:
    """One past the highest id ``mesh`` and ``graph`` use, per kind of
    ``ID_KINDS``."""
    in_use = (mesh.alive_nodes(), mesh.alive_elems(), list(graph.points),
              list(line_ids(mesh, graph)))
    return [int(np.max(ids, initial=-1)) + 1 for ids in in_use]


class IdAllocator:
    """Stride-disjoint id sources, one per kind.

    Each kind hands out base, base + stride, base + 2 * stride, ..., where
    base is the smallest id at or above the kind's ceiling congruent to
    ``rank`` modulo ``stride``.
    """

    def __init__(self, ceilings: dict[str, int], rank: int = 0,
                 stride: int = 1) -> None:
        self._next = {k: c + (rank - c) % stride for k, c in ceilings.items()}
        self._stride = stride

    @classmethod
    def above(cls, mesh: Mesh, graph: EntityGraph, rank: int = 0,
              stride: int = 1) -> "IdAllocator":
        """Allocator whose every kind starts past the highest id that
        ``mesh`` and ``graph`` use."""
        return cls(dict(zip(ID_KINDS, id_ceilings(mesh, graph))), rank, stride)

    def take(self, kind: str) -> int:
        out = self._next[kind]
        self._next[kind] += self._stride
        return out


@dataclass
class RemeshParams:
    """Target spacing and the derived remeshing thresholds."""
    h: float

    @property
    def delta_c(self) -> float:
        return COLLAPSE_FRAC * self.h

    @property
    def delta_s(self) -> float:
        return SPLIT_FRAC * self.h


@dataclass
class SimState:
    """Everything one worker evolves in place."""
    mesh: Mesh
    graph: EntityGraph
    alloc: IdAllocator
    params: RemeshParams
