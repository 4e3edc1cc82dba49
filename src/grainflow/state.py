"""Per-worker simulation state: mesh, entity graph, id allocators, knobs.

Node and element ids, like entity ids, come from stride counters so workers
never hand out clashing values.  The counters restart above the highest id in
use; in a parallel run that ceiling must be agreed globally before local
allocation resumes (element packets carry ids from other workers, and a
locally reused id could collide with a node that migrates in later).
"""

from __future__ import annotations

from dataclasses import dataclass

from .entities import EntityGraph, StrideCounter
from .mesh import Mesh


def _stride_base(ceiling: int, rank: int, n_parts: int) -> int:
    """Smallest id >= ceiling congruent to rank modulo n_parts."""
    return ceiling + (rank - ceiling) % n_parts


@dataclass
class Alloc:
    """Stride-disjoint id sources for new nodes and elements."""
    nodes: StrideCounter
    elems: StrideCounter

    @classmethod
    def fresh(cls, node_ceiling: int, elem_ceiling: int, rank: int,
              n_parts: int) -> "Alloc":
        return cls(
            nodes=StrideCounter(_stride_base(node_ceiling, rank, n_parts), n_parts),
            elems=StrideCounter(_stride_base(elem_ceiling, rank, n_parts), n_parts),
        )


def local_ceilings(mesh: Mesh) -> tuple[int, int]:
    """(node, element) id ceilings of this mesh: one past the highest id."""
    nids = mesh.alive_nodes()
    eids = mesh.alive_elems()
    return (int(nids.max()) + 1 if len(nids) else 0,
            int(eids.max()) + 1 if len(eids) else 0)


@dataclass
class RemeshParams:
    """Target spacing and the derived remeshing thresholds."""
    h: float
    collapse_frac: float = 0.6
    split_frac: float = 1.4
    quality_min: float = 0.3

    @property
    def delta_c(self) -> float:
        return self.collapse_frac * self.h

    @property
    def delta_s(self) -> float:
        return self.split_frac * self.h


@dataclass
class SimState:
    """Everything one worker evolves in place."""
    mesh: Mesh
    graph: EntityGraph
    alloc: Alloc
    params: RemeshParams
