"""Test-side parsers and small utilities."""

from __future__ import annotations

import numpy as np

from grainflow.partitioning import initial_partition
from grainflow.protocol import bootstrap_state
from grainflow.transport import run_workers


def one_rank(fn):
    """``fn(transport)`` as the only worker of an in-process group, the way
    a sequential run executes; returns what ``fn`` returns."""
    (out,) = run_workers(1, fn)
    return out


def bootstrapped(make_mesh, n_parts, h=0.125):
    """Every worker's state after bootstrapping ``make_mesh()`` split by the
    built-in partitioner, and the mesh rank 0 built (tagged in place)."""
    built = []

    def worker(t):
        def build():
            built.append(make_mesh())
            return built[0], initial_partition(built[0], n_parts)
        return bootstrap_state(t, build, h)

    states = run_workers(n_parts, worker)
    return states, built[0]


def parse_vtk(path):
    """Minimal reader for the legacy ASCII files we write.

    Returns (points (n,3), cells list[tuple], cell_data dict[name -> array]).
    """
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f]
    i = 0
    points = None
    cells = []
    cell_data = {}
    n_cells = 0
    while i < len(lines):
        ln = lines[i]
        if ln.startswith("POINTS"):
            n = int(ln.split()[1])
            vals = []
            i += 1
            while len(vals) < 3 * n:
                vals.extend(float(t) for t in lines[i].split())
                i += 1
            points = np.array(vals).reshape(n, 3)
            continue
        if ln.startswith("CELLS"):
            n_cells = int(ln.split()[1])
            i += 1
            for _ in range(n_cells):
                toks = [int(t) for t in lines[i].split()]
                assert toks[0] == len(toks) - 1
                cells.append(tuple(toks[1:]))
                i += 1
            continue
        if ln.startswith("SCALARS"):
            name = ln.split()[1]
            i += 2  # skip LOOKUP_TABLE
            vals = []
            while len(vals) < n_cells:
                vals.extend(int(t) for t in lines[i].split())
                i += 1
            cell_data[name] = np.array(vals)
            continue
        i += 1
    return points, cells, cell_data
