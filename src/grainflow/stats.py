"""Run statistics: grain sizes, size distribution, load balance, efficiency.

Everything here works on plain arrays of per-grain areas so the same code
serves a single-process mesh and merged per-worker contributions.  The
writers format floats with ``repr`` so a repeated run produces the same
bytes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh

# 25 uniform radius bins; grains past the top edge are counted in the last
# bin so the surface fractions always sum to one
HIST_EDGES = np.linspace(0.0, 0.06, 26)


def surface_areas(mesh: Mesh):
    """Per-grain area of the live elements, as (ids, areas) sorted by id."""
    eids = mesh.alive_elems()
    if len(eids) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    areas = mesh.areas(eids)
    sids, inv = np.unique(mesh.surf[eids], return_inverse=True)
    return sids, np.bincount(inv, weights=areas)


def merge_areas(pieces):
    """Merge (ids, areas) pairs from several workers, summing by grain id."""
    ids = np.concatenate([p[0] for p in pieces])
    areas = np.concatenate([p[1] for p in pieces])
    sids, inv = np.unique(ids, return_inverse=True)
    return sids, np.bincount(inv, weights=areas)


def equivalent_radii(areas: np.ndarray) -> np.ndarray:
    """Radius of the circle with the same area, per grain."""
    return np.sqrt(np.asarray(areas, dtype=np.float64) / np.pi)


def mean_grain_size_weighted(areas) -> float:
    """Area-weighted mean equivalent radius in mm."""
    areas = np.asarray(areas, dtype=np.float64)
    if len(areas) == 0:
        raise ValueError("no grains")
    return float(np.sum(areas * equivalent_radii(areas)) / np.sum(areas))


def grain_size_histogram(areas) -> np.ndarray:
    """Surface-fraction histogram of equivalent radii over ``HIST_EDGES``."""
    areas = np.asarray(areas, dtype=np.float64)
    if len(areas) == 0:
        raise ValueError("no grains")
    radii = np.clip(equivalent_radii(areas), HIST_EDGES[0], HIST_EDGES[-1])
    hist, _ = np.histogram(radii, bins=HIST_EDGES, weights=areas)
    return hist / np.sum(areas)


def erom(counts) -> float:
    """Element range over mean: (max - min) / mean of per-worker counts."""
    counts = np.asarray(counts, dtype=np.float64)
    if len(counts) == 0:
        raise ValueError("no counts")
    mean = float(counts.mean())
    if mean == 0.0:
        raise ValueError("zero mean element count")
    return float(counts.max() - counts.min()) / mean


def efficiency(t_seq_inc: float, t_par_inc: float, n_p: int) -> float:
    """Parallel efficiency of one increment: t_seq / (t_par * n_p)."""
    if t_seq_inc <= 0.0 or t_par_inc <= 0.0:
        raise ValueError("increment times must be positive")
    if n_p < 1:
        raise ValueError("worker count must be at least 1")
    return t_seq_inc / (t_par_inc * n_p)


@dataclass
class StatsRecord:
    """One stats.csv row: global state after a given increment."""
    t: float
    grains: int
    mean_size_mm: float
    erom: float
    inc_wall_s: float
    elements: tuple[int, ...]


def stats_header(n_parts: int) -> list[str]:
    return (["t", "grains", "mean_size_mm", "erom", "inc_wall_s"]
            + [f"elements_p{i}" for i in range(n_parts)])


def stats_row(r: StatsRecord) -> list:
    """One stats.csv row; floats in shortest round-trip form."""
    return ([repr(float(r.t)), r.grains, repr(float(r.mean_size_mm)),
             repr(float(r.erom)), repr(float(r.inc_wall_s))]
            + [int(c) for c in r.elements])


def read_stats_csv(path) -> list[StatsRecord]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    out = []
    for row in rows[1:]:
        out.append(StatsRecord(
            t=float(row[0]), grains=int(row[1]), mean_size_mm=float(row[2]),
            erom=float(row[3]), inc_wall_s=float(row[4]),
            elements=tuple(int(c) for c in row[5:])))
    return out


def write_hist_csv(path, fractions: np.ndarray) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["r_lo_mm", "r_hi_mm", "surface_fraction"])
        for lo, hi, frac in zip(HIST_EDGES[:-1], HIST_EDGES[1:], fractions):
            w.writerow([repr(float(lo)), repr(float(hi)), repr(float(frac))])


def read_hist_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    edges = np.append(data[:, 0], data[-1, 1])
    return data[:, 2], edges


TIMINGS_HEADER = ["inc", "wall_s"]


def timings_row(inc: int, wall_s: float) -> list:
    return [inc, repr(float(wall_s))]
