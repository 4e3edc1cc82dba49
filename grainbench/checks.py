"""Output check of a finished run directory.

A completed run must leave a valid final mesh and a consistent stats.csv:
every element area positive, total area equal to the domain area, one stats
row per increment plus the initial state, and a grain count that never
rises.  The sha256 of stats.csv is returned for information only, so a
change that alters results shows it without failing the check.
"""

from __future__ import annotations

import csv
import hashlib
import os

import numpy as np

# Snapshot coordinates are written with 12 significant digits; the area sum
# of a valid mesh then matches the domain to far better than this.
AREA_REL_TOL = 1e-9


def read_vtk_mesh(path) -> tuple[np.ndarray, np.ndarray]:
    """Points (n, 2) and triangles (m, 3) of a legacy ASCII VTK snapshot."""
    with open(path) as f:
        lines = f.read().splitlines()
    points = cells = None
    i = 0
    while i < len(lines):
        head = lines[i].split()
        if head and head[0] == "POINTS":
            n = int(head[1])
            points = np.array(" ".join(lines[i + 1:i + 1 + n]).split(),
                              dtype=np.float64).reshape(n, 3)[:, :2]
            i += n
        elif head and head[0] == "CELLS":
            m = int(head[1])
            cells = np.array(" ".join(lines[i + 1:i + 1 + m]).split(),
                             dtype=np.int64).reshape(m, 4)
            if (cells[:, 0] != 3).any():
                raise ValueError(f"{path}: non-triangle cell")
            cells = cells[:, 1:]
            i += m
        i += 1
    if points is None or cells is None:
        raise ValueError(f"{path}: no POINTS or CELLS section")
    return points, cells


def check_run(out_dir, domain: float, increments: int) -> tuple[list[str], str]:
    """Problems found in a run directory (empty when valid) and the sha256
    of its stats.csv."""
    problems: list[str] = []
    stats_path = os.path.join(out_dir, "stats.csv")
    with open(stats_path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    with open(stats_path, newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != increments + 1:
        problems.append(f"stats.csv has {len(rows)} rows, "
                        f"expected {increments + 1}")
    grains = [int(r["grains"]) for r in rows]
    rises = [i for i in range(1, len(grains)) if grains[i] > grains[i - 1]]
    if rises:
        problems.append(f"grain count rises at row {rises[0]}: "
                        f"{grains[rises[0] - 1]} -> {grains[rises[0]]}")

    pos, tri = read_vtk_mesh(
        os.path.join(out_dir, f"snapshot_{increments:04d}.vtk"))
    p = pos[tri]
    areas = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                   - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    if (areas <= 0.0).any():
        problems.append(f"{int((areas <= 0.0).sum())} elements with "
                        f"non-positive area, min {areas.min():.3g} mm^2")
    target = domain * domain
    rel = abs(float(areas.sum()) - target) / target
    if rel > AREA_REL_TOL:
        problems.append(f"total area off the domain area by {rel:.3g} "
                        f"(tolerance {AREA_REL_TOL:g})")
    return problems, digest
