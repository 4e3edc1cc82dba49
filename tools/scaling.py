"""Print how increment cost grows with the mesh.

Runs seed 0 of three meshes of the same grain density and spacing, each
for a few sequential increments, and prints, per mesh, the starting
element count, the median increment wall time and that median in ms per
1k elements.  Selective, local remeshing should keep the last column flat.

    PYTHONPATH=src python tools/scaling.py
"""

from __future__ import annotations

import csv
import os
import statistics
import tempfile

from grainflow.runner import RunConfig, run
from grainflow.stats import read_stats_csv

# (domain in mm, grains): four times the grains on twice the side
MESHES = ((0.15, 15), (0.3, 60), (0.6, 240))
H = 0.004   # mm
DT = 10.0   # s
INCREMENTS = 6
SEED = 0


def measure(domain: float, grains: int):
    """(starting element count, median increment wall in s) of one run."""
    with tempfile.TemporaryDirectory() as out:
        run(RunConfig(domain=domain, grains=grains, h=H, dt=DT,
                      increments=INCREMENTS, seed=SEED, out=out))
        records = read_stats_csv(os.path.join(out, "stats.csv"))
        with open(os.path.join(out, "timings.csv"), newline="") as f:
            walls = [float(row[1]) for row in list(csv.reader(f))[1:]]
    return sum(records[0].elements), statistics.median(walls)


def main() -> None:
    print(f"{'mesh':>16} {'elements':>9} {'inc p50 s':>10} "
          f"{'ms per 1k elements':>19}")
    for domain, grains in MESHES:
        elements, wall = measure(domain, grains)
        print(f"{f'{domain} mm / {grains}':>16} {elements:>9} {wall:>10.4f} "
              f"{1e6 * wall / elements:>19.2f}")


if __name__ == "__main__":
    main()
