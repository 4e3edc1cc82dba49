"""Experiment driver: one configuration in, a directory of artifacts out.

A run tessellates the starting structure on rank 0, evolves it for a fixed
number of increments and emits stats.csv, timings.csv plus VTK snapshots and
grain size histograms at the configured cadence.  Every run goes through
the same worker body, a sequential run being the one-worker case: all
workers execute it in lockstep and rank 0 alone touches the disk.  Each
output step is one all-gather of a ``wire`` frame: every worker's per-grain
areas and element count (layout ``AREAS``), plus its live mesh arrays when
a snapshot is due (``SNAPSHOT``).  Rank 0 merges them and writes the files
straight from the arrays; each stats.csv and timings.csv row is flushed as
it is made, so a run that raises leaves the record of what it finished.
"""

from __future__ import annotations

import csv
import os
import time
import traceback
from dataclasses import dataclass, fields

import numpy as np

from .mesh import Mesh, write_vtk
from .motion import reduced_mobility
from .partitioning import initial_partition, load_partition
from .protocol import bootstrap_state, parallel_increment
from .stats import (TIMINGS_HEADER, StatsRecord, erom, grain_size_histogram,
                    mean_grain_size_weighted, merge_areas, stats_header,
                    stats_row, surface_areas, timings_row, write_hist_csv)
from .tessellation import tessellate
from .transport import MpiTransport, Transport, run_workers
from .wire import AREAS, SNAPSHOT, decode_arrays, encode_arrays

BACKENDS = ("inproc", "mpi")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Everything one experiment needs; mirrors the key=value config file."""
    domain: float = 1.0          # square side, mm
    grains: int = 500
    h: float = 0.004             # target spacing, mm
    dt: float = 10.0             # s
    temperature: float = 1323.0  # K
    increments: int = 10
    n_parts: int = 1
    seed: int = 0
    backend: str = "inproc"
    out: str = "out"
    output_every: int = 0        # 0: final snapshot only
    partition_file: str = ""

    def validate(self) -> None:
        if self.domain <= 0 or self.h <= 0 or self.dt <= 0 or self.temperature <= 0:
            raise ConfigError("domain, h, dt and temperature must be positive")
        if self.grains < 1:
            raise ConfigError("need at least one grain")
        if self.increments < 0:
            raise ConfigError("increments must be non-negative")
        if self.n_parts < 1:
            raise ConfigError("n_parts must be at least 1")
        if self.output_every < 0:
            raise ConfigError("output_every must be non-negative")
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}")


def parse_config(path) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments are skipped."""
    values: dict[str, str] = {}
    with open(path) as f:
        for ln, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key=value, got {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            values[key] = val
    return values


def make_config(file_values: dict[str, str] | None = None, **overrides) -> RunConfig:
    """Build a config from file values with explicit overrides winning."""
    types = {f.name: f.type for f in fields(RunConfig)}
    casts = {"float": float, "int": int, "str": str}
    merged: dict = {}
    for key, val in (file_values or {}).items():
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = casts[types[key]](val)
    for key, val in overrides.items():
        if val is not None:
            merged[key] = val
    cfg = RunConfig(**merged)
    cfg.validate()
    return cfg


def _build_initial(cfg: RunConfig) -> Mesh:
    rng = np.random.default_rng(cfg.seed)
    mesh, _, _ = tessellate(rng, cfg.domain, cfg.domain, cfg.grains, cfg.h)
    return mesh


def _due(cfg: RunConfig, inc: int) -> bool:
    if inc == cfg.increments:
        return True
    return cfg.output_every > 0 and inc % cfg.output_every == 0


def _record(t: float, areas: np.ndarray, counts) -> StatsRecord:
    """One stats.csv row; its ``inc_wall_s`` is 0.0, so the file stays
    byte-identical between runs (wall times go to timings.csv)."""
    return StatsRecord(t=t, grains=len(areas),
                       mean_size_mm=mean_grain_size_weighted(areas),
                       erom=erom(counts), inc_wall_s=0.0,
                       elements=tuple(int(c) for c in counts))


class _Emitter:
    """Rank-0 output writer; snapshot/histogram numbering is the increment.

    Every stats.csv and timings.csv row is written and flushed as it is
    made, so a run that dies leaves the record of every increment it
    finished."""

    def __init__(self, cfg: RunConfig) -> None:
        self.cfg = cfg
        self.files = {name: open(os.path.join(cfg.out, name), "w", newline="")
                      for name in ("stats.csv", "timings.csv")}
        self._row("stats.csv", stats_header(cfg.n_parts))
        self._row("timings.csv", TIMINGS_HEADER)

    def _row(self, name: str, row: list) -> None:
        f = self.files[name]
        csv.writer(f).writerow(row)
        f.flush()

    def step(self, inc: int, areas: np.ndarray, counts, wall: float,
             piece) -> None:
        """Record one increment; ``piece`` is the merged mesh arrays when a
        snapshot is due, else None."""
        self._row("stats.csv",
                  stats_row(_record(inc * self.cfg.dt, areas, counts)))
        if inc > 0:
            self._row("timings.csv", timings_row(inc, wall))
        if piece is not None:
            write_vtk(piece, os.path.join(self.cfg.out, f"snapshot_{inc:04d}.vtk"))
            write_hist_csv(os.path.join(self.cfg.out, f"hist_{inc:04d}.csv"),
                           grain_size_histogram(areas))

    def finish(self) -> None:
        """Close the row files; runs whether or not the run completed."""
        for f in self.files.values():
            f.close()


# -- worker body -------------------------------------------------------------

def _run_worker(transport: Transport, cfg: RunConfig) -> None:
    def build():
        full = _build_initial(cfg)
        if not cfg.partition_file:
            return full, initial_partition(full, cfg.n_parts)
        try:
            return full, load_partition(cfg.partition_file, full, cfg.n_parts)
        except ValueError as exc:
            raise ConfigError(f"{cfg.partition_file}: {exc}") from None

    # only rank 0 builds; every worker keeps its slice and nothing more
    state = bootstrap_state(transport, build, cfg.h)
    mesh = state.mesh
    mobility = reduced_mobility(temperature=cfg.temperature)
    emit = _Emitter(cfg) if transport.rank == 0 else None

    def snapshot(inc: int, wall: float) -> None:
        due = _due(cfg, inc)
        layout = SNAPSHOT if due else AREAS
        mine = [*surface_areas(mesh), [mesh.n_elems()]]
        if due:
            mine += mesh.live_arrays()
        gathered = transport.all_gather(encode_arrays(mine, layout))
        if emit is not None:
            pieces = [decode_arrays(b, layout) for b in gathered]
            _, areas = merge_areas([p[:2] for p in pieces])
            counts = [int(p[2][0]) for p in pieces]
            merged = (tuple(np.concatenate(c)
                            for c in zip(*(p[3:] for p in pieces)))
                      if due else None)
            emit.step(inc, areas, counts, wall, merged)

    try:
        snapshot(0, 0.0)
        for inc in range(1, cfg.increments + 1):
            t0 = time.perf_counter()
            parallel_increment(transport, state, cfg.dt, mobility)
            snapshot(inc, time.perf_counter() - t0)
    finally:
        if emit is not None:
            emit.finish()


def run(cfg: RunConfig) -> None:
    """Execute one experiment and write its artifacts under ``cfg.out``."""
    cfg.validate()
    os.makedirs(cfg.out, exist_ok=True)
    if cfg.backend == "inproc":
        run_workers(cfg.n_parts, lambda t: _run_worker(t, cfg))
    else:
        transport = MpiTransport()
        if transport.size != cfg.n_parts:
            raise ConfigError(
                f"launched with {transport.size} ranks but n_parts={cfg.n_parts}")
        try:
            _run_worker(transport, cfg)
        except BaseException:
            # peers may be blocked in a collective this rank will never
            # join; Abort ends this process too, so report the error first
            traceback.print_exc()
            transport.abort()
            raise
