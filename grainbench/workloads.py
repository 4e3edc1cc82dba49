"""Workloads and the batch runner.

A workload is a fixed batch of runs: one config per seed, each driven
through ``grainflow.runner.run`` as the command line does.  Only the
runner-level boundaries are timed here: ``run()`` itself and entry and exit
of the increment function the runner calls, on every rank.  A run that
raises is recorded (type, message, seed, increment) and counted; the batch
goes on with the next seed.
"""

from __future__ import annotations

import os
import statistics
import time
import traceback
from dataclasses import dataclass, field

from .checks import check_run

INCREMENT_FUNCTIONS = ("gg_increment", "parallel_increment")

H = 0.004             # mm, target spacing
DT = 10.0             # s, increment
TEMPERATURE = 1323.0  # K


@dataclass(frozen=True)
class Workload:
    """One batch: ``seeds`` consecutive seeds from the benchmark seed."""
    name: str
    domain: float        # mm
    grains: int
    increments: int
    seeds: int
    n_parts: int = 1
    output_every: int = 0

    def config_text(self, seed: int, out: str) -> str:
        return "".join(f"{k} = {v}\n" for k, v in (
            ("domain", self.domain), ("grains", self.grains), ("h", H),
            ("dt", DT), ("temperature", TEMPERATURE),
            ("increments", self.increments), ("n_parts", self.n_parts),
            ("backend", "inproc"), ("seed", seed),
            ("output_every", self.output_every), ("out", out)))


# Problem M: 0.3 mm / 60 grains, about 12.7k elements.  Several seeds a
# run, because increment cost and failures depend on the microstructure, and
# timings on a shared 2-core machine drift by about 10% between runs; the
# seed counts fill roughly 45 s (m_seq) and 55 s (m_par2).  m_par2 keeps 20
# increments so the failures known at seeds 0 and 1 (increments 20 and 18)
# stay in the run.
WORKLOADS = {w.name: w for w in (
    Workload("m_seq", domain=0.3, grains=60, increments=20, seeds=6),
    Workload("m_par2", domain=0.3, grains=60, increments=20, seeds=5,
             n_parts=2, output_every=5),
)}


class IncrementClock:
    """Entry and exit times of the runner's increment calls, per rank."""

    def __init__(self) -> None:
        self.events: list[tuple[int, float, float, bool]] = []

    def install(self, patches, runner) -> None:
        for name in INCREMENT_FUNCTIONS:
            if hasattr(runner, name):
                patches.set(runner, name, self._timed(getattr(runner, name)))
            else:
                patches.skipped.append(f"runner:{name}")

    def _timed(self, fn):
        events = self.events

        def timed(*args, **kwargs):
            rank = getattr(args[0], "rank", 0) if args else 0
            t0 = time.perf_counter()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                events.append((rank, t0, time.perf_counter(), ok))
        return timed


@dataclass
class SeedResult:
    seed: int
    setup_s: float | None         # run() entry to rank 0's first increment
    evolution_s: float            # first increment to run() exit
    completed: int                # increments every rank finished
    attempted: int
    failed: int
    inc_walls: list[float]        # rank 0 wall time of completed increments
    sim_seconds: float
    error: dict | None = None
    checked: bool = False         # outputs of a completed run were read
    problems: list[str] = field(default_factory=list)
    stats_sha256: str = ""


def _seed_result(wl: Workload, seed: int, cfg, clock: IncrementClock,
                 t_entry: float, t_exit: float,
                 error: BaseException | None) -> SeedResult:
    events = clock.events
    rank0 = sorted((e for e in events if e[0] == 0), key=lambda e: e[1])
    ok_per_rank = [sum(1 for e in events if e[0] == r and e[3])
                   for r in range(wl.n_parts)]
    completed = min(ok_per_rank)
    first = rank0[0][1] if rank0 else None
    walls = [t1 - t0 for _, t0, t1, ok in rank0 if ok][:completed]
    res = SeedResult(
        seed=seed,
        setup_s=None if first is None else first - t_entry,
        evolution_s=0.0 if first is None else t_exit - first,
        completed=completed, attempted=0, failed=0, inc_walls=walls,
        sim_seconds=completed * DT)
    if error is not None:
        res.error = {"type": type(error).__name__, "message": str(error),
                     "seed": seed, "increment": completed + 1,
                     "traceback": "".join(traceback.format_exception(error))}
    else:
        try:
            res.problems, res.stats_sha256 = check_run(
                cfg.out, wl.domain, wl.increments)
            res.checked = True
        except (OSError, ValueError, KeyError) as exc:
            res.problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
    res.failed = int(error is not None or bool(res.problems))
    res.attempted = min(completed + res.failed, wl.increments)
    return res


def run_batch(wl: Workload, first_seed: int, workdir: str, patches,
              tracer=None, n_seeds: int | None = None) -> list[SeedResult]:
    """Run the workload's seeds in order; failures are recorded, not raised.

    ``patches`` is an open ``tracing.Patches``; the increment clock is added
    to it (after any tracer wrappers, so it times the full call).
    """
    from grainflow import runner

    clock = IncrementClock()
    clock.install(patches, runner)
    results = []
    for k in range(wl.seeds if n_seeds is None else n_seeds):
        seed = first_seed + k
        out = os.path.join(workdir, f"seed-{seed}")
        os.makedirs(out, exist_ok=True)
        cfg_path = os.path.join(out, "run.cfg")
        with open(cfg_path, "w") as f:
            f.write(wl.config_text(seed, out))
        cfg = runner.make_config(runner.parse_config(cfg_path))
        clock.events.clear()
        if tracer is not None:
            tracer.begin(seed)
        error = None
        t_entry = time.perf_counter()
        try:
            runner.run(cfg)
        except Exception as exc:  # counted as a failure; next seed goes on
            error = exc
        t_exit = time.perf_counter()
        results.append(_seed_result(wl, seed, cfg, clock, t_entry, t_exit,
                                    error))
    return results


def tail_percentile(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest of p99.9, p99, p95, p90 and p75
    that has at least ten of the sorted ``walls`` beyond it, by nearest
    rank; with too few samples for any of them, the median.

    A fixed ladder keeps the percentile, and so the metric, the same across
    runs whose increment counts differ a little (failures end runs early).
    """
    n = len(walls)
    for per_mille in (999, 990, 950, 900, 750):
        rank = -(-per_mille * n // 1000)
        if n - rank >= 10:
            return walls[rank - 1], per_mille / 10
    return statistics.median(walls), 50.0


def end_to_end(wl: Workload, results: list[SeedResult],
               peak_rss_mb: float) -> tuple[dict[str, float], dict]:
    """End-to-end metric values and the facts printed beside them."""
    walls = sorted(w for r in results for w in r.inc_walls)
    n = len(walls)
    setups = [r.setup_s for r in results if r.setup_s is not None]
    evolution = sum(r.evolution_s for r in results)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    tail, tail_pct = tail_percentile(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "sim_rate": sum(r.sim_seconds for r in results) / evolution,
        "inc_s_p50": statistics.median(walls),
        "inc_s_tail": tail,
        "peak_rss_mb": peak_rss_mb,
        "inc_ok_frac": (attempted - failed) / attempted,
    }
    facts = {"increments_timed": n, "tail_percentile": tail_pct,
             "setups": len(setups), "attempted": attempted, "failed": failed}
    return metrics, facts
