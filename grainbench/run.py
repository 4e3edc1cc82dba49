"""Run one grainflow benchmark workload and print its metrics.

    python3 grainbench/run.py --workload m_seq --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nowhere else.  With ``--trace 0`` whole batches of
the workload run until ``--seconds`` have passed (at least one) and the
end-to-end metrics are reported.  With ``--trace 1`` one batch runs with
every layer wrapped, between two untraced runs of its first seed that give
the tracing overhead, and the per-layer metrics are reported.  The last
line of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (increments) and ``metrics``.  Spans of a traced run are written
to ``.grainbench/spans-<workload>-s<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: make the benchmark package importable
    sys.path.insert(0, str(ROOT))

from grainbench.tracing import PER_LAYER, Patches, Tracer  # noqa: E402
from grainbench.workloads import WORKLOADS, end_to_end, run_batch  # noqa: E402

OUT = ROOT / ".grainbench"

# setup_s: run() entry to rank 0's first increment, median over seeds.
# sim_rate: simulated seconds per wall second from the first increment to
# run() exit, counting completed increments.  inc_s_p50, inc_s_tail: rank 0
# wall time of completed increments.  peak_rss_mb: this process.
# inc_ok_frac: attempted increments that did not fail; reported as the
# success share because a failure share reads 0 on clean runs, which a
# bound relative to the parent's median cannot compare.
END_TO_END = [
    ("setup_s", "s"),
    ("sim_rate", "s/s"),
    ("inc_s_p50", "s"),
    ("inc_s_tail", "s"),
    ("peak_rss_mb", "MB"),
    ("inc_ok_frac", "fraction"),
]

EFFICIENCY_LABEL = "inproc threads under the GIL: protocol overhead, not scaling"


class BenchError(RuntimeError):
    """The workload produced nothing that can be measured."""


def _import_program() -> None:
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import grainflow
    home = Path(grainflow.__file__).resolve().parent.parent
    if home != src:
        raise ImportError(f"grainflow found at {home}, not under {src}")


def _metrics_json(values: dict, units: list[tuple[str, str]]) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def _check_measurable(results) -> None:
    if all(r.setup_s is None for r in results):
        raise BenchError("no increment boundary seen: the runner called "
                         "none of the wrapped increment functions")
    if not any(r.inc_walls for r in results):
        raise BenchError("no increment completed on any seed")


def _verified(results) -> bool:
    """Every run that did not raise had its outputs read and checked.

    A run that raises or fails the output check is a counted failure (in
    ``failed`` and ``inc_ok_frac``), not an unverified one.
    """
    return all(r.error is not None or r.checked for r in results)


def _print_seeds(results) -> None:
    for r in results:
        setup = "-" if r.setup_s is None else f"{r.setup_s:.3f} s"
        line = (f"  seed {r.seed}: setup {setup}, "
                f"{r.attempted - r.failed}/{r.attempted} increments ok")
        if r.error:
            e = r.error
            line += (f"; FAILED in increment {e['increment']}: "
                     f"{e['type']}: {e['message']}")
            print(f"seed {r.seed}: {e['traceback']}", file=sys.stderr)
        elif r.problems:
            line += "; OUTPUT CHECK FAILED: " + "; ".join(r.problems)
        else:
            line += f"; stats.csv sha256 {r.stats_sha256}"
        print(line)


def _efficiency_line(seed: int) -> str | None:
    """Parallel efficiency from the m_seq and m_par2 results of this seed,
    when both have been run in this checkout."""
    try:
        seq, par = (json.loads((OUT / f"result-{w}-s{seed}.json").read_text())
                    for w in ("m_seq", "m_par2"))
    except (OSError, ValueError):
        return None
    from grainflow import stats
    if not hasattr(stats, "efficiency"):
        return None
    eff = stats.efficiency(seq["inc_s_p50"], par["inc_s_p50"], 2)
    return (f"info: efficiency(m_seq inc_s_p50 {seq['inc_s_p50']:.4f} s, "
            f"m_par2 inc_s_p50 {par['inc_s_p50']:.4f} s, 2) = {eff:.3f} "
            f"[{EFFICIENCY_LABEL}]")


def run_untraced(wl, seed: int, seconds: float, workdir: str) -> dict:
    results, skipped, batches = [], [], 0
    t0 = time.perf_counter()
    while True:
        with Patches() as patches:
            results += run_batch(wl, seed, workdir, patches)
            skipped = patches.skipped
        batches += 1
        if time.perf_counter() - t0 >= seconds:
            break
    _check_measurable(results)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, facts = end_to_end(wl, results, rss_mb)

    print(f"grainbench {wl.name} seed {seed}: {batches} batch(es) of "
          f"{wl.seeds} run(s), {wl.domain} mm / {wl.grains} grains, "
          f"{wl.increments} increments, {wl.n_parts} worker(s)")
    _print_seeds(results)
    notes = {
        "setup_s": f"median of {facts['setups']} setups",
        "inc_s_p50": f"median of {facts['increments_timed']} increments",
        "inc_s_tail": (f"p{facts['tail_percentile']:.1f} of "
                       f"{facts['increments_timed']} increments"),
        "inc_ok_frac": (f"{facts['failed']} failed of "
                        f"{facts['attempted']} attempted"),
    }
    for name, unit in END_TO_END:
        print(f"  {name:<12} {metrics[name]:.6g} {unit}  {notes.get(name, '')}")
    print("  skipped names: " + (", ".join(skipped) or "none"))

    OUT.joinpath(f"result-{wl.name}-s{seed}.json").write_text(
        json.dumps(metrics))
    line = _efficiency_line(seed)
    if line:
        print(line)
    return {"correct": _verified(results),
            "attempted": facts["attempted"], "failed": facts["failed"],
            "metrics": _metrics_json(metrics, END_TO_END)}


def _sim_rate(r) -> float:
    return r.sim_seconds / r.evolution_s if r.evolution_s > 0 else 0.0


def run_traced(wl, seed: int, workdir: str) -> dict:
    # the untraced reference runs the first seed before and after the traced
    # batch, so a drift in machine speed during the run biases it less
    with Patches() as patches:
        ref = run_batch(wl, seed, workdir, patches, n_seeds=1)
    tracer = Tracer()
    with Patches() as patches:
        tracer.install(patches)
        results = run_batch(wl, seed, workdir, patches, tracer=tracer)
        skipped = list(patches.skipped)
    with Patches() as patches:
        ref += run_batch(wl, seed, workdir, patches, n_seeds=1)
    _check_measurable(results)
    ref_rate = (_sim_rate(ref[0]) + _sim_rate(ref[1])) / 2
    traced_rate = _sim_rate(results[0])
    overhead = ref_rate / traced_rate - 1.0 if traced_rate else 0.0

    per_rank = tracer.per_rank()
    for values in per_rank.values():
        values["trace.overhead"] = overhead
        values["trace.skipped"] = len(skipped)
    spans = OUT / f"spans-{wl.name}-s{seed}.jsonl"
    n_spans = tracer.write_spans(spans)

    print(f"grainbench {wl.name} seed {seed} traced: {wl.seeds} run(s), "
          f"{n_spans} spans in {spans}")
    _print_seeds(results)
    print(f"  {'metric':<40} {'max over ranks':>16} {'min over ranks':>16}")
    merged = {}
    for name, unit in PER_LAYER:
        vals = [v[name] for v in per_rank.values()]
        merged[name] = max(vals)
        print(f"  {name:<40} {max(vals):>16.6g} {min(vals):>16.6g} {unit}")
    hot = ("mesh.edge_array", "motion.node_velocities",
           "protocol.node_velocities_parallel")
    for rank, shares in tracer.increment_shares(hot).items():
        print(f"  rank {rank} share of increment time, children included: "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    print(f"  trace overhead: sim_rate {ref_rate:.6g} untraced (mean of a run "
          f"before and after) vs {traced_rate:.6g} traced on seed {seed}")
    print("  skipped names: " + (", ".join(skipped) or "none"))
    return {"correct": _verified(results),
            "attempted": sum(r.attempted for r in results),
            "failed": sum(r.failed for r in results),
            "metrics": _metrics_json(merged, PER_LAYER)}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"grainbench: cannot import grainflow from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"grainbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-s{args.seed}-", dir=OUT)
    try:
        if args.trace:
            result = run_traced(wl, args.seed, workdir)
        else:
            result = run_untraced(wl, args.seed, args.seconds, workdir)
    except BenchError as exc:
        print(f"grainbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
