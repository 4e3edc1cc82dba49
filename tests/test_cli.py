"""Driver and command-line coverage: config handling, artifact layout,
rerun determinism, and the sequential/parallel smoke paths."""

import gc
import sys
import warnings

import numpy as np
import pytest

from grainflow import runner
from grainflow.cli import main
from grainflow.partitioning import initial_partition, save_partition
from grainflow.runner import (ConfigError, RunConfig, make_config,
                              parse_config, run)
from grainflow.stats import read_hist_csv, read_stats_csv
from grainflow.transport import TransportError

from .helpers import parse_vtk

SMOKE = dict(domain=0.2, grains=8, increments=3, seed=3)


def test_parse_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("domain = 0.5\n\n# comment\ngrains=20  # inline\nseed = 7\n")
    assert parse_config(path) == {"domain": "0.5", "grains": "20", "seed": "7"}


def test_parse_config_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("domain 0.5\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_make_config_coerces_and_overrides():
    cfg = make_config({"domain": "0.4", "grains": "12", "backend": "inproc"},
                      increments=5, seed=None)
    assert cfg.domain == 0.4 and cfg.grains == 12
    assert cfg.increments == 5
    assert cfg.seed == 0
    with pytest.raises(ConfigError):
        make_config({"volume": "3"})
    with pytest.raises(ConfigError):
        make_config({"n_parts": "0"})
    with pytest.raises(ConfigError):
        make_config({"backend": "carrier-pigeon"})


def test_backend_names(tmp_path, monkeypatch):
    with pytest.raises(ConfigError):
        make_config({"backend": "mp"})
    # mpi is never silently swapped for threads, not even with one part
    monkeypatch.setitem(sys.modules, "mpi4py", None)
    for n_parts in (1, 2):
        with pytest.raises(TransportError):
            run(RunConfig(**SMOKE, n_parts=n_parts, backend="mpi",
                          out=str(tmp_path / f"mpi{n_parts}")))


class StubMpi:
    """Rank 0 of ``size`` in place of ``MpiTransport``, which needs mpi4py.
    With one rank the collectives loop back; with more, no peer ever
    answers, so a collective fails the test."""

    def __init__(self, size):
        self.rank, self.size, self.aborts = 0, size, 0

    def all_to_all(self, payloads):
        assert self.size == 1, "a collective with absent peers"
        return list(payloads)

    def all_gather(self, payload):
        assert self.size == 1, "a collective with absent peers"
        return [payload]

    def abort(self):
        self.aborts += 1


def test_mpi_run_aborts_when_a_rank_fails(tmp_path, monkeypatch):
    # only the abort wiring is tested here, not a run under real MPI
    loop = StubMpi(1)
    monkeypatch.setattr(runner, "MpiTransport", lambda: loop)
    run(RunConfig(**SMOKE, backend="mpi", out=str(tmp_path / "mpi")))
    run(RunConfig(**SMOKE, out=str(tmp_path / "inproc")))
    for name in ("stats.csv", f"snapshot_{SMOKE['increments']:04d}.vtk"):
        assert ((tmp_path / "mpi" / name).read_bytes()
                == (tmp_path / "inproc" / name).read_bytes())
    assert loop.aborts == 0
    # a bad partition file fails rank 0 alone, before the first collective:
    # without the abort its peers would wait in the bootstrap for ever
    half = StubMpi(2)
    monkeypatch.setattr(runner, "MpiTransport", lambda: half)
    bad = tmp_path / "parts.txt"
    bad.write_text("999999 0\n")
    with pytest.raises(ConfigError, match="999999 is not a live element"):
        run(RunConfig(**SMOKE, backend="mpi", n_parts=2,
                      partition_file=str(bad), out=str(tmp_path / "bad")))
    assert half.aborts == 1


def test_sequential_smoke_run(tmp_path):
    out = tmp_path / "run"
    run(RunConfig(**SMOKE, out=str(out)))
    recs = read_stats_csv(out / "stats.csv")
    assert len(recs) == SMOKE["increments"] + 1
    assert all(np.isfinite([r.t, r.mean_size_mm, r.erom]).all() for r in recs)
    assert [r.t for r in recs] == [0.0, 10.0, 20.0, 30.0]
    assert all(len(r.elements) == 1 for r in recs)

    # final snapshot only, and its cell count equals the element audit
    snaps = sorted(p.name for p in out.glob("snapshot_*.vtk"))
    assert snaps == [f"snapshot_{SMOKE['increments']:04d}.vtk"]
    _, cells, data = parse_vtk(out / snaps[0])
    assert len(cells) == recs[-1].elements[0]
    assert len(data["surface_id"]) == len(cells)

    hist, edges = read_hist_csv(out / f"hist_{SMOKE['increments']:04d}.csv")
    assert abs(hist.sum() - 1.0) <= 1e-12


def test_output_cadence(tmp_path):
    out = tmp_path / "run"
    run(RunConfig(**SMOKE, out=str(out), output_every=2))
    snaps = sorted(p.name for p in out.glob("snapshot_*.vtk"))
    assert snaps == ["snapshot_0000.vtk", "snapshot_0002.vtk",
                     "snapshot_0003.vtk"]
    for n in (0, 2, 3):
        hist, _ = read_hist_csv(out / f"hist_{n:04d}.csv")
        assert abs(hist.sum() - 1.0) <= 1e-12


def test_rerun_is_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run(RunConfig(**SMOKE, out=str(out)))
        outs.append(out)
    assert (outs[0] / "stats.csv").read_bytes() == (outs[1] / "stats.csv").read_bytes()
    final = f"snapshot_{SMOKE['increments']:04d}.vtk"
    assert (outs[0] / final).read_bytes() == (outs[1] / final).read_bytes()


def test_two_worker_smoke_run(tmp_path):
    seq = tmp_path / "seq"
    par = tmp_path / "par"
    run(RunConfig(**SMOKE, out=str(seq)))
    run(RunConfig(**SMOKE, n_parts=2, out=str(par)))
    s = read_stats_csv(seq / "stats.csv")
    p = read_stats_csv(par / "stats.csv")
    assert len(p) == len(s)
    assert all(len(r.elements) == 2 for r in p)
    assert p[0].grains == s[0].grains
    # both workers contribute, and the parallel mean tracks the sequential one
    assert all(min(r.elements) > 0 for r in p)
    for rs, rp in zip(s, p):
        assert rp.mean_size_mm == pytest.approx(rs.mean_size_mm, rel=1e-4)
    # the assembled snapshot carries every element exactly once
    _, cells, _ = parse_vtk(par / f"snapshot_{SMOKE['increments']:04d}.vtk")
    assert len(cells) == sum(p[-1].elements)


def test_failed_run_leaves_its_record(tmp_path, monkeypatch):
    whole = tmp_path / "whole"
    run(RunConfig(**SMOKE, out=str(whole)))
    calls = []
    increment = runner.parallel_increment

    def third_raises(*args):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("increment 3 fails")
        return increment(*args)

    monkeypatch.setattr(runner, "parallel_increment", third_raises)
    out = tmp_path / "failed"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="increment 3 fails"):
            run(RunConfig(**SMOKE, out=str(out)))
        gc.collect()
    assert not [w for w in caught if w.category is ResourceWarning]
    # the header and the rows of increments 0, 1 and 2
    stats = (out / "stats.csv").read_bytes().splitlines(keepends=True)
    assert stats == (whole / "stats.csv").read_bytes().splitlines(
        keepends=True)[:4]
    timings = (out / "timings.csv").read_text().splitlines()
    assert timings[0] == "inc,wall_s"
    assert [row.split(",")[0] for row in timings[1:]] == ["1", "2"]


# -- partition files ---------------------------------------------------------

def partition_lines(tmp_path):
    """The lines of a valid 2-part partition file of the SMOKE mesh."""
    path = tmp_path / "parts.txt"
    mesh = runner._build_initial(RunConfig(**SMOKE))
    save_partition(path, initial_partition(mesh, 2))
    return path, path.read_text().splitlines()


def run_partitioned(path, tmp_path):
    run(RunConfig(**SMOKE, n_parts=2, partition_file=str(path),
                  out=str(tmp_path / "out")))


def test_partition_file_drives_the_run(tmp_path):
    path, _ = partition_lines(tmp_path)
    run_partitioned(path, tmp_path)
    recs = read_stats_csv(tmp_path / "out" / "stats.csv")
    assert all(min(r.elements) > 0 for r in recs)


def test_partition_file_missing_element_rejected(tmp_path):
    path, lines = partition_lines(tmp_path)
    missing = lines[5].split()[0]
    path.write_text("\n".join(lines[:5] + lines[6:]) + "\n")
    with pytest.raises(ConfigError,
                       match=f"element {missing} is assigned to no part"):
        run_partitioned(path, tmp_path)


def test_partition_file_part_out_of_range_rejected(tmp_path):
    path, lines = partition_lines(tmp_path)
    lines[3] = lines[3].split()[0] + " 2"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="line 4: part 2 of element"):
        run_partitioned(path, tmp_path)


def test_partition_file_bad_element_id_rejected(tmp_path, capsys):
    path, lines = partition_lines(tmp_path)
    path.write_text("\n".join(lines + ["999999 0"]) + "\n")
    bad = f"line {len(lines) + 1}: 999999 is not a live element"
    with pytest.raises(ConfigError, match=bad):
        run_partitioned(path, tmp_path)
    # the command line reports it without a traceback
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("domain = 0.2\ngrains = 8\nincrements = 1\nseed = 3\n"
                       f"n_parts = 2\npartition_file = {path}\n"
                       f"out = {tmp_path / 'cli'}\n")
    assert main(["run", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err == f"grainflow: {path}: {bad}\n"


def test_partition_file_duplicated_element_rejected(tmp_path):
    path, lines = partition_lines(tmp_path)
    elem = lines[2].split()[0]
    path.write_text("\n".join(lines + [f"{elem} 1"]) + "\n")
    with pytest.raises(ConfigError, match=f"element {elem} is assigned twice"):
        run_partitioned(path, tmp_path)


def test_cli_run_and_stats(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    out = tmp_path / "out"
    cfgfile.write_text("domain = 0.2\ngrains = 8\nincrements = 2\nseed = 5\n"
                       f"out = {out}\n")
    assert main(["run", "--config", str(cfgfile)]) == 0
    assert (out / "stats.csv").exists()

    assert main(["stats", "--in", str(out)]) == 0
    text = capsys.readouterr().out
    assert "rows: 3" in text
    assert "grains:" in text and "mean size:" in text

    assert main(["stats", "--in", str(tmp_path / "missing")]) == 2


def test_cli_flag_overrides_file(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("domain = 0.2\ngrains = 8\nincrements = 9\nseed = 5\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfgfile), "--increments", "1",
                 "--out", str(out)]) == 0
    assert len(read_stats_csv(out / "stats.csv")) == 2


def final_area(out, increments):
    pts, cells, _ = parse_vtk(out / f"snapshot_{increments:04d}.vtk")
    p = pts[np.array(cells)][..., :2]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    assert (areas > 0).all()
    return float(areas.sum())


def test_m_seq_seed4_survives(tmp_path):
    # the benchmark's M problem at seed 4, kept as found: never re-seeded.
    # While swaps could fold a non-convex element pair, the patch of node
    # 906 stopped being a disk at increment 9 (TopologyError)
    run(RunConfig(domain=0.3, grains=60, h=0.004, dt=10.0, increments=9,
                  seed=4, out=str(tmp_path)))
    assert final_area(tmp_path, 9) == pytest.approx(0.09, rel=1e-9)


def test_m_par2_seed11_survives_ten_increments(tmp_path):
    # the benchmark's M problem at seed 11 on two workers, kept as found: a
    # splice met a chain link naming a junction that had already left the
    # worker and raised "chain conflict at node 244" at increment 9
    run(RunConfig(domain=0.3, grains=60, h=0.004, dt=10.0, increments=10,
                  n_parts=2, output_every=5, seed=11, out=str(tmp_path)))
    assert len(read_stats_csv(tmp_path / "stats.csv")) == 11
    assert final_area(tmp_path, 10) == pytest.approx(0.09, rel=1e-9)


def test_m_par2_seed5_survives_sixteen_increments(tmp_path):
    # the benchmark's M problem at seed 5 on two workers, kept as found:
    # the scoped second remesh pass read surface counts taken before the
    # scatter and raised KeyError: 43 at increment 6; once that was mended,
    # the run raised "chain conflict at node 1666" at increment 16
    run(RunConfig(domain=0.3, grains=60, h=0.004, dt=10.0, increments=16,
                  n_parts=2, output_every=5, seed=5, out=str(tmp_path)))
    assert len(read_stats_csv(tmp_path / "stats.csv")) == 17
    assert final_area(tmp_path, 16) == pytest.approx(0.09, rel=1e-9)


def test_m_par2_seed0_survives_twenty_increments(tmp_path):
    # the benchmark's M problem at seed 0 on two workers, kept as found: it
    # raised "chain conflict at node 1044" at increment 20
    run(RunConfig(domain=0.3, grains=60, h=0.004, dt=10.0, increments=20,
                  n_parts=2, output_every=5, seed=0, out=str(tmp_path)))
    assert len(read_stats_csv(tmp_path / "stats.csv")) == 21
    assert final_area(tmp_path, 20) == pytest.approx(0.09, rel=1e-9)


def test_m_par2_seed3_survives_fifteen_increments(tmp_path):
    # the benchmark's M problem at seed 3 on two workers, kept as found: a
    # pruned junction stayed named by its neighbours' chain links, came
    # back with a later scatter and raised "chain conflict at node 3233"
    run(RunConfig(domain=0.3, grains=60, h=0.004, dt=10.0, increments=15,
                  n_parts=2, output_every=5, seed=3, out=str(tmp_path)))
    assert len(read_stats_csv(tmp_path / "stats.csv")) == 16
    assert final_area(tmp_path, 15) == pytest.approx(0.09, rel=1e-9)


def test_m_par2_seed1_survives_nineteen_increments(tmp_path):
    # the benchmark's M problem at seed 1 on two workers, kept as found: a
    # split of an interface edge ending at a shared L-node rewrote a chain
    # link its co-owner held and raised "chain conflict at node 6899"
    run(RunConfig(domain=0.3, grains=60, h=0.004, dt=10.0, increments=19,
                  n_parts=2, output_every=5, seed=1, out=str(tmp_path)))
    assert len(read_stats_csv(tmp_path / "stats.csv")) == 20
    assert final_area(tmp_path, 19) == pytest.approx(0.09, rel=1e-9)
