"""Driver and command-line coverage: config handling, artifact layout,
rerun determinism, and the sequential/parallel smoke paths."""

import os
import sys

import numpy as np
import pytest

from grainflow.cli import main
from grainflow.mesh import TopologyError
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


@pytest.mark.xfail(raises=TopologyError, strict=True,
                   reason="known defect: a node patch stops being a disk "
                          "(node 906, increment 9)")
def test_m_seq_seed4_survives(tmp_path):
    # the benchmark's M problem at seed 4, kept as found: never re-seeded
    run(RunConfig(domain=0.3, grains=60, h=0.004, dt=10.0, increments=9,
                  seed=4, out=str(tmp_path)))


def test_m_par2_seed5_survives_six_increments(tmp_path):
    # the benchmark's M problem at seed 5 on two workers, kept as found:
    # the scoped second remesh pass read surface counts taken before the
    # scatter and raised KeyError: 43 at increment 6
    run(RunConfig(domain=0.3, grains=60, h=0.004, dt=10.0, increments=6,
                  n_parts=2, output_every=5, seed=5, out=str(tmp_path)))
    assert len(read_stats_csv(tmp_path / "stats.csv")) == 7
