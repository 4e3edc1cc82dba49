"""Statistics oracles: grain-size summaries, histograms, load-balance and
efficiency indices, and the CSV round-trips."""

import csv

import numpy as np
import pytest

from grainflow import stats as gs

from .conftest import grid_mesh


def test_mean_size_single_circular_grain():
    R = 0.037
    assert gs.mean_grain_size_weighted([np.pi * R * R]) == pytest.approx(R, rel=1e-14)


def test_mean_size_two_equal_grains():
    A = 2.9e-4
    expect = np.sqrt(A / np.pi)
    assert gs.mean_grain_size_weighted([A, A]) == pytest.approx(expect, rel=1e-14)


def test_mean_size_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(20):
        areas = rng.uniform(1e-5, 5e-3, size=10)
        num = sum(a * np.sqrt(a / np.pi) for a in areas)
        den = sum(areas)
        assert gs.mean_grain_size_weighted(areas) == pytest.approx(num / den, rel=1e-12)


def test_mean_size_empty_raises():
    with pytest.raises(ValueError):
        gs.mean_grain_size_weighted([])


def test_histogram_mass_is_one():
    rng = np.random.default_rng(4)
    for _ in range(25):
        areas = rng.uniform(1e-6, 2e-2, size=rng.integers(1, 40))
        hist = gs.grain_size_histogram(areas)
        assert abs(hist.sum() - 1.0) <= 1e-12


def test_histogram_keeps_oversized_grains():
    # equivalent radius far beyond the top edge still lands in the last bin
    hist = gs.grain_size_histogram([np.pi * 0.5 ** 2])
    assert hist[-1] == pytest.approx(1.0, abs=1e-15)
    assert hist.sum() == pytest.approx(1.0, abs=1e-15)


def test_histogram_empty_raises():
    with pytest.raises(ValueError):
        gs.grain_size_histogram([])


def test_erom_balanced_and_skewed():
    assert gs.erom([100, 100]) == 0.0
    assert gs.erom([150, 50]) == pytest.approx(1.0, rel=1e-14)


def test_erom_errors():
    with pytest.raises(ValueError):
        gs.erom([])
    with pytest.raises(ValueError):
        gs.erom([0, 0])


def test_efficiency_formula():
    assert gs.efficiency(100.0, 60.0, 2) == pytest.approx(100.0 / 120.0, rel=1e-14)
    with pytest.raises(ValueError):
        gs.efficiency(0.0, 60.0, 2)
    with pytest.raises(ValueError):
        gs.efficiency(100.0, 0.0, 2)


def test_surface_areas_matches_element_sums():
    mesh = grid_mesh(4, 4, tag_fn=lambda cx, cy: 0 if cx < 0.5 else 3)
    sids, areas = gs.surface_areas(mesh)
    assert list(sids) == [0, 3]
    eids = mesh.alive_elems()
    for sid, area in zip(sids, areas):
        brute = sum(float(a) for e, a in zip(eids, mesh.areas(eids))
                    if mesh.surf[e] == sid)
        assert area == pytest.approx(brute, rel=1e-14)
    assert areas.sum() == pytest.approx(1.0, rel=1e-12)


def test_merge_areas_sums_split_contributions():
    rng = np.random.default_rng(9)
    for _ in range(10):
        sids = rng.choice(np.arange(2, 40), size=6, replace=False)
        areas = rng.uniform(1e-5, 1e-3, size=6)
        cut = rng.uniform(0.0, 1.0, size=6)
        part0 = (sids, areas * cut)
        part1 = (sids[::-1], (areas * (1 - cut))[::-1])
        mids, merged = gs.merge_areas([part0, part1])
        order = np.argsort(sids)
        assert np.array_equal(mids, sids[order])
        np.testing.assert_allclose(merged, areas[order], rtol=1e-13)


def _write_rows(path, rows):
    """Write rows the way the runner streams them: one csv row each."""
    with open(path, "w", newline="") as f:
        for row in rows:
            csv.writer(f).writerow(row)


def test_stats_csv_round_trip(tmp_path):
    recs = [
        gs.StatsRecord(t=0.0, grains=12, mean_size_mm=0.021, erom=0.0,
                       inc_wall_s=0.0, elements=(400, 380)),
        gs.StatsRecord(t=10.0, grains=11, mean_size_mm=0.0215, erom=0.05,
                       inc_wall_s=0.0, elements=(401, 383)),
    ]
    path = tmp_path / "stats.csv"
    _write_rows(path, [gs.stats_header(2)] + [gs.stats_row(r) for r in recs])
    assert gs.read_stats_csv(path) == recs
    header = path.read_text().splitlines()[0]
    assert header == "t,grains,mean_size_mm,erom,inc_wall_s,elements_p0,elements_p1"


def test_stats_csv_bytes_deterministic(tmp_path):
    recs = [gs.StatsRecord(t=i * 10.0, grains=5, mean_size_mm=0.02 + i * 1e-5,
                           erom=0.1, inc_wall_s=0.0, elements=(100,))
            for i in range(4)]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        _write_rows(path, [gs.stats_header(1)]
                    + [gs.stats_row(r) for r in recs])
    assert a.read_bytes() == b.read_bytes()


def test_hist_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    areas = rng.uniform(1e-5, 3e-3, size=15)
    hist = gs.grain_size_histogram(areas)
    path = tmp_path / "hist.csv"
    gs.write_hist_csv(path, hist)
    back, edges = gs.read_hist_csv(path)
    np.testing.assert_array_equal(back, hist)
    np.testing.assert_allclose(edges, gs.HIST_EDGES, atol=1e-15)


def test_timings_csv(tmp_path):
    path = tmp_path / "timings.csv"
    _write_rows(path, [gs.TIMINGS_HEADER, gs.timings_row(1, 0.5),
                       gs.timings_row(2, 0.25)])
    lines = path.read_text().splitlines()
    assert lines[0] == "inc,wall_s"
    assert lines[1] == "1,0.5"
    assert lines[2] == "2,0.25"
