"""Self-test of the benchmark on tiny configs.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q grainbench/tests
"""

import json
from pathlib import Path

import pytest

from grainbench import run
from grainbench.tracing import Patches
from grainbench.workloads import (WORKLOADS, Workload, run_batch,
                                  tail_percentile)

SPEC = json.loads((Path(run.__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())

TINY = Workload("tiny", domain=0.2, grains=8, increments=3, seeds=1)
TINY_PAR = Workload("tiny_par", domain=0.2, grains=8, increments=3, seeds=1,
                    n_parts=2, output_every=2)


@pytest.fixture
def bench(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    for wl in (TINY, TINY_PAR):
        monkeypatch.setitem(WORKLOADS, wl.name, wl)

    def call(workload, trace, seed=3):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0", "--trace", str(trace)])
        return code
    return call


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_code_and_spec_agree():
    assert [n for n, _ in run.END_TO_END] == [m["name"] for m in SPEC["end_to_end"]]
    from grainbench.tracing import PER_LAYER
    assert [n for n, _ in PER_LAYER] == [m["name"] for m in SPEC["per_layer"]]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_untraced_prints_every_end_to_end_metric(bench, capsys):
    assert bench("tiny", 0) == 0
    res = _last_json(capsys.readouterr().out)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] == TINY.increments and res["failed"] == 0
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert res["metrics"]["inc_ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", ["tiny", "tiny_par"])
def test_traced_prints_every_per_layer_metric(bench, capsys, workload):
    assert bench(workload, 1) == 0
    res = _last_json(capsys.readouterr().out)
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == _units("per_layer")
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["trace.skipped"] == 0
    assert m["mesh.edge_array_calls"] > 0 and m["remesh.remesh_pass_calls"] > 0
    assert 0.0 < m["trace.coverage"] <= 1.0
    parallel = [k for k in m if k.split(".")[0] in ("protocol", "transport", "wire")]
    if workload == "tiny":
        assert all(m[k] == 0 for k in parallel)
    else:
        assert m["protocol.bootstrap_state_s"] > 0
        assert m["transport.all_gather_bytes"] > 0
        assert m["wire.encode_records_bytes"] > 0


def test_known_sequential_failure_is_counted_not_raised(tmp_path):
    # 0.2 mm, 30 grains, seed 0: TopologyError in the 5th increment
    wl = Workload("seq_fail", domain=0.2, grains=30, increments=6, seeds=1)
    with Patches() as patches:
        [res] = run_batch(wl, 0, str(tmp_path), patches)
    assert res.error["type"] == "TopologyError"
    assert res.error["increment"] == 5
    assert (res.completed, res.attempted, res.failed) == (4, 5, 1)
    assert len(res.inc_walls) == 4


def test_missing_increment_boundary_fails_loudly(bench, capsys, monkeypatch):
    from grainbench import workloads
    monkeypatch.setattr(workloads, "INCREMENT_FUNCTIONS", ("no_such_increment",))
    assert bench("tiny", 0) == 1
    out, err = capsys.readouterr()
    assert "no increment boundary" in err
    assert out == "" or not out.strip().splitlines()[-1].startswith("{")


@pytest.mark.parametrize("n, pct, value", [
    (3, 50.0, 1), (39, 50.0, 19), (40, 75.0, 29), (99, 75.0, 74),
    (100, 90.0, 89), (1000, 99.0, 989), (10000, 99.9, 9989)])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, pct, value):
    assert tail_percentile([float(i) for i in range(n)]) == (value, pct)
