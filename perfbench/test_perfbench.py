"""Tests of the benchmark itself: its checks count wrong results, and it
refuses to run without the program's source.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import workloads  # noqa: E402
from layers import LayerTrace, weighted_percentile  # noqa: E402
from run import Pass  # noqa: E402


class SmallVpic(workloads.VpicIngest):
    per_file = 512
    n_files = 4


class SmallGetQd(workloads.GetQd):
    per_keyspace = 1024
    per_thread = 32
    min_chunks = 2


class SmallYcsb(workloads.YcsbMixed):
    per_file = 1024
    per_thread = 64
    min_chunks = 2
    rotate_every = 8


@pytest.mark.parametrize("cls", [SmallVpic, SmallGetQd, SmallYcsb])
def test_a_clean_run_reports_no_failure(cls):
    p = Pass(cls(), seed=3, seconds=0.2, extra_setups=2).run()
    assert p.failed == 0, p.problems
    assert len(p.setup_walls) == 3
    assert p.attempted > sum(c.ops for c in p.chunks) - 1
    assert p.virtual["virtual_s"] > 0


def test_virtual_figures_repeat_exactly_for_a_seed():
    a = Pass(SmallYcsb(), seed=5).run()
    b = Pass(SmallYcsb(), seed=5).run()
    assert a.virtual == b.virtual and a.counts == b.counts
    c = Pass(SmallYcsb(), seed=6).run()
    assert c.virtual != a.virtual


def test_a_wrong_get_expectation_is_counted():
    wl = SmallGetQd()
    state = wl.setup(3)
    name, pairs = state["files"][0]
    key, value = pairs[0]  # zipf rank 0: the hottest key
    pairs[0] = (key, b"not the stored value")
    chunk = wl.run_chunk(state, 0)
    assert chunk.failed > 0
    assert chunk.errors[0].startswith(f"GET {key.hex()}")


def test_a_present_answer_for_an_absent_key_is_counted():
    wl = SmallGetQd()
    state = wl.setup(3)
    # claim a stored key is absent: the device's value is then a wrong answer
    for t, absent in enumerate(state["absent"]):
        absent[:] = [state["files"][t][1][5][0]] * len(absent)
    chunk = wl.run_chunk(state, 0)
    assert chunk.failed > 0


def test_wrong_range_and_update_expectations_are_counted():
    wl = SmallYcsb()
    state = wl.setup(3)
    view = state["views"][0]
    view["sorted"][:] = [(k, b"x" * len(v)) for k, v in view["sorted"]]
    chunk = wl.run_chunk(state, 0)
    assert chunk.failed > 0
    delta = state["deltas"][1][-1]
    if not delta["model"]:
        delta["model"][view["keys"][0]] = b"never written"
    else:
        first = next(iter(delta["model"]))
        delta["model"][first] = b"not the update"
    _attempted, problems = wl.check(state)
    assert any("read back wrong" in p for p in problems)


def test_a_wrong_index_count_is_counted(monkeypatch):
    wl = SmallVpic()
    state = wl.setup(3)
    wl.run_chunk(state, 0)
    real = state["dataset"].particles_above
    monkeypatch.setattr(state["dataset"], "particles_above", lambda t: real(t) + 1)
    _attempted, problems = wl.check(state)
    assert sum("SIDX >=" in p for p in problems) == 2


def test_the_layer_wrappers_change_nothing_and_time_every_layer():
    from repro.sim.core import Environment

    step = vars(Environment)["step"]
    plain = Pass(SmallYcsb(), seed=4).run()
    traced = Pass(SmallYcsb(), seed=4, trace=LayerTrace()).run()
    assert vars(Environment)["step"] is step
    assert traced.virtual == plain.virtual and traced.counts == plain.counts
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # these three compare passes, so the runner adds them
    assert declared - set(traced.layer_metrics) == {
        "obs.overhead_ratio", "obs.artifact_bytes", "bench.trace_overhead"}
    walls = [n for n in declared if n.endswith(("wall_self_s", "wall_s"))]
    assert walls and all(traced.layer_metrics[n] > 0 for n in walls)


def test_weighted_percentile_is_nearest_rank():
    samples = [(float(v), 1) for v in range(1, 1001)]
    assert weighted_percentile(samples, 0.5) == 500.0
    assert weighted_percentile(samples, 0.99) == 990.0
    assert weighted_percentile([(1.0, 9), (5.0, 1)], 0.95) == 5.0


def test_the_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "get_qd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
