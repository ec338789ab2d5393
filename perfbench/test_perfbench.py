"""Checks of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

The exact counts (``step`` calls, convergence checks, rule-function calls)
and the digest of each op's outcome must repeat between two runs of one
seed, and between the untraced and the traced copy of a traced run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OPS = 5
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _measure(name, trace):
    return run.measure(name, seed=3, seconds=0.0, trace=trace, min_ops=OPS, setup_reps=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fingerprint_repeats_across_runs_and_tracing(name):
    first = _measure(name, trace=False)
    second = _measure(name, trace=False)
    traced = _measure(name, trace=True)
    assert first["fingerprint"]["ops"] == OPS
    assert first["fingerprint"] == second["fingerprint"] == traced["fingerprint"]
    assert traced["mismatches"] == []
    in_traced_copy = {k: traced["traced_fingerprint"][k] for k in first["fingerprint"]}
    assert in_traced_copy == first["fingerprint"]
    assert first["fingerprint"]["dynamics.step"] > 0


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_listed_workloads_measure_every_listed_metric(name):
    assert name in WORKLOADS
    untraced = _measure(name, trace=False)
    traced = _measure(name, trace=True)
    assert untraced["failed"] == 0, untraced["failures"]
    for metric in SPEC["end_to_end"]:
        m = untraced["end_to_end"][metric["name"]]
        assert m["unit"] == metric["unit"] and m["value"] > 0
    for metric in SPEC["per_layer"]:
        assert traced["per_layer"][metric["name"]]["unit"] == metric["unit"]


def test_self_time_excludes_children():
    from tracing import Probe

    tf, _ = run.import_trailflow()
    probe = Probe(tf, "trace")
    inner = probe.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    probe.wrap("outer", outer_body)()
    times = probe.layer_times()
    assert times["outer"]["calls"] == times["inner"]["calls"] == 1
    assert times["outer"]["mean"] >= 0.03
    assert 0.01 <= times["outer"]["self"] < 0.02
    assert times["inner"]["self"] == times["inner"]["mean"] >= 0.02


def test_host_speed_factor_uses_the_samples_around_an_interval():
    import hostspeed

    run.import_trailflow()
    speed = hostspeed.HostSpeed()
    speed.starts = [float(t) for t in range(10)]
    speed.dispatch = [1.0] * 5 + [2.0] * 5
    speed.kernel = [4.0] * 10
    dispatch, kernel = hostspeed.REF_DISPATCH_S, hostspeed.REF_KERNEL_S
    assert speed.factor(2.5, (1.0, 0.0)) == dispatch / 1.0  # samples 0..5
    assert speed.factor(4.5, (1.0, 0.0)) == dispatch / 1.5  # samples 2..7
    assert speed.factor(20.0, (1.0, 0.0)) == dispatch / 2.0  # the last three
    assert speed.factor(4.5, (0.0, 1.0)) == kernel / 4.0
    assert speed.factor(20.0, (1.0, 1.0)) == (dispatch + kernel) / 6.0
    speed.sample()
    assert len(speed.starts) == len(speed.dispatch) == len(speed.kernel) == 11


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
