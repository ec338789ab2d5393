import csv
import dataclasses
import io
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from trailflow import adversarial, scenarios
from trailflow.analysis import TIMESERIES_COLUMNS, InvariantObserver, normalized_levels
from trailflow.cli import main
from trailflow.dynamics import DecisionRule, EngineConfig, FlowSchedule, init_state, run
from trailflow.graph import count_shortest_paths, gen_gnp, gen_grid, plant_path, shortest_path
from trailflow.scenarios import (
    Scenario,
    ScenarioError,
    TimeseriesRecorder,
    parse_scenario,
    run_batch,
    run_scenario,
)

A1_DOC = {
    "name": "thm1",
    "seed": 7,
    "graph": {
        "kind": "two_path",
        "m": 2,
        "n": 3,
        "leak_top": [0.03],
        "leak_bottom": [0.025320565519103666, 0.025320565519103666],
    },
    "delta": 0.5,
    "init": {"kind": "constant", "value": 1.0},
    "schedule": {"kind": "constant", "f0": 1.0, "b0": 1.0},
    "monitors": ["invariants", "pheromone_bound", "potential"],
}

# an exponential schedule past the float range: alpha**t overflows at t = 2,
# the injection at t = 4
OVERFLOW_DOC = {
    "seed": 1,
    "graph": {"kind": "two_path", "m": 2, "n": 3},
    "rule": {"kind": "power", "k": 2},
    "schedule": {"kind": "exponential", "f0": 1e-300, "b0": 1e-300, "alpha": 1e200},
    "steps": 10,
}

GRID33 = {"kind": "grid", "rows": 3, "cols": 3}
TWO_PATH22 = {"kind": "two_path", "m": 2, "n": 2}


# -- parsing -------------------------------------------------------------------


def test_parse_minimal_defaults():
    s = parse_scenario({"seed": 1, "graph": {"kind": "two_path", "m": 2, "n": 3}})
    assert s.config["epsilon"] == 0.01
    assert s.config["steps"] == 100_000
    assert s.config["underflow_threshold"] == 1e-300
    assert s.config["delta"] == {"kind": "uniform"}
    assert s.config["rescale"] == "off"


def test_parse_exponential_defaults_enable_rescale():
    s = parse_scenario(
        {
            "seed": 1,
            "graph": {"kind": "two_path", "m": 2, "n": 3},
            "schedule": {"kind": "exponential", "f0": 1, "b0": 1, "alpha": 1.1},
        }
    )
    assert s.config["rescale"] == "on"
    assert s.config["steps"] == 10_000


def test_parse_round_trip():
    s = parse_scenario(A1_DOC)
    assert parse_scenario(s.serialize()) == s


# ``serialize()`` of a 3x3 grid config that sets only its seed
SERIALIZED_DEFAULTS = {
    "delta": {"kind": "uniform"},
    "epsilon": 0.01,
    "graph": {"cols": 3, "kind": "grid", "rows": 3},
    "init": {"high": 1.0, "kind": "uniform", "low": 0.0},
    "leakage": {"kind": "zero"},
    "monitors": [],
    "name": "scenario",
    "outputs": {"csv": True, "dir": None, "dot": True, "json": True, "snapshot_interval": 100},
    "plant": None,
    "rescale": "off",
    "rule": {"kind": "linear"},
    "schedule": {"b0": 1.0, "f0": 1.0, "kind": "constant"},
    "seed": 1,
    "steps": 100000,
    "underflow_threshold": 1e-300,
}
TWO_PATH23_FILLED = {
    "kind": "two_path", "leak_bottom": [0.0, 0.0], "leak_top": [0.0], "m": 2, "n": 3,
}

# one config per graph, leakage, init, schedule and plant kind, plus outputs and
# the optional top-level scalars: (the keys set beside seed 1 on the grid, the
# serialized sections that then differ from SERIALIZED_DEFAULTS). The text is
# pinned byte for byte, floats and ints included: saved scenario.json files
# must read back to the same scenario.
SERIALIZE_GOLDEN = {
    "graph-two_path": (
        {"graph": {"kind": "two_path", "m": 2, "n": 3}},
        {"graph": TWO_PATH23_FILLED},
    ),
    "graph-gnp": (
        {"graph": {"kind": "gnp", "n": 8, "p": 0.5}},
        {"graph": {"kind": "gnp", "n": 8, "p": 0.5}},
    ),
    "graph-banded_gnp": (
        {"graph": {"kind": "banded_gnp", "n": 8, "p": 0.5, "k": 2}},
        {"graph": {"k": 2, "kind": "banded_gnp", "n": 8, "p": 0.5}},
    ),
    "graph-grid": ({}, {}),
    "leakage-zero": ({"leakage": {"kind": "zero"}}, {}),
    "leakage-uniform": (
        {"leakage": {"kind": "uniform", "low": 0.1, "high": 0.2}},
        {"leakage": {"high": 0.2, "kind": "uniform", "low": 0.1}},
    ),
    "leakage-explicit": (
        {"leakage": {"kind": "explicit", "values": {"4": 0.5, "2": 0}}},
        {"leakage": {"kind": "explicit", "values": {"2": 0.0, "4": 0.5}}},
    ),
    "init-uniform": (
        {"init": {"kind": "uniform", "low": 0.5, "high": 2}},
        {"init": {"high": 2.0, "kind": "uniform", "low": 0.5}},
    ),
    "init-constant": (
        {"init": {"kind": "constant", "value": 3}},
        {"init": {"kind": "constant", "value": 3.0}},
    ),
    "init-explicit": (
        {"graph": TWO_PATH22, "init": {"kind": "explicit", "values": [1, 2.5, 0, 1]}},
        {
            "graph": {"kind": "two_path", "leak_bottom": [0.0], "leak_top": [0.0], "m": 2, "n": 2},
            "init": {"kind": "explicit", "values": [1.0, 2.5, 0.0, 1.0]},
        },
    ),
    "schedule-constant": (
        {"schedule": {"kind": "constant", "f0": 2, "b0": 0.5}},
        {"schedule": {"b0": 0.5, "f0": 2.0, "kind": "constant"}},
    ),
    "schedule-exponential": (
        {"schedule": {"kind": "exponential", "f0": 1, "b0": 1, "alpha": 1.1}},
        {
            "rescale": "on",
            "schedule": {"alpha": 1.1, "b0": 1.0, "f0": 1.0, "kind": "exponential"},
            "steps": 10000,
        },
    ),
    "schedule-linear": (
        {"schedule": {"kind": "linear", "f0": 1, "b0": 0.5, "alpha": 0.2}},
        {"schedule": {"alpha": 0.2, "b0": 0.5, "f0": 1.0, "kind": "linear"}},
    ),
    "plant-path": (
        {"graph": {"kind": "grid", "rows": 4, "cols": 4}, "plant": {"length": 3}},
        {"graph": {"cols": 4, "kind": "grid", "rows": 4}, "plant": {"kind": "path", "length": 3}},
    ),
    "plant-band_ladder": (
        {"graph": {"kind": "banded_gnp", "n": 20, "p": 0.5, "k": 3},
         "plant": {"kind": "band_ladder"}},
        {"graph": {"k": 3, "kind": "banded_gnp", "n": 20, "p": 0.5},
         "plant": {"kind": "band_ladder"}},
    ),
    "outputs": (
        {"outputs": {"dir": "out", "csv": False, "json": True, "dot": False,
                     "snapshot_interval": 5}},
        {"outputs": {"csv": False, "dir": "out", "dot": False, "json": True,
                     "snapshot_interval": 5}},
    ),
    "scalars": (
        {"name": "all-scalars", "graph": {"kind": "two_path", "m": 2, "n": 3},
         "rule": {"kind": "power", "k": 2}, "delta": 0.25, "steps": 500, "epsilon": 0.05,
         "monitors": ["potential"], "rescale": "off", "underflow_threshold": 0},
        {"delta": 0.25, "epsilon": 0.05, "graph": TWO_PATH23_FILLED, "monitors": ["potential"],
         "name": "all-scalars", "rule": {"k": 2, "kind": "power"}, "steps": 500,
         "underflow_threshold": 0.0},
    ),
}


@pytest.mark.parametrize("case", sorted(SERIALIZE_GOLDEN))
def test_serialize_golden(case):
    doc, changed = SERIALIZE_GOLDEN[case]
    s = parse_scenario(dict({"seed": 1, "graph": GRID33}, **doc))
    expected = dict(SERIALIZED_DEFAULTS, **changed)
    assert s.serialize() == json.dumps(expected, sort_keys=True, indent=2)
    assert parse_scenario(s.serialize()) == s


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ({"graph": {"kind": "grid", "rows": 3, "cols": 3}}, "seed"),
        ({"seed": 1}, "graph"),
        ({"seed": 1, "graph": {"kind": "blob"}}, "graph.kind"),
        (
            {"seed": 1, "graph": {"kind": "gnp", "n": 9, "p": 0.5},
             "rule": {"kind": "power", "k": 2}},
            "rule.kind",
        ),
        (
            {"seed": 1, "graph": {"kind": "two_path", "m": 2, "n": 3},
             "rule": {"kind": "power", "k": 2}, "rescale": "on",
             "schedule": {"kind": "exponential", "f0": 1, "b0": 1, "alpha": 1.1}},
            "rescale",
        ),
        ({"seed": 1, "graph": {"kind": "grid", "rows": 3, "cols": 3}, "zzz": 0}, "zzz"),
        (
            {"seed": 1, "graph": {"kind": "grid", "rows": 3, "cols": 3},
             "monitors": ["nope"]},
            "monitors",
        ),
        ({"seed": 1, "graph": {"kind": "grid", "rows": 3, "cols": 3}, "delta": 1.5}, "delta"),
        # planting gives the source a third out-edge
        (
            {"seed": 1, "graph": GRID33, "plant": {"length": 2},
             "rule": {"kind": "power", "k": 2}},
            "rule.kind",
        ),
        # the banded draw checks p as G(n, p) does
        (
            {"seed": 1, "graph": {"kind": "banded_gnp", "n": 30, "p": 1.5, "k": 3}},
            "graph: p must lie in [0, 1]",
        ),
        (
            {"seed": 1, "graph": {"kind": "banded_gnp", "n": 30, "p": -0.2, "k": 3}},
            "graph: p must lie in [0, 1]",
        ),
    ],
)
def test_parse_errors_name_offending_key(doc, fragment):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert fragment in str(err.value)


# -- scenario runs ---------------------------------------------------------------


def test_run_scenario_artifacts(tmp_path):
    s = parse_scenario(A1_DOC)
    res = run_scenario(s, out_dir=str(tmp_path))
    assert res.trace.converged_path is not None
    assert res.invariant_violations == 0
    assert res.bound_violations == 0
    assert res.exit_code == 0

    files = set(os.listdir(tmp_path))
    assert {"scenario.json", "timeseries.csv", "summary.csv",
            "final_state.json", "final_state.dot"} <= files

    with open(tmp_path / "timeseries.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "edge_id", "u", "v", "p", "f", "b", "norm_fwd", "norm_bwd"]
    ts = [int(r[0]) for r in rows[1:]]
    assert ts == sorted(ts)

    with open(tmp_path / "summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "r_min", "f_s", "b_d", "converged_path_id"]
    ts = [int(r[0]) for r in rows[1:]]
    assert all(b > a for a, b in zip(ts, ts[1:]))  # strictly increasing
    assert rows[-1][4] == str(res.trace.converged_path)

    doc = json.load(open(tmp_path / "final_state.json"))
    assert doc["converged_path"] == str(res.trace.converged_path)
    assert doc["oracle_min_leakage"] == str(res.oracle_min_leakage)

    dot = open(tmp_path / "final_state.dot").read()
    assert "digraph" in dot and 'color="green"' in dot


def test_timeseries_streams_snapshots(tmp_path):
    """The recorder writes each snapshot as it is taken: recording five
    snapshots of a G(300, .1) peaks within a fifth of one snapshot's memory
    above recording one, and the file holds the bytes of every row written
    at the end."""
    g = gen_gnp(300, 0.1, 4)
    sched = FlowSchedule.constant(1.0, 1.0)
    states = []
    keep = lambda t, state, prev: states.append(state.copy())  # noqa: E731
    run(init_state(g, 1.0, sched), g, DecisionRule.linear(), sched, EngineConfig(0.5), 4, [keep])

    def record(interval):
        path = str(tmp_path / f"every{interval}.csv")
        rec = TimeseriesRecorder(g, interval, path, "--out-dir")
        tracemalloc.start()
        for state in states:
            rec(state.t, state, None)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        rec.close()
        return path, peak

    _, one = record(100)
    path, five = record(1)
    assert five < 1.2 * one
    want = io.StringIO(newline="")
    w = csv.writer(want)
    w.writerow(TIMESERIES_COLUMNS)
    for st in states:
        levels = normalized_levels(st, g)
        columns = (g.tails, g.heads, st.p, st.f_edge, st.b_edge, levels.fwd, levels.bwd)
        for eid, row in enumerate(zip(*(a.tolist() for a in columns))):
            w.writerow([st.t, eid, *row])
    with open(path, newline="") as fh:
        assert fh.read() == want.getvalue()


def test_run_scenario_converged_chain_is_thickest(tmp_path):
    s = parse_scenario(A1_DOC)
    res = run_scenario(s, out_dir=str(tmp_path))
    st = res.trace.final_state
    weights = st.f_edge + st.b_edge
    top_eids = res.graph.edge_ids(res.trace.converged_path.edge_pairs()).tolist()
    other = [e for e in range(res.graph.n_edges) if e not in top_eids]
    assert min(weights[e] for e in top_eids) > max(weights[e] for e in other)


def test_run_scenario_determinism():
    s = parse_scenario(A1_DOC)
    a = run_scenario(s)
    b = run_scenario(s)
    assert a.trace.converged_t == b.trace.converged_t
    assert np.array_equal(a.trace.final_state.p, b.trace.final_state.p)


def test_scenario_is_built_once_for_parse_and_runs(monkeypatch):
    calls = []
    build = scenarios._materialize
    monkeypatch.setattr(scenarios, "_materialize", lambda cfg: calls.append(cfg) or build(cfg))
    s = parse_scenario(dict(A1_DOC, steps=50))
    a, b = run_scenario(s), run_scenario(s)
    assert len(calls) == 1
    assert np.array_equal(a.trace.final_state.p, b.trace.final_state.p)


def test_run_scenario_uniform_delta_sampled_from_seed():
    doc = {"seed": 3, "graph": {"kind": "two_path", "m": 2, "n": 3}, "steps": 5}
    r1 = run_scenario(parse_scenario(doc))
    r2 = run_scenario(parse_scenario(doc))
    assert r1.delta == r2.delta
    doc2 = dict(doc, seed=4)
    assert run_scenario(parse_scenario(doc2)).delta != r1.delta


def test_run_scenario_general_rule_two_path():
    doc = {
        "seed": 2,
        "graph": {"kind": "two_path", "m": 2, "n": 2},
        "rule": {"kind": "power", "k": 2},
        "delta": 0.5,
        "init": {"kind": "uniform", "low": 0.2, "high": 1.0},
        "steps": 500,
    }
    res = run_scenario(parse_scenario(doc))
    assert res.trace.stop_reason in ("converged", "horizon")


def test_run_scenario_schedule_past_the_float_range_aborts():
    """alpha**t overflows at t = 2 while the injection is still finite: the
    run goes on until the injection itself is inf and aborts on it."""
    res = run_scenario(parse_scenario(OVERFLOW_DOC))
    assert res.trace.stop_reason == "aborted" and res.trace.failure_t == 4
    assert res.trace.failure == "non-finite forward vertex flow at index 0"
    assert res.exit_code == 3


def test_run_scenario_general_rule_on_a_grid():
    # every grid vertex has at most two out- and in-edges, so the general
    # rule splits at each vertex with two and passes flow on at the others
    doc = {
        "seed": 2,
        "graph": {"kind": "grid", "rows": 10, "cols": 10},
        "rule": {"kind": "power", "k": 2},
        "delta": 0.5,
        "steps": 500,
        "monitors": ["invariants"],
    }
    res = run_scenario(parse_scenario(doc))
    assert res.invariant_violations == 0
    assert res.exit_code == 0


# -- batches -----------------------------------------------------------------------


def test_batch_single_instance_reproducible():
    a = run_batch("appendixC-leakage", instances=1, base_seed=5)
    b = run_batch("appendixC-leakage", instances=1, base_seed=5)
    assert a.rows[0].converged_path == b.rows[0].converged_path
    assert a.rows[0].steps == b.rows[0].steps
    assert a.rows[0].match


def test_batch_rows_pass_final_detection():
    br = run_batch("appendixC-leakage", instances=3, base_seed=1)
    assert br.match_rate == 1.0
    for row in br.rows:
        assert row.converged and row.converged_path == row.oracle_path


def test_batch_counts_single_edge_oracles():
    """``single_edge_oracles`` counts the rows whose oracle is the direct
    s->d edge; a longer oracle and a row without one (no connected
    instance) do not count."""
    def row(index, oracle):
        return scenarios.InstanceResult(
            index, "gnp", bool(oracle), 1, oracle, oracle, bool(oracle), 0.5, 0, 0.0
        )

    rows = [row(0, "0>99"), row(1, "0>5>99"), row(2, ""), row(3, "0>7")]
    result = scenarios.BatchResult("p", rows)
    assert result.single_edge_oracles == 2
    doc = result.to_json_dict()
    assert list(doc)[-1] == "single_edge_oracles" and doc["single_edge_oracles"] == 2
    assert scenarios.BatchResult("p", []).to_json_dict()["single_edge_oracles"] == 0


def test_batch_unknown_preset():
    with pytest.raises(ScenarioError):
        run_batch("nope", instances=1)


def test_batch_csv_outputs(tmp_path):
    br = run_batch("appendixC-increasing", instances=2, base_seed=3, out_dir=str(tmp_path))
    assert br.match_rate == 1.0
    rows = list(csv.reader(open(tmp_path / "batch.csv")))
    assert rows[0][0] == "index"
    assert len(rows) == 3
    doc = json.load(open(tmp_path / "batch.json"))
    assert doc["match_rate"] == 1.0
    assert doc["invariant_violations"] == [0, 0]  # no monitors: nothing checked


@pytest.mark.parametrize(
    "family, params",
    [pytest.param(f, p, id=f"{f}{tuple(p.values())}") for f, p, _ in scenarios.INCREASING_FULL],
)
def test_increasing_full_scale_premise(family, params):
    """The growing-injection theorem needs a unique shortest path: instances
    0-2 of every full-scale increasing family, drawn and prepared the
    preset's way at base seed 0 (no dynamics), have one, and it is the
    oracle."""
    spec = scenarios._PRESETS["appendixC-increasing"]
    for index in range(3):
        rng = scenarios._stream(0, spec.streams[0], index)
        graph = scenarios._connected_graph(family, params, 0, spec.streams[1], index)
        graph, oracle = spec.prepare(graph, family, params, rng)
        assert count_shortest_paths(graph) == 1, index
        assert oracle == shortest_path(graph), index


# the out-sum kernel of every full-scale family, as ``GraphArrays`` documents
# it: np.bincount on graphs not sorted by tail with at most 16 edges per
# vertex. Leakage graphs keep their generator's tail order; a planted path
# or ladder hop is appended after it, and only the band-40 ladder is dense
_DENSE = ("banded_gnp", {"n": 1000, "p": 0.5, "k": 40})


@pytest.mark.parametrize(
    "preset, family, params",
    [
        pytest.param(preset, f, p, id=f"{preset}-{f}{tuple(p.values())}")
        for preset, families in (
            ("appendixC-leakage", scenarios.LEAKAGE_FULL),
            ("appendixC-increasing", scenarios.INCREASING_FULL),
        )
        for f, p, _ in families
    ],
)
def test_full_scale_families_out_sum_kernel(preset, family, params):
    spec = scenarios._PRESETS[preset]
    for index in range(3):
        rng = scenarios._stream(0, spec.streams[0], index)
        drawn = scenarios._connected_graph(family, params, 0, spec.streams[1], index)
        ga = spec.prepare(drawn, family, params, rng)[0].arrays
        planted = ga.m > drawn.n_edges
        assert ga.tail_sorted == (not planted), index
        assert ga.out_by_bincount == (planted and (family, params) != _DENSE), index


GRID10 = {"rows": 10, "cols": 10}


@pytest.mark.parametrize("preset", sorted(scenarios._PRESETS))
def test_grid_instances_share_one_graph(preset):
    """Every instance of a grid family draws the same graph object, whatever
    its seed; leakage copies share its index arrays, and the increasing
    preset's instances share one planted graph and oracle."""
    scenarios._grid.cache_clear()
    spec = scenarios._PRESETS[preset]
    drawn, prepared = [], []
    for seed, index in ((0, 0), (0, 1), (7, 2)):
        rng = scenarios._stream(seed, spec.streams[0], index)
        graph = scenarios._connected_graph("grid", GRID10, seed, spec.streams[1], index)
        drawn.append(graph)
        prepared.append(spec.prepare(graph, "grid", GRID10, rng))
    assert all(graph is drawn[0] for graph in drawn)
    if preset == "appendixC-increasing":
        assert all(g is prepared[0][0] and o is prepared[0][1] for g, o in prepared)
    else:
        assert len({id(g) for g, _ in prepared}) == 3
        for graph, _ in prepared:
            assert graph.arrays.out_eids is drawn[0].arrays.out_eids
            assert graph.arrays.surv.tolist() == (1.0 - graph.leakage).tolist()


def _grid_jobs(preset, horizon, count):
    jobs = scenarios.batch_jobs(preset, full_scale=True, horizon=horizon, monitors=True)
    return [job for job in jobs if job[2] == "grid"][:count]


def _row_fields(row):
    fields = dict(vars(row))
    del fields["runtime_s"]
    return fields


@pytest.mark.parametrize(
    "preset, horizon", [("appendixC-increasing", None), ("appendixC-leakage", 300)]
)
def test_cached_grid_rows_equal_fresh_ones(preset, horizon):
    """Monitored grid-family rows from the cached graph equal, in every field
    but the run time, the rows of graphs built afresh for each instance."""
    jobs = _grid_jobs(preset, horizon, 3)
    cached = [scenarios._instance(job) for job in jobs]
    fresh = []
    for job in jobs:
        scenarios._grid.cache_clear()
        fresh.append(scenarios._instance(job))
    assert [_row_fields(r) for r in cached] == [_row_fields(r) for r in fresh]
    assert all(r.invariant_violations == 0 and r.failure is None for r in cached)


def test_cached_planted_grid_is_unchanged_by_a_batch():
    """After a monitored batch the cached planted grid still holds the bytes
    of a fresh one, and its edge and leakage arrays are still read-only."""
    run_batch("appendixC-increasing", instances=3, monitors=True)
    cached, oracle = scenarios._grid(scenarios.gen_grid, 10, 10).planted
    fresh, fresh_oracle = plant_path(gen_grid(10, 10), 9)
    assert oracle == fresh_oracle
    for name in ("tails", "heads", "leakage"):
        arr = getattr(cached, name)
        assert arr.tobytes() == getattr(fresh, name).tobytes(), name
        assert not arr.flags.writeable, name
    ga, ref = cached.arrays, fresh.arrays
    for name in (
        "out_deg", "in_deg", "surv", "pair_surv", "out_eids", "out_ptr", "in_eids", "in_ptr",
        "tail_bins", "head_bins", "with_out", "no_out", "no_in",
    ):
        assert getattr(ga, name).tobytes() == getattr(ref, name).tobytes(), name
    for got, want in zip(ga.pair[:4], ref.pair[:4]):
        assert got.tobytes() == want.tobytes()


def test_replaced_grid_generator_builds_its_own_graph(monkeypatch):
    """The grid cache is keyed by the generator too: a replaced ``gen_grid``
    is called and served its own graph, not the one cached for another."""
    original = scenarios._connected_graph("grid", GRID10, 0, 0)
    calls = []
    monkeypatch.setattr(
        scenarios, "gen_grid", lambda rows, cols: calls.append((rows, cols)) or gen_grid(rows, cols)
    )
    replaced = scenarios._connected_graph("grid", GRID10, 0, 0)
    assert scenarios._connected_graph("grid", GRID10, 1, 0) is replaced
    assert calls == [(10, 10)]
    assert replaced is not original


def test_batch_workers_match_serial():
    serial = run_batch("appendixC-leakage", instances=4, base_seed=9)
    parallel = run_batch("appendixC-leakage", instances=4, base_seed=9, workers=2)
    assert [r.converged_path for r in serial.rows] == [
        r.converged_path for r in parallel.rows
    ]


# -- CLI -----------------------------------------------------------------------------


def write_config(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_run_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, A1_DOC)
    code = main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "converged to" in out
    assert (tmp_path / "out" / "summary.csv").exists()


def test_cli_run_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"seed": 1, "graph": {"kind": "gnp", "n": 6, "p": 0.5},
         "rule": {"kind": "power", "k": 2}},
    )
    assert main(["run", "--config", cfg]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    (tmp_path / "list.json").write_text("[1]")
    assert main(["run", "--config", str(tmp_path / "list.json"), "--seed", "3"]) == 2
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe")
    assert main(["run", "--config", str(tmp_path / "binary.json")]) == 2
    assert main(["run", "--config", str(tmp_path)]) == 2  # a directory


# configs the parser must reject with exit code 2 (not the violation code 1),
# each with the key or section its message names
BAD_CONFIGS = [
    ({"graph": {"kind": "gnp", "n": 6, "p": 2.0}}, "graph"),
    ({"graph": {"kind": "two_path", "m": 1, "n": 3}}, "graph"),
    ({"graph": TWO_PATH22, "rule": {"kind": "power"}}, "rule"),
    ({"graph": {"kind": "gnp", "p": 0.5}}, "graph.n"),
    ({"graph": GRID33, "leakage": {"kind": "explicit", "values": {"4": 2.0}}}, "leakage.values"),
    ({"graph": GRID33, "leakage": {"kind": "explicit", "values": {"9": 0.5}}}, "leakage.values"),
    ({"graph": GRID33, "plant": {"length": 10}}, "plant"),
    ({"graph": TWO_PATH22, "init": {"kind": "explicit", "values": [1, -1, 1, 1]}}, "init.values"),
]

# a config in which every optional key of every section can be set
ALL_SECTIONS = {
    "graph": GRID33,
    "leakage": {"kind": "uniform"},
    "schedule": {"kind": "linear", "alpha": 0.5},
    "init": {"kind": "uniform"},
    "outputs": {},
}


def with_value(path, value, doc=ALL_SECTIONS):
    """A copy of ``doc`` with ``value`` at the dotted ``path``."""
    doc = json.loads(json.dumps(doc))
    *sections, key = path.split(".")
    target = doc
    for section in sections:
        target = target[section]
    target[key] = value
    return doc


# every optional scalar with a value of the wrong type or out of range; each
# must be rejected under its own section.key
BAD_SCALARS = [
    ("name", 5),
    ("seed", "x"), ("seed", 1.7), ("seed", True), ("seed", -1),
    ("steps", 1.5), ("steps", "3"), ("steps", 0),
    ("epsilon", "abc"), ("epsilon", 0),
    ("delta", "q"), ("delta", 0),
    ("rescale", "maybe"),
    ("underflow_threshold", "x"), ("underflow_threshold", -1.0),
    ("monitors", "invariants"),
    ("leakage.low", "a"), ("leakage.high", [1]),
    ("schedule.f0", "1"), ("schedule.f0", 0), ("schedule.b0", -1), ("schedule.alpha", "z"),
    ("init.low", -1), ("init.high", "1"),
    ("outputs.dir", 5), ("outputs.csv", "no"), ("outputs.json", 1), ("outputs.dot", None),
    ("outputs.snapshot_interval", "q"), ("outputs.snapshot_interval", 0),
]
BAD_CONFIGS += [(with_value(path, value), path) for path, value in BAD_SCALARS]
BAD_CONFIGS += [
    ({"graph": {"kind": "two_path", "m": 2.9, "n": 3}}, "graph.m"),
    ({"graph": {"kind": "two_path", "m": 2, "n": 3, "leak_top": "0"}}, "graph.leak_top"),
    ({"graph": {"kind": "banded_gnp", "n": 9, "p": 0.5, "k": "2"}}, "graph.k"),
    ({"graph": GRID33, "plant": {"length": 2.5}}, "plant.length"),
    ({"graph": GRID33, "leakage": {"kind": "zero", "low": 0.1}}, "leakage.low"),
    ({"graph": GRID33, "schedule": {"kind": "constant", "alpha": 2}}, "schedule.alpha"),
    ({"graph": GRID33, "schedule": {"kind": "exponential"}}, "schedule.alpha"),
    ({"graph": GRID33, "init": {"kind": "constant", "value": "1"}}, "init.value"),
    ({"graph": GRID33, "init": {"kind": "explicit", "values": "1"}}, "init.values"),
    ({"graph": GRID33, "rule": "linear"}, "rule"),
    ({"graph": GRID33, "monitors": ["invariants", 1]}, "monitors"),
    # a uniform draw needs low <= high
    ({"graph": GRID33, "init": {"kind": "uniform", "low": 2, "high": 1}}, "init.high"),
    ({"graph": GRID33, "leakage": {"kind": "uniform", "low": 0.5, "high": 0.25}}, "leakage.high"),
]


@pytest.mark.parametrize("doc,section", BAD_CONFIGS)
def test_cli_run_bad_config_exits_2_and_names_section(tmp_path, capsys, doc, section):
    cfg = write_config(tmp_path, dict({"seed": 1, "steps": 50}, **doc))
    assert main(["run", "--config", cfg]) == 2
    assert f"config error: {section}" in capsys.readouterr().err


def exit_status(argv):
    """``main(argv)``, or the status of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


POWER2 = '{"kind":"power","k":2}'

# command lines that must exit 2 naming the flag or the violated bound
BAD_ARGS = [
    (["counterexample", "--kind", "flow", "--rule", POWER2, "--mu", "1.001"], "mu=1.001"),
    (["counterexample", "--kind", "leakage", "--rule", POWER2, "--fs", "-1"], "--fs"),
    (["counterexample", "--kind", "flow", "--rule", POWER2, "--m", "3", "--n", "3"], "m < n"),
    (["counterexample", "--kind", "leakage", "--rule", POWER2, "--steps", "0"], "--steps"),
    (["counterexample", "--kind", "leakage", "--rule", POWER2, "--m", "1"], "--m"),
    (["swap-demo", "--m", "1"], "--m"),
    (["swap-demo", "--n", "x"], "--n"),
    (["swap-demo", "--steps", "0"], "--steps"),
    (["swap-demo", "--p-top", "-1"], "--p-top"),
    (["swap-demo", "--seeds", "-1"], "--seeds"),
    (["batch", "--preset", "appendixC-leakage", "--epsilon", "0"], "--epsilon"),
    (["batch", "--preset", "appendixC-leakage", "--instances", "0"], "--instances"),
    (["batch", "--config", "scenario.json", "--full-scale"], "--full-scale"),
    (["batch", "--config", "scenario.json", "--monitors"], "--monitors"),
    (["batch", "--config", "scenario.json", "--workers", "2"], "--workers"),
    (["analyze-rule", "--rule", "[1]"], "rule must be an object"),
    (["analyze-rule", "--rule", POWER2, "--grid", "0"], "--grid"),
    (["analyze-rule", "--rule", '{"kind":"power","k":2000}'], "too large"),
]


@pytest.mark.parametrize("argv,fragment", BAD_ARGS)
def test_cli_bad_arguments_exit_2_and_name_flag(capsys, argv, fragment):
    assert exit_status(argv) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and fragment in err


def test_cli_analyze_rule_missing_parameter_exits_2(capsys):
    assert main(["analyze-rule", "--rule", '{"kind":"power"}']) == 2
    assert "missing parameter 'k'" in capsys.readouterr().err


# rule parameters read strictly: (rule, the key its error names)
BAD_RULES = [
    ({"kind": "power", "k": True}, "k"),
    ({"kind": "power", "k": "2"}, "k"),
    ({"kind": "power", "k": 2, "zz": 1}, "zz"),
]


@pytest.mark.parametrize("rule,key", BAD_RULES)
def test_cli_analyze_rule_strict_parameters_exit_2(capsys, rule, key):
    assert main(["analyze-rule", "--rule", json.dumps(rule)]) == 2
    assert f"config error: power rule: {key}:" in capsys.readouterr().err


@pytest.mark.parametrize("rule,key", BAD_RULES)
def test_cli_run_strict_rule_section_exits_2(tmp_path, capsys, rule, key):
    cfg = write_config(tmp_path, {"seed": 1, "steps": 50, "graph": TWO_PATH22, "rule": rule})
    assert main(["run", "--config", cfg]) == 2
    assert f"config error: rule: power rule: {key}:" in capsys.readouterr().err
    with pytest.raises(ScenarioError, match=f"rule: power rule: {key}:"):
        parse_scenario({"seed": 1, "graph": TWO_PATH22, "rule": rule})


def test_parse_linear_rule_rejects_parameters():
    with pytest.raises(ScenarioError, match="rule: linear rule: k: unknown key"):
        parse_scenario({"seed": 1, "graph": GRID33, "rule": {"kind": "linear", "k": 2}})


def test_cli_unusable_output_path_exits_2(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    cfg = write_config(tmp_path, {"seed": 1, "steps": 50, "graph": TWO_PATH22})
    assert main(["run", "--config", cfg, "--out-dir", str(afile)]) == 2
    assert "config error: --out-dir:" in capsys.readouterr().err
    cfg = write_config(
        tmp_path, {"seed": 1, "steps": 50, "graph": TWO_PATH22, "outputs": {"dir": str(afile)}}
    )
    assert main(["run", "--config", cfg]) == 2
    assert "config error: outputs.dir:" in capsys.readouterr().err
    assert main(["analyze-rule", "--rule", '{"kind":"power","k":2}', "--out", str(tmp_path)]) == 2
    assert "config error: --out:" in capsys.readouterr().err
    argv = ["batch", "--preset", "appendixC-leakage", "--instances", "1", "--out-dir", str(afile)]
    assert main(argv) == 2
    assert "config error: --out-dir:" in capsys.readouterr().err


def test_cli_counterexample_unusable_out_dir_exits_2_before_running(tmp_path, capsys, monkeypatch):
    afile = tmp_path / "afile"
    afile.write_text("")

    def no_run(*args, **kwargs):
        raise AssertionError("the counterexample ran before the --out-dir check")

    monkeypatch.setattr("trailflow.cli.run_counterexample", no_run)
    monkeypatch.setattr("trailflow.cli.run_positive_control", no_run)
    argv = ["counterexample", "--kind", "leakage", "--rule", '{"kind":"power","k":2}']
    assert main([*argv, "--out-dir", str(afile)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error: --out-dir:" in err


def test_cli_batch_config_passes_epsilon(tmp_path):
    cfg = write_config(tmp_path, A1_DOC)
    out = tmp_path / "out"
    args = ["--config", cfg, "--seed", "7", "--epsilon", "0.3", "--out-dir"]
    assert main(["batch", *args, str(out / "batch"), "--instances", "1"]) == 0
    assert main(["run", *args, str(out / "run")]) == 0
    batch = json.load(open(out / "batch" / "instance_0000" / "final_state.json"))
    single = json.load(open(out / "run" / "final_state.json"))
    assert batch["converged_t"] == single["converged_t"]
    assert json.load(open(out / "run" / "scenario.json"))["epsilon"] == 0.3


def test_cli_run_override_seed(tmp_path):
    cfg = write_config(tmp_path, dict(A1_DOC, seed=1))
    assert main(["run", "--config", cfg, "--seed", "9", "--steps", "50"]) == 0


def test_cli_batch_preset(capsys):
    assert main(["batch", "--preset", "appendixC-leakage", "--instances", "2"]) == 0
    assert "match rate 1.000" in capsys.readouterr().out


def test_cli_batch_preset_exits_1_on_invariant_violations(tmp_path, monkeypatch, capsys):
    """Rows that match their oracle but record invariant violations make the
    batch exit 1, with one stderr line per such row, and ``batch.json``
    lists every row's count; a tolerance of 1e-16 makes the engine's
    rounding register as violations."""
    args = ["batch", "--preset", "appendixC-increasing", "--instances", "3", "--monitors"]
    args += ["--out-dir", str(tmp_path)]
    assert main(args) == 0
    assert "invariant violations" not in capsys.readouterr().err
    assert json.load(open(tmp_path / "batch.json"))["invariant_violations"] == [0, 0, 0]

    def tight(graph, cfg, schedule):
        return InvariantObserver(graph, cfg, schedule, rel_tol=1e-16)

    monkeypatch.setattr(scenarios, "InvariantObserver", tight)
    rows = run_batch("appendixC-increasing", instances=3, monitors=True).rows
    assert all(row.match for row in rows)
    assert any(row.invariant_violations for row in rows)
    assert main(args) == 1
    captured = capsys.readouterr()
    assert "match rate 1.000" in captured.out
    want = [
        f"  invariant violations #{row.index} ({row.family}): {row.invariant_violations}"
        for row in rows
        if row.invariant_violations
    ]
    assert captured.err.splitlines() == want
    counts = json.load(open(tmp_path / "batch.json"))["invariant_violations"]
    assert counts == [row.invariant_violations for row in rows]


def test_cli_batch_scenario_file(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(A1_DOC, steps=2000))
    code = main(["batch", "--config", cfg, "--instances", "2", "--seed", "40"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("instance") == 2


def test_cli_batch_scenario_file_aborts_exit_3(tmp_path, capsys):
    """Every re-seeded instance of the overflowing scenario aborts: each is
    listed as aborted and the batch exits 3, raising no RuntimeWarning."""
    cfg = write_config(tmp_path, OVERFLOW_DOC)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["batch", "--config", cfg, "--instances", "2"]) == 3
    assert capsys.readouterr().out == "instance 0: aborted\ninstance 1: aborted\n"


def test_cli_analyze_rule(capsys):
    assert main(["analyze-rule", "--rule", '{"kind":"power","k":2}']) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fixed_points"] == [0.0, 0.5]
    assert doc["stable_points"] == [0.0]


def test_cli_analyze_rule_outside_the_family_exits_1(capsys, tmp_path):
    """A rule that fails validation is a failed verification: exit 1, with
    the report printed and written as for a valid rule."""
    out = tmp_path / "report.json"
    rule = '{"kind":"sine","a":0.2}'
    assert main(["analyze-rule", "--rule", rule, "--out", str(out)]) == 1
    text, err = capsys.readouterr()
    doc = json.loads(text)
    assert doc["rule"] == "sine(0.2)" and doc["valid"] is False
    assert doc["violations"] == ["g(0.157593)=0.341051 > g(0.157715)=0.341051"]
    assert json.loads(out.read_text()) == doc and err == ""


def test_cli_counterexample(capsys):
    code = main(
        ["counterexample", "--rule", '{"kind":"power","k":2}', "--kind", "leakage",
         "--r", "0.25", "--eps", "0.1", "--steps", "1000", "--control-steps", "20000"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["invariant_held"] is True
    assert doc["positive_control_converged"] == "0>1>4"


def test_cli_counterexample_out_dir_holds_the_printed_report(tmp_path, capsys):
    """``--out-dir`` gets the report as printed; 16 control steps are too few
    for the linear rule to converge, so the verification fails (exit 1)."""
    out_dir = tmp_path / "cx"
    argv = ["counterexample", "--kind", "leakage", "--rule", '{"kind":"power","k":2}',
            "--steps", "300", "--control-steps", "16", "--out-dir", str(out_dir)]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert out == (out_dir / "counterexample.json").read_text() + "\n"
    doc = json.loads(out)
    assert doc["invariant_held"] is True and doc["positive_control_converged"] is None


def test_cli_leakage_counterexample_below_the_flush_floor_exits_2(capsys):
    """f_s = b_d = 1e-300 put the leakage kind's flow bounds below the floor
    under which the checks cannot tell them from a flush: a config error,
    raised before any run, as for the flow kind's f0."""
    argv = ["counterexample", "--kind", "leakage", "--rule", '{"kind":"power","k":2}',
            "--fs", "1e-300", "--bd", "1e-300", "--steps", "300", "--control-steps", "16"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error:" in err and "below the floor 1e-294" in err


def test_cli_counterexample_engine_abort_exits_3(capsys):
    """At mu = 10 the flows overflow and the run aborts at t = 308: exit 3
    with the abort on stderr, as for ``run``, and the report still printed;
    the overflow raises no RuntimeWarning on the way."""
    argv = ["counterexample", "--kind", "flow", "--rule", '{"kind":"power","k":2}',
            "--mu", "10", "--steps", "1000", "--control-steps", "16"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 3
    out, err = capsys.readouterr()
    assert set(json.loads(out)) == COUNTEREXAMPLE_KEYS
    assert err == "engine abort at t=308: non-finite total (overflow)\n"


@pytest.mark.parametrize("extra", [
    ["--eps", "0.05"],
    ["--r", "0.25", "--eps", "-0.1"],
    ["--r", "0.25", "--eps", "0"],
])
def test_cli_counterexample_bad_eps_exits_2(extra, capsys):
    argv = ["counterexample", "--kind", "leakage", "--rule", '{"kind":"power","k":2}', *extra]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error:" in err and "eps" in err


COUNTEREXAMPLE_KEYS = {
    "rule", "kind", "r", "eps", "c_eps", "c_g", "case", "constraint", "horizon",
    "invariant_held", "flow_bounds_held", "first_flow_violation", "first_violation_t",
    "target_convergence_at", "positive_control_converged",
}


@pytest.mark.parametrize("kind", ["leakage", "flow"])
def test_cli_counterexample_kinds(kind, capsys):
    code = main(
        ["counterexample", "--rule", '{"kind":"power","k":2}', "--kind", kind, "--steps", "2000"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == COUNTEREXAMPLE_KEYS
    assert doc["kind"] == kind and doc["horizon"] == 2000
    assert doc["invariant_held"] is True and doc["flow_bounds_held"] is True
    assert doc["first_violation_t"] is None and doc["first_flow_violation"] is None
    assert doc["target_convergence_at"] is None
    assert doc["positive_control_converged"] == "0>1>4"


def test_cli_counterexample_flow_bound_violations_exit_1(capsys, monkeypatch):
    """The CLI derives ``flow_bounds_held`` from the report's violation
    count: a run that broke edge-flow bounds but held its level bound
    (stubbed) prints false and exits 1, although the linear control
    converges."""

    def broken(cx, T, **kwargs):
        report, trace, levels = adversarial.run_counterexample(cx, T, **kwargs)
        return dataclasses.replace(report, ok=False, flow_bound_violations=3), trace, levels

    monkeypatch.setattr("trailflow.cli.run_counterexample", broken)
    argv = ["counterexample", "--rule", '{"kind":"power","k":2}', "--kind", "leakage",
            "--steps", "300"]
    assert main(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["flow_bounds_held"] is False and doc["invariant_held"] is False
    assert doc["first_violation_t"] is None
    assert doc["positive_control_converged"] == "0>1>4"


def test_cli_counterexample_reports_what_broke(capsys):
    """Power 1.002 is close enough to linear that its flow counterexample
    breaks its level bound at t = 4 and its edge-flow bounds too: the
    report names the first broken flow bound, and the run never converged
    to the shortest path."""
    argv = ["counterexample", "--kind", "flow", "--rule", '{"kind":"power","k":1.002}',
            "--steps", "2000", "--control-steps", "16"]
    assert main(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == COUNTEREXAMPLE_KEYS
    assert doc["invariant_held"] is False and doc["flow_bounds_held"] is False
    assert doc["first_violation_t"] == 4 and doc["target_convergence_at"] is None
    first = doc["first_flow_violation"]
    assert set(first) == {"t", "edge", "direction", "value", "bound"}
    assert first["direction"] in ("forward", "backward")
    assert first["value"] > first["bound"] > 0.0


def test_cli_swap_demo(capsys):
    assert main(["swap-demo", "--seeds", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["flip_rate"] == 1.0


@pytest.mark.parametrize(
    "argv, want",
    [
        ([], {"base_branch": "top", "swapped_branch": "bottom", "flipped": True, "degenerate": False}),
        (
            ["--p-top", "1", "--p-bottom", "1"],
            {"base_branch": None, "swapped_branch": None, "flipped": False, "degenerate": True},
        ),
    ],
    ids=["flips", "degenerate"],
)
def test_cli_swap_demo_single_pair(argv, want, capsys):
    """Without ``--seeds`` the demo runs the one pheromone pair and its swap;
    a flip and a tie (nothing to swap) both exit 0."""
    assert main(["swap-demo", *argv]) == 0
    assert json.loads(capsys.readouterr().out) == {"mode": "single", **want}


def test_cli_swap_demo_level_drift_is_no_flip(monkeypatch, capsys):
    """The run checks the predicted branch: a source level that drifts by
    1e-9 from its t = 0 value, though it stays on its side of 1/2, breaks
    the linear rule's invariant, so the pair does not flip and the demo
    exits 1."""
    real_run = adversarial.run

    def drifting(*args, observers=(), **kwargs):
        trace = real_run(*args, observers=observers, **kwargs)
        for obs in observers:
            assert len(obs.norm_s) > 1
            obs.norm_s[1:] = [x + 1e-9 for x in obs.norm_s[1:]]
        return trace

    monkeypatch.setattr(adversarial, "run", drifting)
    assert main(["swap-demo"]) == 1
    want = {"base_branch": "top", "swapped_branch": "bottom", "flipped": False, "degenerate": False}
    assert json.loads(capsys.readouterr().out) == {"mode": "single", **want}
