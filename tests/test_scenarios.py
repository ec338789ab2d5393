import csv
import json
import os

import numpy as np
import pytest

from trailflow.cli import main
from trailflow.scenarios import (
    Scenario,
    ScenarioError,
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


def test_run_scenario_converged_chain_is_thickest(tmp_path):
    s = parse_scenario(A1_DOC)
    res = run_scenario(s, out_dir=str(tmp_path))
    st = res.trace.final_state
    weights = st.f_edge + st.b_edge
    top_eids = [res.graph.edge_id(u, v) for u, v in res.trace.converged_path.edge_pairs()]
    other = [e for e in range(res.graph.n_edges) if e not in top_eids]
    assert min(weights[e] for e in top_eids) > max(weights[e] for e in other)


def test_run_scenario_determinism():
    s = parse_scenario(A1_DOC)
    a = run_scenario(s)
    b = run_scenario(s)
    assert a.trace.converged_t == b.trace.converged_t
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
]


@pytest.mark.parametrize("argv,fragment", BAD_ARGS)
def test_cli_bad_arguments_exit_2_and_name_flag(capsys, argv, fragment):
    assert exit_status(argv) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and fragment in err


def test_cli_analyze_rule_missing_parameter_exits_2(capsys):
    assert main(["analyze-rule", "--rule", '{"kind":"power"}']) == 2
    assert "missing parameter 'k'" in capsys.readouterr().err


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


def test_cli_batch_scenario_file(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(A1_DOC, steps=2000))
    code = main(["batch", "--config", cfg, "--instances", "2", "--seed", "40"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("instance") == 2


def test_cli_analyze_rule(capsys):
    assert main(["analyze-rule", "--rule", '{"kind":"power","k":2}']) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fixed_points"] == [0.0, 0.5]
    assert doc["stable_points"] == [0.0]


def test_cli_counterexample(capsys):
    code = main(
        ["counterexample", "--rule", '{"kind":"power","k":2}', "--kind", "leakage",
         "--r", "0.25", "--eps", "0.1", "--steps", "1000", "--control-steps", "20000"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["invariant_held"] is True
    assert doc["positive_control_converged"] == "0>1>4"


COUNTEREXAMPLE_KEYS = {
    "rule", "kind", "r", "eps", "c_eps", "c_g", "case", "constraint", "horizon",
    "invariant_held", "flow_bounds_held", "first_violation_t", "positive_control_converged",
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
    assert doc["first_violation_t"] is None
    assert doc["positive_control_converged"] == "0>1>4"


def test_cli_swap_demo(capsys):
    assert main(["swap-demo", "--seeds", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["flip_rate"] == 1.0
