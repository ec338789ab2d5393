import ast
import contextlib
import io
import json
import re
from pathlib import Path

import trailflow
from trailflow.scenarios import parse_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1, "README should hold one Python example"
    return blocks[0]


def test_readme_example_runs_and_uses_the_package_exports():
    code = _python_block()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "trailflow"
        for alias in node.names
    }
    assert sorted(imported) == sorted(trailflow.__all__)
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    trace, tp = namespace["trace"], namespace["tp"]
    assert trace.converged_path == tp.top
    assert out.getvalue().split()[0] == "0>1>4"


# ``serialize()`` of the README's scenario config, pinned byte for byte
README_SCENARIO_SERIALIZED = {
    "delta": 0.5,
    "epsilon": 0.01,
    "graph": {
        "kind": "two_path", "leak_bottom": [0.025, 0.025], "leak_top": [0.03], "m": 2, "n": 3,
    },
    "init": {"kind": "constant", "value": 1.0},
    "leakage": {"kind": "zero"},
    "monitors": ["invariants", "pheromone_bound", "potential"],
    "name": "min-leakage",
    "outputs": {"csv": True, "dir": None, "dot": True, "json": True, "snapshot_interval": 100},
    "plant": None,
    "rescale": "off",
    "rule": {"kind": "linear"},
    "schedule": {"b0": 1.0, "f0": 1.0, "kind": "constant"},
    "seed": 7,
    "steps": 100000,
    "underflow_threshold": 1e-300,
}


def test_readme_scenario_config_serializes_as_before():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1, "README should hold one scenario config"
    s = parse_scenario(blocks[0])
    assert s.serialize() == json.dumps(README_SCENARIO_SERIALIZED, sort_keys=True, indent=2)


def test_readme_performance_table_names_exactly_the_committed_records():
    """The Performance table has one row per committed ``BENCH_*.json``,
    named in its first column, and the README names no other record."""
    text = README.read_text()
    committed = sorted(p.stem for p in README.parent.glob("BENCH_*.json"))
    section = text.split("\n## Performance\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(BENCH_\d+)` \|", section, re.MULTILINE)
    assert sorted(rows) == committed
    named = set(re.findall(r"\bBENCH_\d+\b", text))
    assert named <= set(committed), f"README names missing records {named - set(committed)}"
