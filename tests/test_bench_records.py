"""Every committed benchmark record (``BENCH_*.json`` at the repository
root) parses and carries the keys a perf change's record must have: what
changed, the machine, the parent commit, the harness, the claim and the
per-workload results."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: p.name)
REQUIRED = ("change", "machine", "parent", "harness", "claim", "workloads")


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_has_required_keys(path):
    doc = json.loads(path.read_text())
    assert isinstance(doc, dict)
    missing = [key for key in REQUIRED if key not in doc]
    assert not missing, f"{path.name} lacks {missing}"
