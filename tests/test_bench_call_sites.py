"""The benchmark's call sites exist: every (owner, attribute) that
``perfbench/tracing.py`` patches is defined in the owner's own namespace.
A renamed or removed name then fails here, by name, instead of with a
``KeyError`` in ``Probe.__enter__`` when the benchmark runs. Some names are
kept only for the benchmark, such as the ``step`` that ``equilibria``
imports."""

import importlib.util
from pathlib import Path

import pytest

import trailflow
import trailflow.adversarial
import trailflow.analysis
import trailflow.dynamics
import trailflow.equilibria
import trailflow.graph
import trailflow.scenarios

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _patch_table():
    # loaded from its file: ``perfbench`` is not a package, and its
    # directory holds a module named ``run``
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing._patch_table(trailflow)


SITES = [(owner, attr) for owner, attr, _layer, _tally in _patch_table()]


@pytest.mark.parametrize("owner, attr", SITES, ids=[f"{o.__name__}.{a}" for o, a in SITES])
def test_patched_call_site_is_in_its_owner(owner, attr):
    assert attr in owner.__dict__, f"{owner.__name__} has no {attr} of its own"
