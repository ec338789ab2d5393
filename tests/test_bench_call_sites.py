"""The benchmark's call sites exist: every (owner, attribute) that
``perfbench/tracing.py`` patches is defined in the owner's own namespace.
A renamed or removed name then fails here, by name, instead of with a
``KeyError`` in ``Probe.__enter__`` when the benchmark runs.

Some names stay as they are only because the benchmark calls them so: the
``step`` that ``equilibria`` imports, for the harness to patch;
``unidirectional_swap_demo``'s ``rule``, which the ``two-path-regimes``
workload passes positionally, though the demo accepts only the linear rule;
the demo's two ``detect_convergence`` calls, the only convergence checks of
that workload, while ``perfbench/test_perfbench.py`` requires every listed
per-layer metric, ``analysis.check_us`` among them, on every workload; and
``RuleFunction.validation_grid``, which the workload passes when it wraps a
rule."""

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


def test_run_calls_dynamics_step_once_per_step(monkeypatch):
    """The benchmark counts ``run``'s steps at ``trailflow.dynamics.step``:
    ``run`` looks the name up on every step it takes, passes its prepared
    step through keyword arguments, and a wrapper that forwards them sees
    every step with the state it steps from."""
    from trailflow.dynamics import DecisionRule, EngineConfig, FlowSchedule, init_state, run, step
    from trailflow.graph import build_two_path

    seen = []

    def counted(*args, **kwargs):
        seen.append(args[0].t)
        return step(*args, **kwargs)

    monkeypatch.setattr(trailflow.dynamics, "step", counted)
    graph = build_two_path(2, 3, [0.0], [0.0, 0.0]).graph
    sched = FlowSchedule.exponential(1.0, 1.0, 1.1)  # growing: no stationary stop
    state = init_state(graph, 1.0, sched)
    trace = run(state, graph, DecisionRule.linear(), sched, EngineConfig(0.5), 40)
    assert trace.final_state.t == 40
    assert seen == list(range(40))
