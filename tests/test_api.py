"""Settings that no caller changes are constants of the code, not
parameters, and no public accessor repeats another one: a lookup of one
edge is ``DirectedGraph.edge_ids`` of one pair, a branch point's edge is
``TwoPathGraph.branch_eids``, a rule's config form is
``dict(rule.config)``, a branch's leakage is
``path_leakage(tp.graph, tp.top)`` (its survival one minus that), the
out-edge sums are ``GraphArrays.tail_sums`` and a scan's fixed points are
``FixedPointScan.points``."""

import inspect

import pytest

from trailflow import adversarial, analysis, graph, rules

FIXED_SETTINGS = [
    (adversarial.verify_nonconvergence, "slack"),
    (adversarial.FlowBoundObserver, "slack"),
    (analysis.PheromoneBoundObserver, "slack"),
    (analysis.sweep_potential_growth, "slack"),
    (analysis.sweep_potential_monotone, "rel_tol"),
    (adversarial.run_counterexample, "check_every"),
    (adversarial.TargetConvergenceWatcher, "every"),
    (rules.stability_margin, "samples"),
    (adversarial.find_nonlinearity, "grid"),
    (graph.DirectedGraph.to_dot, "name"),
    (graph.DirectedGraph.to_dot, "max_penwidth"),
]

REPEATED_ACCESSORS = [
    (graph.DirectedGraph, "edge_id"),
    (graph.TwoPathGraph, "s_top_eid"),
    (graph.TwoPathGraph, "s_bottom_eid"),
    (graph.TwoPathGraph, "d_top_eid"),
    (graph.TwoPathGraph, "d_bottom_eid"),
    (rules.RuleFunction, "config_dict"),
    (graph.TwoPathGraph, "leak_top"),
    (graph.TwoPathGraph, "leak_bottom"),
    (graph.TwoPathGraph, "surv_top"),
    (graph.TwoPathGraph, "surv_bottom"),
    (graph.GraphArrays, "out_sums"),
    (rules.FixedPointScan, "__iter__"),
]


@pytest.mark.parametrize(
    "owner, name", FIXED_SETTINGS, ids=[f"{o.__qualname__}.{n}" for o, n in FIXED_SETTINGS]
)
def test_fixed_setting_is_no_parameter(owner, name):
    assert name not in inspect.signature(owner).parameters


@pytest.mark.parametrize(
    "owner, name", REPEATED_ACCESSORS, ids=[f"{o.__qualname__}.{n}" for o, n in REPEATED_ACCESSORS]
)
def test_repeated_accessor_is_gone(owner, name):
    assert not hasattr(owner, name)

