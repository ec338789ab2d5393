"""Settings that no caller changes are constants of the code, not
parameters, and no public accessor repeats another one: a lookup of one
edge is ``DirectedGraph.edge_ids`` of one pair, a branch point's edge is
``TwoPathGraph.branch_eids``, a rule's config form is
``dict(rule.config)``, a branch's leakage is
``path_leakage(tp.graph, tp.top)`` (its survival one minus that), the
out-edge sums are ``GraphArrays.tail_sums``, a rule's fixed points are
``stable_fixed_points(rule).fixed_points`` (``.identically_fixed`` when g
is the identity at grid resolution), the closed-form equilibrium is
``equilibrium_state``, the linear rule's edge shares are
``normalized_levels``, a branch observer's levels are the lists its calls
append to, a rule is called as ``rule.fn``, the ratio potential is pushed
by ``PotentialObserver`` calls, and a rule linear at grid resolution
raises a plain ``RuleError``. A report holds no field that repeats another
or echoes an input: the CLI derives ``flow_bounds_held`` from
``flow_bound_violations``, and a ``TheoremConstants`` does not repeat the
survivals it was built from."""

import dataclasses
import inspect

import pytest

from trailflow import adversarial, analysis, dynamics, equilibria, graph, rules

FIXED_SETTINGS = [
    (adversarial.verify_nonconvergence, "slack"),
    (adversarial.FlowBoundObserver, "slack"),
    (analysis.PheromoneBoundObserver, "slack"),
    (analysis.sweep_potential_growth, "slack"),
    (analysis.sweep_potential_monotone, "rel_tol"),
    (analysis.sweep_potential_monotone, "t_min"),
    (adversarial.run_counterexample, "check_every"),
    (adversarial.run_counterexample, "epsilon"),
    (adversarial.run_positive_control, "epsilon"),
    (adversarial.unidirectional_swap_demo, "f0"),
    (adversarial.unidirectional_swap_demo, "delta"),
    (adversarial.unidirectional_swap_demo, "other_pheromone"),
    (adversarial.unidirectional_swap_demo, "epsilon"),
    (adversarial.swap_demo_batch, "delta"),
    (adversarial.swap_demo_batch, "rule"),
    (adversarial.TargetConvergenceWatcher, "every"),
    (adversarial.TargetConvergenceWatcher, "epsilon"),
    (equilibria.stability_experiment, "f_s"),
    (equilibria.stability_experiment, "b_d"),
    (equilibria.stability_experiment, "delta"),
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
    (rules, "FixedPointScan"),
    (rules, "fixed_points"),
    (equilibria, "EquilibriumSpec"),
    (dynamics, "split_fraction"),
    (analysis.BranchLevelObserver, "levels"),
    (analysis, "update_potential"),
    (rules, "RuleLinearAtResolution"),
    # an instance: ``hasattr`` finds ``type.__call__`` on every class
    (rules.linear_rule(), "__call__"),
]


def _label(owner) -> str:
    """A class's qualified name, a module's name, or an instance's class's."""
    return getattr(owner, "__qualname__", None) or getattr(
        owner, "__name__", type(owner).__qualname__
    )


@pytest.mark.parametrize(
    "owner, name", FIXED_SETTINGS, ids=[f"{o.__qualname__}.{n}" for o, n in FIXED_SETTINGS]
)
def test_fixed_setting_is_no_parameter(owner, name):
    assert name not in inspect.signature(owner).parameters


@pytest.mark.parametrize(
    "owner, name", REPEATED_ACCESSORS, ids=[f"{_label(o)}.{n}" for o, n in REPEATED_ACCESSORS]
)
def test_repeated_accessor_is_gone(owner, name):
    assert not hasattr(owner, name)


# ``hasattr`` is false on a dataclass for any field without a default, so
# the fields themselves are listed
REMOVED_FIELDS = [
    (adversarial.NonconvergenceReport, "flow_bounds_ok"),
    (analysis.TheoremConstants, "alpha_surv"),
    (analysis.TheoremConstants, "beta_surv"),
]


@pytest.mark.parametrize(
    "owner, name", REMOVED_FIELDS, ids=[f"{o.__qualname__}.{n}" for o, n in REMOVED_FIELDS]
)
def test_removed_report_field_is_gone(owner, name):
    assert name not in {f.name for f in dataclasses.fields(owner)}
