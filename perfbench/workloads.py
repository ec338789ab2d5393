"""The benchmark's workloads.

Every workload derives all of its inputs from the workload seed and calls
trailflow only through public functions, looked up on the module at call
time so that the probe's wrappers see the call. A workload object is built
once per set-up and offers:

* ``warm_up()``: untimed work that finishes lazy set-up before timing;
* ``prepare(k)``: the inputs of op ``k``, returned as a zero-argument call
  that runs the op (only that call is timed);
* ``check(result)``: ``None`` when the op's output is correct, else the
  reason it failed;
* ``outcome(result)``: what the op converged to, for the fingerprint digest;
* ``finish()``: untimed end-of-run checks (``end_checks`` of them, each
  counted as one attempted operation), as a list of failure reasons;
* ``host_mix``: how the ops' cost splits between per-call dispatch and
  large-array kernels, which weighs the two parts of the host-speed
  reference (``hostspeed.py``) that normalizes their timings.

Ops ``0..k`` of a fresh workload object repeat those of another built from
the same seed exactly; the traced copy of a traced run relies on this.
"""

from __future__ import annotations


def _rng(seed: int, stream: int, *extra: int):
    # numpy comes in with trailflow, whose import ``setup_s`` times, so it is
    # not imported before it
    import numpy as np

    return np.random.default_rng([seed, stream, *extra])


def _instance_seed(seed: int, stream: int, k: int) -> int:
    return int(_rng(seed, stream, k).integers(0, 2**62))


class _BatchInstances:
    """One op is one protocol instance, ``run_batch(preset, instances=1)``
    with a base seed drawn from the workload seed."""

    preset = ""
    stream = 0
    monitors = False
    warm_up_horizon = None
    end_checks = 0
    host_mix = (1.0, 0.0)  # steps on 100 vertices: per-call overhead

    def __init__(self, tf, probe, seed: int) -> None:
        self.tf = tf
        self.seed = seed

    def _batch(self, base_seed: int, horizon=None):
        return self.tf.scenarios.run_batch(
            self.preset, instances=1, base_seed=base_seed, monitors=self.monitors, horizon=horizon
        )

    def warm_up(self) -> None:
        self._batch(_instance_seed(self.seed, self.stream + 1, 0), self.warm_up_horizon)

    def prepare(self, k: int):
        base_seed = _instance_seed(self.seed, self.stream, k)
        return lambda: self._batch(base_seed)

    def check(self, result):
        row = result.rows[0]
        if row.failure:
            return f"aborted: {row.failure}"
        if not row.converged:
            return "did not converge within the horizon"
        if not row.match:
            return f"converged to {row.converged_path}, oracle {row.oracle_path}"
        if row.invariant_violations:
            return f"{row.invariant_violations} invariant violations"
        return None

    def outcome(self, result):
        row = result.rows[0]
        return (row.converged_path, row.steps)

    def finish(self):
        return []


class DeskLeakage(_BatchInstances):
    """Desk-scale fixed-flow leakage protocol: G(100, .05), linear rule,
    uniform leakage, epsilon 0.01. Fails when the instance does not converge,
    aborts, or picks a path other than ``min_leakage_path``."""

    name = "desk-leakage"
    preset = "appendixC-leakage"
    stream = 10
    # instance cost is heavy-tailed (a few need the whole 1e5-step horizon),
    # so the warm-up instance is cut short to keep set-up time comparable
    warm_up_horizon = 64


class IncreasingMonitored(_BatchInstances):
    """Desk-scale growing-injection protocol on a planted 10x10 grid: 1.1x
    exponential growth with rescaling and underflow flush, and the invariant
    observer on every step. Fails on a mismatch with the planted oracle, an
    invariant violation or an abort."""

    name = "increasing-monitored"
    preset = "appendixC-increasing"
    stream = 20
    monitors = True


class LargeGnp:
    """One seeded, connected G(1000, .1) (about 99.9k edges) with uniform
    leakage and a constant schedule, built in set-up. One op is
    ``run(state, T=16)`` with convergence detection on, so each op makes one
    convergence check; each op continues from the previous op's final state,
    and every ``ops_per_chain`` ops the chain restarts from the set-up state.

    The restart and the fixed decay keep the cost of op ``k`` independent of
    how many ops a run manages: once most pheromone has flushed to zero
    (from about 2.5k steps on at delta 0.5), a step costs up to twice as
    much, so an unbounded chain would make a faster run do costlier ops."""

    name = "large-gnp"
    n = 1000
    p = 0.1
    delta = 0.5
    steps_per_op = 16
    ops_per_chain = 50
    resample_cap = 1000
    end_checks = 1
    host_mix = (0.0, 1.0)  # a step is numpy over 100k edges

    def __init__(self, tf, probe, seed: int) -> None:
        self.tf = tf
        rng = _rng(seed, 30)
        for _ in range(self.resample_cap):
            graph = tf.graph.gen_gnp(self.n, self.p, int(rng.integers(0, 2**62)))
            if tf.graph.is_connected(graph):
                break
        else:
            raise RuntimeError(f"no connected G({self.n}, {self.p}) in {self.resample_cap} draws")
        self.graph = graph.with_leakage(rng.uniform(0.0, 1.0, graph.n_vertices))
        f0, b0 = rng.uniform(0.5, 1.0, 2)
        self.schedule = tf.dynamics.FlowSchedule.constant(float(f0), float(b0))
        self.cfg = tf.dynamics.EngineConfig(delta=self.delta, epsilon_convergence=0.01)
        self.rule = tf.rules.DecisionRule.linear()
        self.state0 = tf.dynamics.init_state(
            self.graph, rng.uniform(0.0, 1.0, self.graph.n_edges), self.schedule
        )
        self.state = self.state0

    def _run(self, state, steps, observers=()):
        return self.tf.dynamics.run(
            state, self.graph, self.rule, self.schedule, self.cfg, steps, observers
        )

    def warm_up(self) -> None:
        self._run(self.state0, self.steps_per_op)

    def prepare(self, k: int):
        if k % self.ops_per_chain == 0:
            self.state = self.state0

        def op():
            trace = self._run(self.state, self.steps_per_op)
            self.state = trace.final_state
            return trace

        return op

    def check(self, trace):
        if trace.failure:
            return f"aborted at t={trace.failure_t}: {trace.failure}"
        return None

    def outcome(self, trace):
        path = str(trace.converged_path) if trace.converged_path else ""
        return (path, trace.converged_t)

    def finish(self):
        """One extra step under the invariant observer."""
        obs = self.tf.analysis.InvariantObserver(self.graph, self.cfg, self.schedule)
        self._run(self.state, 1, [obs])
        return [f"invariant violation: {v}" for v in obs.violations]


class TwoPathRegimes:
    """The A4 stability experiments (power 2, power 0.5, sine 0.05, each
    from its stable fixed point perturbed by r_eps/4, T_max 2000) and
    unidirectional swap demos (linear rule, 2x3 two-path graph). One op is
    one round: the three experiments, then one swap pair. Fails when a
    stability run does not converge or does not hold, or when a swap pair is
    degenerate or does not flip.

    A round rather than a single experiment is one op: the rules'
    experiments differ in cost, so the median of single experiments sits
    where one rule's cluster meets the next, and a shift in host speed moves
    it from one cluster to the other (a quartile spread of 25% over ten 30 s
    runs, against 12% for ``ops_per_s``)."""

    name = "two-path-regimes"
    t_max = 2000
    eps_target = 1e-3
    end_checks = 0
    host_mix = (1.0, 0.0)  # steps on 4-5 edges: per-call overhead

    def __init__(self, tf, probe, seed: int) -> None:
        self.tf = tf
        self.seed = seed
        self.equilibrium_graph = tf.graph.build_two_path(2, 2, [0.0], [0.0])
        self.swap_graph = tf.graph.build_two_path(2, 3, [0.0], [0.0, 0.0])
        self.linear = tf.rules.DecisionRule.linear()
        self.experiments = []
        for rule in (tf.rules.power_rule(2), tf.rules.power_rule(0.5), tf.rules.sine_rule(0.05)):
            report = tf.rules.stable_fixed_points(rule)
            r = report.stable_points[0]
            counted = tf.rules.RuleFunction(
                rule.name, probe.wrap("rules.fn", rule.fn), rule.config, rule.validation_grid
            )
            self.experiments.append((counted, r, report.margins[r].r_eps / 4.0))

    def warm_up(self) -> None:
        self.prepare(0)()

    def prepare(self, k: int):
        rng = _rng(self.seed, 40, k)
        seeds = [int(x) for x in rng.integers(0, 2**31, len(self.experiments))]
        while True:
            p1, p2 = (float(x) for x in rng.uniform(0.1, 2.0, 2))
            if abs(p1 - p2) > 1e-6:
                break

        def op():
            reports = [
                self.tf.equilibria.stability_experiment(
                    rule, r, eps, self.eps_target, self.t_max, self.equilibrium_graph, seed=seed
                )
                for (rule, r, eps), seed in zip(self.experiments, seeds)
            ]
            reports.append(
                self.tf.adversarial.unidirectional_swap_demo(self.swap_graph, self.linear, p1, p2)
            )
            return reports

        return op

    def check(self, reports):
        reasons = []
        for rep in reports[:-1]:
            if rep.t_converged is None:
                reasons.append(f"{rep.rule}: no return within {self.eps_target} by T_max")
            elif not rep.held_until_Tmax:
                reasons.append(f"{rep.rule}: left the {self.eps_target} band after t={rep.t_converged}")
        swap = reports[-1]
        if swap.degenerate:
            reasons.append("degenerate swap pair")
        elif not swap.flipped:
            reasons.append(f"swap did not flip ({swap.base_branch} both times)")
        return "; ".join(reasons) or None

    def outcome(self, reports):
        swap = reports[-1]
        return tuple((rep.t_converged, rep.held_until_Tmax) for rep in reports[:-1]) + (
            (swap.base_branch, swap.swapped_branch),
        )

    def finish(self):
        return []


WORKLOADS = {w.name: w for w in (DeskLeakage, LargeGnp, TwoPathRegimes, IncreasingMonitored)}
