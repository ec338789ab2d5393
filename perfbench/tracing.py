"""Call counters and timing spans installed around trailflow's public
functions, from outside the package.

Each wrapper is installed at the name where the caller looks the function
up (``trailflow.dynamics.step`` for ``run``, ``trailflow.equilibria.step``
for ``stability_experiment``, ``trailflow.analysis.detect_convergence`` for
``run``'s lazy import, an observer class's ``__call__``, ...). Rule branch
functions are wrapped by building a ``RuleFunction`` around the wrapped
``fn`` (see ``Probe.wrap``).

A ``Probe`` works in one of two modes:

* ``"count"``: only the calls that define the exact-count fingerprint
  (``dynamics.step``, ``analysis.check``, ``rules.fn``) are counted; no
  clock is read. Timed runs use this mode.
* ``"trace"``: every patched call records a span (layer, start, end, parent
  span, op id) into typed arrays that stay in memory until the
  run ends, plus the counts and a few result-derived tallies.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter

# layers counted in "count" mode: those of the exact-count fingerprint
FINGERPRINT_COUNTS = ("dynamics.step", "analysis.check", "rules.fn")


def _patch_table(tf):
    """(owner, attribute, layer, tally) for every patched call site."""
    g, d, a = tf.graph, tf.dynamics, tf.analysis
    eq, adv, sc = tf.equilibria, tf.adversarial, tf.scenarios
    return [
        (g, "gen_gnp", "graph.gen", None),
        (g, "build_two_path", "graph.gen", None),
        (sc, "gen_gnp", "graph.gen", None),
        (sc, "gen_grid", "graph.gen", None),
        (g, "is_connected", "graph.connected", _tally_truthy("graph.connected_true")),
        (sc, "is_connected", "graph.connected", _tally_truthy("graph.connected_true")),
        (g, "shortest_path", "graph.oracle", None),  # plant_path's lookup
        (sc, "shortest_path", "graph.oracle", None),
        (sc, "count_shortest_paths", "graph.oracle", None),
        (sc, "min_leakage_path", "graph.oracle", None),
        (sc, "plant_path", "graph.plant", None),
        (d, "step", "dynamics.step", _tally_step),
        (eq, "step", "dynamics.step", _tally_step),
        (d, "run", "dynamics.run", None),
        (sc, "run", "dynamics.run", None),
        (adv, "run", "dynamics.run", None),
        (d, "init_state", "dynamics.init", None),  # also the swap demo's lazy import
        (sc, "init_state", "dynamics.init", None),
        (a, "detect_convergence", "analysis.check", _tally_truthy("analysis.check_hits")),
        (adv, "detect_convergence", "analysis.check", _tally_truthy("analysis.check_hits")),
        (a.InvariantObserver, "__call__", "analysis.invariant_obs", None),
        (eq, "stability_experiment", "equilibria.experiment", None),
        (adv, "unidirectional_swap_demo", "adversarial.swap", None),
        (adv.BranchLevelObserver, "__call__", "adversarial.level_obs", None),
        (sc, "run_batch", "scenarios.batch", None),
    ]


def _tally_truthy(key):
    def tally(counts, args, result):
        if result:
            counts[key] += 1

    return tally


def _tally_step(counts, args, result):
    prev = args[0]
    counts["dynamics.flushes"] += result.underflow_flushes - prev.underflow_flushes
    counts["dynamics.zero_splits"] += result.zero_split_events - prev.zero_split_events


class Probe:
    """Installs wrappers on trailflow, counts calls and (in trace mode)
    records spans. ``op`` is the id of the op in progress (-1 in set-up)."""

    def __init__(self, tf, mode: str) -> None:
        if mode not in ("count", "trace"):
            raise ValueError(f"unknown probe mode {mode!r}")
        self.tf = tf
        self.mode = mode
        self.op = -1
        self.counts: Counter = Counter()
        self.layers: list = []
        self._layer_ids: dict = {}
        self.span_layer = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self._stack = [-1]
        self._saved: list = []

    def __enter__(self) -> "Probe":
        for owner, attr, layer, tally in _patch_table(self.tf):
            if self.mode == "count" and layer not in FINGERPRINT_COUNTS:
                continue
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer, original, tally))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def wrap(self, layer: str, fn, tally=None):
        """``fn`` with this probe's counting (and, in trace mode, span
        recording) around it."""
        counts = self.counts
        if self.mode == "count":

            def counted(*args, **kwargs):
                counts[layer] += 1
                return fn(*args, **kwargs)

            return counted

        layer_id = self._layer_ids.setdefault(layer, len(self._layer_ids))
        if layer_id == len(self.layers):
            self.layers.append(layer)
        stack = self._stack
        s_layer, s_start, s_end = self.span_layer, self.span_start, self.span_end
        s_parent, s_op = self.span_parent, self.span_op

        def traced(*args, **kwargs):
            counts[layer] += 1
            idx = len(s_start)
            s_layer.append(layer_id)
            s_parent.append(stack[-1])
            s_op.append(self.op)
            s_end.append(0.0)
            stack.append(idx)
            s_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[idx] = perf_counter()
                stack.pop()
            if tally is not None:
                tally(counts, args, result)
            return result

        return traced

    def layer_times(self) -> dict:
        """Per layer: number of spans, mean duration and mean self time
        (duration minus the child spans), in seconds."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.layers)
        total = [0.0] * len(self.layers)
        self_total = [0.0] * len(self.layers)
        for i in range(n):
            k = self.span_layer[i]
            dur = self.span_end[i] - self.span_start[i]
            calls[k] += 1
            total[k] += dur
            self_total[k] += dur - child[i]
        return {
            layer: {"calls": calls[k], "mean": total[k] / calls[k], "self": self_total[k] / calls[k]}
            for k, layer in enumerate(self.layers)
            if calls[k]
        }


def layer_metrics(probe: Probe, fingerprint: dict, overhead: float) -> dict:
    """The per-layer metrics of a traced run, by name, with units. A layer
    that did not run on the workload is left out."""
    times = probe.layer_times()
    counts = probe.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def per_call(name, layer, key, scale, unit):
        if layer in times:
            put(name, times[layer][key] * scale, unit)

    per_call("graph.gen_ms", "graph.gen", "mean", 1e3, "ms")
    if counts["graph.connected"]:
        put("graph.connected_ratio", counts["graph.connected_true"] / counts["graph.connected"], "ratio")
    per_call("graph.oracle_ms", "graph.oracle", "mean", 1e3, "ms")
    per_call("graph.plant_ms", "graph.plant", "self", 1e3, "ms")
    per_call("dynamics.step_us", "dynamics.step", "self", 1e6, "us")
    put("dynamics.steps", fingerprint["dynamics.step"], "count")
    per_call("dynamics.run_self_ms", "dynamics.run", "self", 1e3, "ms")
    per_call("dynamics.init_ms", "dynamics.init", "mean", 1e3, "ms")
    put("dynamics.flushes", fingerprint["dynamics.flushes"], "count")
    put("dynamics.zero_splits", fingerprint["dynamics.zero_splits"], "count")
    per_call("analysis.check_us", "analysis.check", "mean", 1e6, "us")
    put("analysis.checks", fingerprint["analysis.check"], "count")
    if counts["analysis.check"]:
        put("analysis.check_hit_ratio", counts["analysis.check_hits"] / counts["analysis.check"], "ratio")
    per_call("analysis.invariant_obs_us", "analysis.invariant_obs", "mean", 1e6, "us")
    put("rules.fn_calls", fingerprint["rules.fn"], "count")
    per_call("rules.fn_us", "rules.fn", "mean", 1e6, "us")
    per_call("equilibria.experiment_self_ms", "equilibria.experiment", "self", 1e3, "ms")
    per_call("adversarial.swap_self_ms", "adversarial.swap", "self", 1e3, "ms")
    per_call("adversarial.level_obs_us", "adversarial.level_obs", "mean", 1e6, "us")
    per_call("scenarios.instance_self_ms", "scenarios.batch", "self", 1e3, "ms")
    put("trace.overhead", overhead, "ratio")
    return out
