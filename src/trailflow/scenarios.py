"""Scenario configuration, batch execution of the simulation protocol, and
file exporters (CSV time series, summary CSV, state JSON, DOT snapshots).

A scenario is a JSON document with the keys

    name, graph, plant, leakage, rule, schedule, delta, init, steps,
    epsilon, seed, monitors, rescale, underflow_threshold, outputs

Unknown keys and illegal combinations are rejected with the offending key
named. Defaults: delta sampled uniform(0,1) from the scenario seed,
epsilon 0.01, underflow 1e-300, rescaling on for exponential schedules,
horizon 1e5 steps (1e4 for exponential schedules).

Derived randomness is drawn from numpy's PCG64 via seed sequences
``[seed, stream]`` with streams 0=graph (plus attempt), 1=leakage, 2=delta,
3=pheromone, 4=flows, so results are reproducible per implementation.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .analysis import (
    InvariantObserver,
    PheromoneBoundObserver,
    PotentialObserver,
    SUMMARY_COLUMNS,
    TIMESERIES_COLUMNS,
    normalized_levels,
    warmup_time,
)
from .dynamics import (
    DecisionRule,
    EngineConfig,
    FlowSchedule,
    RESCALE_BY_SOURCE,
    RESCALE_OFF,
    RunTrace,
    init_state,
    run,
)
from .graph import (
    DirectedGraph,
    Path,
    TwoPathGraph,
    build_two_path,
    count_shortest_paths,
    gen_banded_gnp,
    gen_gnp,
    gen_grid,
    is_connected,
    min_leakage_path,
    plant_band_ladder,
    plant_path,
    shortest_path,
)
from .rules import RuleFunction, rule_from_config, validate_rule

RESAMPLE_CAP = 1000
MONITOR_NAMES = ("invariants", "pheromone_bound", "potential")


class ScenarioError(ValueError):
    """Configuration problem; the message names the offending key."""


_TOP_KEYS = {
    "name", "graph", "plant", "leakage", "rule", "schedule", "delta", "init",
    "steps", "epsilon", "seed", "monitors", "rescale", "underflow_threshold",
    "outputs",
}


def _check_keys(doc: dict, allowed: set, where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s) {sorted(unknown)}")


@dataclass(frozen=True)
class Scenario:
    """A validated scenario with all defaults filled."""

    config: dict

    @property
    def name(self) -> str:
        return self.config["name"]

    @property
    def seed(self) -> int:
        return self.config["seed"]

    def serialize(self) -> str:
        return json.dumps(self.config, sort_keys=True, indent=2)


def parse_scenario(doc) -> Scenario:
    """Validate a scenario document (dict or JSON text) and fill defaults."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioError("config must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "scenario")

    cfg: dict = {}
    cfg["name"] = str(doc.get("name", "scenario"))
    if "seed" not in doc:
        raise ScenarioError("seed: required (all randomness must be explicitly seeded)")
    cfg["seed"] = int(doc["seed"])

    graph = doc.get("graph")
    if not isinstance(graph, dict) or "kind" not in graph:
        raise ScenarioError("graph: required object with a 'kind'")
    kind = graph["kind"]
    if kind == "two_path":
        _check_keys(graph, {"kind", "m", "n", "leak_top", "leak_bottom"}, "graph")
        m, n = int(graph["m"]), int(graph["n"])
        cfg["graph"] = {
            "kind": kind,
            "m": m,
            "n": n,
            "leak_top": [float(x) for x in graph.get("leak_top", [0.0] * (m - 1))],
            "leak_bottom": [float(x) for x in graph.get("leak_bottom", [0.0] * (n - 1))],
        }
    elif kind == "gnp":
        _check_keys(graph, {"kind", "n", "p"}, "graph")
        cfg["graph"] = {"kind": kind, "n": int(graph["n"]), "p": float(graph["p"])}
    elif kind == "banded_gnp":
        _check_keys(graph, {"kind", "n", "p", "k"}, "graph")
        cfg["graph"] = {
            "kind": kind, "n": int(graph["n"]), "p": float(graph["p"]), "k": int(graph["k"]),
        }
    elif kind == "grid":
        _check_keys(graph, {"kind", "rows", "cols"}, "graph")
        cfg["graph"] = {"kind": kind, "rows": int(graph["rows"]), "cols": int(graph["cols"])}
    else:
        raise ScenarioError(f"graph.kind: unknown graph family {kind!r}")

    plant = doc.get("plant")
    if plant is not None:
        if not isinstance(plant, dict):
            raise ScenarioError("plant: must be an object")
        pk = plant.get("kind", "path")
        if pk == "path":
            _check_keys(plant, {"kind", "length"}, "plant")
            cfg["plant"] = {"kind": "path", "length": int(plant["length"])}
        elif pk == "band_ladder":
            _check_keys(plant, {"kind"}, "plant")
            if cfg["graph"]["kind"] != "banded_gnp":
                raise ScenarioError("plant.kind: band_ladder requires a banded_gnp graph")
            cfg["plant"] = {"kind": "band_ladder"}
        else:
            raise ScenarioError(f"plant.kind: unknown planting {pk!r}")
    else:
        cfg["plant"] = None

    leak = doc.get("leakage", {"kind": "zero"})
    lk = leak.get("kind") if isinstance(leak, dict) else None
    if lk == "zero":
        cfg["leakage"] = {"kind": "zero"}
    elif lk == "uniform":
        _check_keys(leak, {"kind", "low", "high"}, "leakage")
        cfg["leakage"] = {
            "kind": "uniform",
            "low": float(leak.get("low", 0.0)),
            "high": float(leak.get("high", 1.0)),
        }
    elif lk == "explicit":
        _check_keys(leak, {"kind", "values"}, "leakage")
        cfg["leakage"] = {
            "kind": "explicit",
            "values": {str(k): float(v) for k, v in leak["values"].items()},
        }
    else:
        raise ScenarioError("leakage.kind: must be zero | uniform | explicit")
    if cfg["graph"]["kind"] == "two_path" and cfg["leakage"]["kind"] != "zero":
        raise ScenarioError(
            "leakage: two_path graphs carry leakage in graph.leak_top/leak_bottom"
        )

    rule = doc.get("rule", {"kind": "linear"})
    if not isinstance(rule, dict) or "kind" not in rule:
        raise ScenarioError("rule: must be an object with a 'kind'")
    cfg["rule"] = dict(rule)
    if rule["kind"] != "linear" and cfg["graph"]["kind"] != "two_path":
        raise ScenarioError("rule.kind: general rules require a two_path graph")

    sched = doc.get("schedule", {"kind": "constant", "f0": 1.0, "b0": 1.0})
    _check_keys(sched, {"kind", "f0", "b0", "alpha"}, "schedule")
    sk = sched.get("kind")
    if sk not in ("constant", "exponential", "linear"):
        raise ScenarioError("schedule.kind: must be constant | exponential | linear")
    cfg["schedule"] = {
        "kind": sk,
        "f0": float(sched.get("f0", 1.0)),
        "b0": float(sched.get("b0", 1.0)),
    }
    if sk != "constant":
        if "alpha" not in sched:
            raise ScenarioError("schedule.alpha: required for growing schedules")
        cfg["schedule"]["alpha"] = float(sched["alpha"])

    delta = doc.get("delta", {"kind": "uniform"})
    if isinstance(delta, dict):
        _check_keys(delta, {"kind"}, "delta")
        if delta.get("kind") != "uniform":
            raise ScenarioError("delta.kind: must be uniform when not a number")
        cfg["delta"] = {"kind": "uniform"}
    else:
        d = float(delta)
        if not (0.0 < d < 1.0):
            raise ScenarioError("delta: must lie in (0, 1)")
        cfg["delta"] = d

    init = doc.get("init", {"kind": "uniform", "low": 0.0, "high": 1.0})
    ik = init.get("kind") if isinstance(init, dict) else None
    if ik == "uniform":
        _check_keys(init, {"kind", "low", "high"}, "init")
        cfg["init"] = {
            "kind": "uniform",
            "low": float(init.get("low", 0.0)),
            "high": float(init.get("high", 1.0)),
        }
    elif ik == "constant":
        _check_keys(init, {"kind", "value"}, "init")
        cfg["init"] = {"kind": "constant", "value": float(init["value"])}
    elif ik == "explicit":
        _check_keys(init, {"kind", "values"}, "init")
        cfg["init"] = {"kind": "explicit", "values": [float(x) for x in init["values"]]}
    else:
        raise ScenarioError("init.kind: must be uniform | constant | explicit")

    default_steps = 10_000 if sk == "exponential" else 100_000
    cfg["steps"] = int(doc.get("steps", default_steps))
    if cfg["steps"] < 1:
        raise ScenarioError("steps: must be >= 1")
    cfg["epsilon"] = float(doc.get("epsilon", 0.01))
    if not (0.0 < cfg["epsilon"] < 1.0):
        raise ScenarioError("epsilon: must lie in (0, 1)")

    monitors = doc.get("monitors", [])
    for mname in monitors:
        if mname not in MONITOR_NAMES:
            raise ScenarioError(f"monitors: unknown monitor {mname!r}")
    cfg["monitors"] = list(monitors)
    if "potential" in monitors and cfg["graph"]["kind"] != "two_path":
        raise ScenarioError("monitors: potential requires a two_path graph")

    rescale = doc.get("rescale", "auto")
    if rescale not in ("auto", "on", "off"):
        raise ScenarioError("rescale: must be auto | on | off")
    effective = rescale == "on" or (rescale == "auto" and sk == "exponential")
    if effective and cfg["rule"]["kind"] != "linear":
        if rescale == "on":
            raise ScenarioError("rescale: invalid with a general rule (no scale invariance)")
        effective = False
    if effective and sk != "exponential":
        raise ScenarioError("rescale: applies to exponential schedules only")
    cfg["rescale"] = "on" if effective else "off"

    cfg["underflow_threshold"] = float(doc.get("underflow_threshold", 1e-300))

    outputs = doc.get("outputs", {})
    _check_keys(outputs, {"dir", "csv", "json", "dot", "snapshot_interval"}, "outputs")
    cfg["outputs"] = {
        "dir": outputs.get("dir"),
        "csv": bool(outputs.get("csv", True)),
        "json": bool(outputs.get("json", True)),
        "dot": bool(outputs.get("dot", True)),
        "snapshot_interval": int(outputs.get("snapshot_interval", 100)),
    }

    scenario = Scenario(config=cfg)
    _materialize(scenario)  # surfaces construction-time problems early
    return scenario


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------


@dataclass
class Materialized:
    graph: DirectedGraph
    two_path: Optional[TwoPathGraph]
    rule: DecisionRule
    rule_fn: Optional[RuleFunction]
    schedule: FlowSchedule
    engine: EngineConfig
    pheromone: object
    steps: int
    epsilon: float
    monitors: List[str]
    planted: Optional[Path]
    delta: float


def _stream(seed: int, k: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, k, *extra])


def _connected_graph(
    family: str, params: dict, seed: int, *stream: int
) -> Optional[DirectedGraph]:
    """Resample ``family`` until the destination is reachable; draw ``i``
    takes its graph seed from ``_stream(seed, *stream, i)``. None when no
    draw within ``RESAMPLE_CAP`` is connected."""
    for attempt in range(RESAMPLE_CAP):
        gseed = int(_stream(seed, *stream, attempt).integers(0, 2**63 - 1))
        if family == "gnp":
            graph = gen_gnp(params["n"], params["p"], gseed)
        elif family == "banded_gnp":
            graph = gen_banded_gnp(params["n"], params["p"], params["k"], gseed)
        else:
            graph = gen_grid(params["rows"], params["cols"])
        if is_connected(graph):
            return graph
    return None


def _build_graph(cfg: dict, seed: int) -> Tuple[DirectedGraph, Optional[TwoPathGraph], Optional[Path]]:
    g = cfg["graph"]
    two_path = None
    planted = None
    if g["kind"] == "two_path":
        two_path = build_two_path(g["m"], g["n"], g["leak_top"], g["leak_bottom"])
        graph = two_path.graph
    elif g["kind"] == "grid":
        graph = gen_grid(g["rows"], g["cols"])
    else:
        graph = _connected_graph(g["kind"], g, seed, 0)
        if graph is None:
            raise ScenarioError(
                f"graph: no connected instance within {RESAMPLE_CAP} resamples"
            )
    plant = cfg["plant"]
    if plant is not None:
        if plant["kind"] == "path":
            graph, planted = plant_path(graph, plant["length"])
        else:
            graph, planted = plant_band_ladder(graph, cfg["graph"]["k"])
    return graph, two_path, planted


def _materialize(scenario: Scenario) -> Materialized:
    cfg = scenario.config
    seed = cfg["seed"]
    graph, two_path, planted = _build_graph(cfg, seed)

    leak = cfg["leakage"]
    if leak["kind"] == "uniform":
        rng = _stream(seed, 1)
        graph = graph.with_leakage(rng.uniform(leak["low"], leak["high"], graph.n_vertices))
    elif leak["kind"] == "explicit":
        graph = graph.with_leakage({int(k): v for k, v in leak["values"].items()})

    rule_cfg = cfg["rule"]
    if rule_cfg["kind"] == "linear":
        rule = DecisionRule.linear()
        rule_fn = None
    else:
        rule_fn = rule_from_config(rule_cfg)
        bad = validate_rule(rule_fn)
        if bad:
            raise ScenarioError(f"rule: invalid rule function ({bad[0].detail})")
        rule = DecisionRule.general(rule_fn)

    s = cfg["schedule"]
    if s["kind"] == "constant":
        schedule = FlowSchedule.constant(s["f0"], s["b0"])
    elif s["kind"] == "exponential":
        schedule = FlowSchedule.exponential(s["f0"], s["b0"], s["alpha"])
    else:
        schedule = FlowSchedule.linear(s["f0"], s["b0"], s["alpha"])

    if isinstance(cfg["delta"], dict):
        delta = float(_stream(seed, 2).uniform(0.0, 1.0))
        delta = min(max(delta, 1e-6), 1.0 - 1e-6)
    else:
        delta = cfg["delta"]

    init = cfg["init"]
    if init["kind"] == "uniform":
        p0 = _stream(seed, 3).uniform(init["low"], init["high"], graph.n_edges)
    elif init["kind"] == "constant":
        p0 = float(init["value"])
    else:
        vals = init["values"]
        if len(vals) != graph.n_edges:
            raise ScenarioError(
                f"init.values: expected {graph.n_edges} entries, got {len(vals)}"
            )
        p0 = np.asarray(vals, dtype=float)

    engine = EngineConfig(
        delta=delta,
        underflow_threshold=cfg["underflow_threshold"],
        rescale_mode=RESCALE_BY_SOURCE if cfg["rescale"] == "on" else RESCALE_OFF,
        epsilon_convergence=cfg["epsilon"],
    )
    return Materialized(
        graph=graph,
        two_path=two_path,
        rule=rule,
        rule_fn=rule_fn,
        schedule=schedule,
        engine=engine,
        pheromone=p0,
        steps=cfg["steps"],
        epsilon=cfg["epsilon"],
        monitors=list(cfg["monitors"]),
        planted=planted,
        delta=delta,
    )


# ---------------------------------------------------------------------------
# Running a scenario
# ---------------------------------------------------------------------------


class TimeseriesRecorder:
    """Writes the per-edge time series every ``interval`` steps."""

    def __init__(self, graph: DirectedGraph, interval: int) -> None:
        self.graph = graph
        self.interval = max(1, interval)
        self.rows: List[list] = []

    def __call__(self, t, state, prev) -> None:
        if t % self.interval:
            return
        levels = normalized_levels(state, self.graph)
        for eid, (u, v) in enumerate(self.graph.edges):
            self.rows.append(
                [
                    t, eid, u, v,
                    float(state.p[eid]), float(state.f_edge[eid]), float(state.b_edge[eid]),
                    float(levels.fwd[eid]), float(levels.bwd[eid]),
                ]
            )


class SummaryRecorder:
    """Per-step summary rows: t, r_min, injected flows, converged path id."""

    def __init__(self, potential: Optional[PotentialObserver]) -> None:
        self.potential = potential
        self.rows: List[list] = []

    def __call__(self, t, state, prev) -> None:
        r_min = ""
        if self.potential is not None and len(self.potential.trace.r_min) > 0:
            val = self.potential.trace.r_min[-1]
            r_min = "" if math.isnan(val) else repr(val)
        self.rows.append([t, r_min, state.injected_f, state.injected_b, ""])


@dataclass
class ScenarioResult:
    scenario: Scenario
    trace: RunTrace
    graph: DirectedGraph
    delta: float
    oracle_shortest: Optional[Path]
    oracle_min_leakage: Optional[Path]
    planted: Optional[Path]
    invariant_violations: int
    bound_violations: int
    runtime_s: float
    out_dir: Optional[str] = None
    potential: Optional[PotentialObserver] = None

    @property
    def exit_code(self) -> int:
        if self.trace.stop_reason == "aborted":
            return 3
        if self.invariant_violations or self.bound_violations:
            return 1
        return 0


def run_scenario(scenario: Scenario, out_dir: Optional[str] = None) -> ScenarioResult:
    mat = _materialize(scenario)
    graph = mat.graph
    state = init_state(graph, mat.pheromone, mat.schedule, mat.rule, strict=True)

    observers = []
    potential = None
    if "potential" in mat.monitors and mat.two_path is not None:
        potential = PotentialObserver(mat.two_path)
        observers.append(potential)
    inv = None
    if "invariants" in mat.monitors:
        inv = InvariantObserver(graph, mat.engine, mat.schedule)
        observers.append(inv)
    bound = None
    if "pheromone_bound" in mat.monitors:
        p0max = float(np.max(state.p)) if state.p.size else 0.0
        T1 = warmup_time(p0max, mat.schedule.f0 + mat.schedule.b0, mat.delta)
        bound = PheromoneBoundObserver(mat.delta, T1)
        observers.append(bound)

    outputs = scenario.config["outputs"]
    out_dir = out_dir or outputs["dir"]
    timeseries = None
    summary = None
    if out_dir:
        if outputs["csv"]:
            timeseries = TimeseriesRecorder(graph, outputs["snapshot_interval"])
            summary = SummaryRecorder(potential)
            observers.extend([timeseries, summary])

    t0 = time.perf_counter()
    trace = run(state, graph, mat.rule, mat.schedule, mat.engine, mat.steps, observers)
    runtime = time.perf_counter() - t0

    result = ScenarioResult(
        scenario=scenario,
        trace=trace,
        graph=graph,
        delta=mat.delta,
        oracle_shortest=shortest_path(graph),
        oracle_min_leakage=min_leakage_path(graph),
        planted=mat.planted,
        invariant_violations=len(inv.violations) if inv else 0,
        bound_violations=len(bound.violations) if bound else 0,
        runtime_s=runtime,
        out_dir=out_dir,
        potential=potential,
    )
    if out_dir:
        _write_artifacts(result, timeseries, summary, outputs)
    return result


def _write_artifacts(result, timeseries, summary, outputs) -> None:
    os.makedirs(result.out_dir, exist_ok=True)
    jp = lambda *parts: os.path.join(result.out_dir, *parts)
    with open(jp("scenario.json"), "w") as fh:
        fh.write(result.scenario.serialize())
    if timeseries is not None:
        with open(jp("timeseries.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(TIMESERIES_COLUMNS)
            w.writerows(timeseries.rows)
    if summary is not None:
        path_id = str(result.trace.converged_path) if result.trace.converged_path else ""
        if result.trace.converged_t is not None:
            for row in summary.rows:
                if row[0] >= result.trace.converged_t:
                    row[4] = path_id
        with open(jp("summary.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(SUMMARY_COLUMNS)
            w.writerows(summary.rows)
    if outputs["json"]:
        st = result.trace.final_state
        doc = {
            "name": result.scenario.name,
            "t": st.t,
            "stop_reason": result.trace.stop_reason,
            "converged_path": str(result.trace.converged_path)
            if result.trace.converged_path
            else None,
            "converged_t": result.trace.converged_t,
            "delta": result.delta,
            "delivered_forward": st.delivered_forward,
            "delivered_backward": st.delivered_backward,
            "underflow_flushes": st.underflow_flushes,
            "zero_split_events": st.zero_split_events,
            "invariant_violations": result.invariant_violations,
            "bound_violations": result.bound_violations,
            "oracle_shortest": str(result.oracle_shortest) if result.oracle_shortest else None,
            "oracle_min_leakage": str(result.oracle_min_leakage)
            if result.oracle_min_leakage
            else None,
            "planted": str(result.planted) if result.planted else None,
            "pheromone": [float(x) for x in st.p],
            "f_edge": [float(x) for x in st.f_edge],
            "b_edge": [float(x) for x in st.b_edge],
            "warnings": list(result.trace.warnings),
            "runtime_s": result.runtime_s,
        }
        with open(jp("final_state.json"), "w") as fh:
            json.dump(doc, fh, indent=2)
    if outputs["dot"]:
        st = result.trace.final_state
        weights = (st.f_edge + st.b_edge).tolist()
        with open(jp("final_state.dot"), "w") as fh:
            fh.write(result.graph.to_dot(edge_weights=weights))


# ---------------------------------------------------------------------------
# Batches (protocol presets)
# ---------------------------------------------------------------------------


@dataclass
class InstanceResult:
    index: int
    family: str
    converged: bool
    steps: Optional[int]
    converged_path: str
    oracle_path: str
    match: bool
    delta: float
    invariant_violations: int
    runtime_s: float
    failure: Optional[str] = None


@dataclass
class BatchResult:
    preset: str
    rows: List[InstanceResult]

    @property
    def match_rate(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.match for r in self.rows) / len(self.rows)

    @property
    def total_runtime_s(self) -> float:
        return sum(r.runtime_s for r in self.rows)

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                [
                    "index", "family", "converged", "steps", "converged_path",
                    "oracle_path", "match", "delta", "invariant_violations",
                    "runtime_s", "failure",
                ]
            )
            for r in self.rows:
                w.writerow(
                    [
                        r.index, r.family, int(r.converged), r.steps, r.converged_path,
                        r.oracle_path, int(r.match), f"{r.delta:.6g}",
                        r.invariant_violations, f"{r.runtime_s:.4f}", r.failure or "",
                    ]
                )

    def to_json_dict(self) -> dict:
        return {
            "preset": self.preset,
            "instances": len(self.rows),
            "match_rate": self.match_rate,
            "total_runtime_s": self.total_runtime_s,
            "mismatches": [r.index for r in self.rows if not r.match],
        }


LEAKAGE_FULL = [
    ("gnp", {"n": 100, "p": 0.05}, 1000),
    ("gnp", {"n": 100, "p": 0.1}, 1000),
    ("gnp", {"n": 100, "p": 0.5}, 1000),
    ("gnp", {"n": 1000, "p": 0.01}, 100),
    ("gnp", {"n": 1000, "p": 0.1}, 100),
    ("banded_gnp", {"n": 100, "p": 0.5, "k": 10}, 1000),
    ("banded_gnp", {"n": 1000, "p": 0.5, "k": 40}, 100),
    ("grid", {"rows": 10, "cols": 10}, 100),
]
INCREASING_FULL = [
    ("gnp", {"n": 100, "p": 0.05}, 1000),
    ("gnp", {"n": 1000, "p": 0.01}, 100),
    ("gnp", {"n": 1000, "p": 0.005}, 100),
    ("banded_gnp", {"n": 100, "p": 0.5, "k": 10}, 1000),
    ("banded_gnp", {"n": 1000, "p": 0.5, "k": 40}, 100),
    ("grid", {"rows": 10, "cols": 10}, 100),
]


def _leakage_graph(
    graph: DirectedGraph, family: str, params: dict, rng: np.random.Generator
) -> Tuple[DirectedGraph, Optional[Path]]:
    """Uniform leakage on every vertex; the oracle is the min-leakage path."""
    graph = graph.with_leakage(rng.uniform(0.0, 1.0, graph.n_vertices))
    return graph, min_leakage_path(graph)


def _planted_graph(
    graph: DirectedGraph, family: str, params: dict, rng: np.random.Generator
) -> Tuple[DirectedGraph, Optional[Path]]:
    """Zero leakage and a shortest path planted where the family does not
    give a unique one; the oracle is that path."""
    if family == "grid":
        return plant_path(graph, 9)
    if family == "banded_gnp":
        graph, _ = plant_band_ladder(graph, params["k"])
        return graph, shortest_path(graph)
    if count_shortest_paths(graph) != 1:
        return plant_path(graph, shortest_path(graph).length - 1)
    return graph, shortest_path(graph)


@dataclass(frozen=True)
class _Preset:
    families: list
    instances: int  # desk-scale default
    horizon: int
    streams: Tuple[int, int]  # seed streams of the instance draws and the graph
    prepare: Callable  # (graph, family, params, rng) -> (graph, oracle)
    schedule: Callable  # (f0, b0) -> FlowSchedule
    rescale_mode: str


_PRESETS = {
    "appendixC-leakage": _Preset(
        LEAKAGE_FULL, 50, 100_000, (10, 11), _leakage_graph, FlowSchedule.constant, RESCALE_OFF
    ),
    "appendixC-increasing": _Preset(
        INCREASING_FULL, 10, 10_000, (20, 21), _planted_graph,
        functools.partial(FlowSchedule.exponential, alpha=1.1), RESCALE_BY_SOURCE,
    ),
}


def _preset(preset: str) -> _Preset:
    if preset not in _PRESETS:
        raise ScenarioError(f"preset: unknown preset {preset!r}")
    return _PRESETS[preset]


def _instance(args) -> InstanceResult:
    """One protocol instance: draw a connected graph, prepare it the preset's
    way (leakage or a planted path), draw delta, the initial pheromone and
    the injections, and run the linear rule until it converges to the
    oracle path."""
    preset, index, family, params, base_seed, horizon, epsilon, monitors = args
    spec = _PRESETS[preset]
    t0 = time.perf_counter()
    rng = _stream(base_seed, spec.streams[0], index)
    graph = _connected_graph(family, params, base_seed, spec.streams[1], index)
    if graph is None:
        return InstanceResult(
            index, family, False, None, "", "", False, 0.0, 0,
            time.perf_counter() - t0, failure="no connected instance",
        )
    graph, oracle = spec.prepare(graph, family, params, rng)
    delta = float(min(max(rng.uniform(0.0, 1.0), 1e-6), 1.0 - 1e-6))
    p0 = rng.uniform(0.0, 1.0, graph.n_edges)
    f0, b0 = rng.uniform(0.5, 1.0, 2)
    schedule = spec.schedule(float(f0), float(b0))
    cfg = EngineConfig(
        delta=delta, epsilon_convergence=epsilon, rescale_mode=spec.rescale_mode
    )
    state = init_state(graph, p0, schedule)
    observers = []
    inv = None
    if monitors:
        inv = InvariantObserver(graph, cfg, schedule)
        observers.append(inv)
    trace = run(state, graph, DecisionRule.linear(), schedule, cfg, horizon, observers)
    converged = trace.converged_path is not None
    match = converged and oracle is not None and trace.converged_path == oracle
    return InstanceResult(
        index=index,
        family=f"{family}{tuple(params.values())}",
        converged=converged,
        steps=trace.converged_t,
        converged_path=str(trace.converged_path) if converged else "",
        oracle_path=str(oracle) if oracle else "",
        match=bool(match),
        delta=delta,
        invariant_violations=len(inv.violations) if inv else 0,
        runtime_s=time.perf_counter() - t0,
        failure=trace.failure,
    )


def batch_jobs(
    preset: str,
    instances: int = 0,
    base_seed: int = 0,
    full_scale: bool = False,
    epsilon: float = 0.01,
    horizon: Optional[int] = None,
    monitors: bool = False,
) -> List[tuple]:
    """Expand a preset into instance jobs. Desk scale (default) runs
    ``instances`` of one representative family (50 leakage / 10 increasing
    when 0); ``full_scale`` reproduces the full family list at the
    protocol's instance counts."""
    spec = _preset(preset)
    horizon = horizon or spec.horizon
    if full_scale:
        jobs = []
        idx = 0
        for family, params, count in spec.families:
            for _ in range(count):
                jobs.append((preset, idx, family, params, base_seed, horizon, epsilon, monitors))
                idx += 1
        return jobs
    n = instances or spec.instances
    family, params, _ = spec.families[-1] if preset == "appendixC-increasing" else spec.families[0]
    return [(preset, i, family, params, base_seed, horizon, epsilon, monitors) for i in range(n)]


def run_batch(
    preset: str,
    instances: int = 0,
    base_seed: int = 0,
    workers: int = 1,
    full_scale: bool = False,
    epsilon: float = 0.01,
    horizon: Optional[int] = None,
    monitors: bool = False,
    out_dir: Optional[str] = None,
) -> BatchResult:
    """Run a protocol preset; see ``batch_jobs`` for scale semantics."""
    jobs = batch_jobs(preset, instances, base_seed, full_scale, epsilon, horizon, monitors)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_instance, jobs))
    else:
        rows = [_instance(job) for job in jobs]
    rows.sort(key=lambda r: r.index)
    result = BatchResult(preset=preset, rows=rows)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        result.write_csv(os.path.join(out_dir, "batch.csv"))
        with open(os.path.join(out_dir, "batch.json"), "w") as fh:
            json.dump(result.to_json_dict(), fh, indent=2)
    return result
