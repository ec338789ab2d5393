"""Scenario configuration, batch execution of the simulation protocol, and
file exporters (CSV time series, summary CSV, state JSON, DOT snapshots).

A scenario is a JSON document with the keys

    name, graph, plant, leakage, rule, schedule, delta, init, steps,
    epsilon, seed, monitors, rescale, underflow_threshold, outputs

read through one table per section (and kind) of key, strict converter and
default: an integer takes no bool, float or string, a number no string or
bool, a boolean no string, a list or object no string. Any other bad value,
unknown key or illegal combination also raises a ScenarioError naming its
``section.key``; the CLI exits 2 on it. Defaults: delta sampled uniform(0,1)
from the scenario seed, epsilon 0.01, underflow 1e-300, rescaling on for
exponential schedules, horizon 1e5 steps (1e4 for exponential schedules).

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
from contextlib import contextmanager
from dataclasses import dataclass, field
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
    GraphError,
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
from .rules import RuleError, rule_from_config, validate_rule

RESAMPLE_CAP = 1000


class ScenarioError(ValueError):
    """Configuration problem; the message names the offending key."""


@contextmanager
def output_errors(where: str):
    """Raise an OSError from creating or writing output files as a
    ScenarioError naming ``where``, the flag or key that chose the path."""
    try:
        yield
    except OSError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _typed(*types: type) -> Callable:
    """Strict converter accepting exactly ``types``; a bool is no int."""

    def conv(v):
        if not isinstance(v, types) or (isinstance(v, bool) and bool not in types):
            raise TypeError(f"expected {' or '.join(t.__name__ for t in types)}, got {v!r}")
        return v

    return conv


_int, _bool, _str, _dict = _typed(int), _typed(bool), _typed(str), _typed(dict)


def _checked(conv: Callable, ok: Callable, message: str) -> Callable:
    """Converter ``conv`` whose result must also satisfy ``ok``."""

    def read(v):
        x = conv(v)
        if not ok(x):
            raise ValueError(f"{message}, got {v!r}")
        return x

    return read


_float = _checked(lambda v: float(_typed(int, float)(v)), math.isfinite, "expected a finite number")


def _choice(*options: str) -> Callable:
    return _checked(_str, lambda v: v in options, f"must be {' | '.join(options)}")


def _list_of(conv: Callable) -> Callable:
    return lambda v: [conv(x) for x in _typed(list)(v)]


def _optional(conv: Callable) -> Callable:
    return lambda v: None if v is None else conv(v)


_COUNT = _checked(_int, lambda x: x > 0, "must be > 0")
_NONNEG_INT = _checked(_int, lambda x: x >= 0, "must be >= 0")
_POSITIVE = _checked(_float, lambda x: x > 0, "must be > 0")
_NONNEG = _checked(_float, lambda x: x >= 0, "must be >= 0")
_UNIT = _checked(_float, lambda x: 0 < x < 1, "must lie in (0, 1)")


def _section(where: str, table, default_kind: Optional[str] = None) -> Callable:
    """Converter for the object ``where``. ``table`` is its field tuple, or a
    dict from each ``kind`` to one; a field is ``(key, converter[, default])``
    and a key without a default is required. The converter rejects unknown
    keys, converts each field strictly and fills defaults, a callable default
    being computed from the fields read before it. Every error names
    ``where.key``."""
    prefix = f"{where}." if where else ""

    def read(doc) -> dict:
        if not isinstance(doc, dict):
            raise ScenarioError(f"{where or 'config'}: must be an object")
        out, fields = {}, table
        if isinstance(table, dict):
            kind = doc.get("kind", default_kind)
            if kind not in tuple(table):
                raise ScenarioError(f"{prefix}kind: must be {' | '.join(table)}, got {kind!r}")
            out, fields = {"kind": kind}, table[kind]
        unknown = set(doc) - set(out) - {f[0] for f in fields}
        if unknown:
            raise ScenarioError(f"{prefix}{sorted(unknown, key=str)[0]}: unknown key")
        for key, conv, *default in fields:
            if key in doc:
                value = doc[key]
            elif not default:
                raise ScenarioError(f"{prefix}{key}: required")
            else:
                value = default[0](out) if callable(default[0]) else default[0]
            try:
                out[key] = conv(value)
            except ScenarioError:
                raise
            except (TypeError, ValueError, OverflowError) as exc:
                raise ScenarioError(f"{prefix}{key}: {exc}") from None
        return out

    return read


_GRAPH = {
    "two_path": (
        ("m", _int),
        ("n", _int),
        ("leak_top", _list_of(_float), lambda g: [0.0] * (g["m"] - 1)),
        ("leak_bottom", _list_of(_float), lambda g: [0.0] * (g["n"] - 1)),
    ),
    "gnp": (("n", _int), ("p", _float)),
    "banded_gnp": (("n", _int), ("p", _float), ("k", _int)),
    "grid": (("rows", _int), ("cols", _int)),
}
_PLANT = {"path": (("length", _int),), "band_ladder": ()}
# explicit leakage is stored with decimal-string vertex ids
_LEAKAGE = {
    "zero": (),
    "uniform": (("low", _float, 0.0), ("high", _float, 1.0)),
    "explicit": (("values", lambda v: {str(int(k)): _float(x) for k, x in _dict(v).items()}),),
}
_FLOWS = (("f0", _POSITIVE, 1.0), ("b0", _NONNEG, 1.0))
_SCHEDULE = {
    "constant": _FLOWS,
    "exponential": (*_FLOWS, ("alpha", _checked(_float, lambda a: a > 1, "must be > 1"))),
    "linear": (*_FLOWS, ("alpha", _POSITIVE)),
}
# the engine would reject negative pheromone only when the run starts
_INIT = {
    "uniform": (("low", _NONNEG, 0.0), ("high", _NONNEG, 1.0)),
    "constant": (("value", _NONNEG),),
    "explicit": (("values", _list_of(_NONNEG)),),
}
_OUTPUTS = (
    ("dir", _optional(_str), None),
    ("csv", _bool, True),
    ("json", _bool, True),
    ("dot", _bool, True),
    ("snapshot_interval", _COUNT, 100),
)
_SCENARIO = (
    ("name", _str, "scenario"),
    ("seed", _NONNEG_INT),  # all randomness must be explicitly seeded
    ("graph", _section("graph", _GRAPH)),
    ("plant", _optional(_section("plant", _PLANT, default_kind="path")), None),
    ("leakage", _section("leakage", _LEAKAGE), {"kind": "zero"}),
    # ``rule_from_config`` reads the rule's parameters in ``_materialize``
    ("rule", _checked(lambda v: dict(_dict(v)), lambda r: "kind" in r, "needs a 'kind'"),
     {"kind": "linear"}),
    ("schedule", _section("schedule", _SCHEDULE), {"kind": "constant"}),
    # a decay in (0, 1), or {"kind": "uniform"} to draw it from the seed
    ("delta", lambda v: _section("delta", {"uniform": ()})(v) if isinstance(v, dict)
     else _UNIT(v), {"kind": "uniform"}),
    ("init", _section("init", _INIT), {"kind": "uniform"}),
    ("steps", _COUNT, lambda cfg: 10_000 if cfg["schedule"]["kind"] == "exponential" else 100_000),
    ("epsilon", _UNIT, 0.01),
    ("monitors", _list_of(_choice("invariants", "pheromone_bound", "potential")), []),
    ("rescale", _choice("auto", "on", "off"), "auto"),
    ("underflow_threshold", _NONNEG, 1e-300),
    ("outputs", _section("outputs", _OUTPUTS), {}),
)


@dataclass(frozen=True)
class Scenario:
    """A validated scenario with all defaults filled, and the graph, rule,
    schedule and engine config built from it once."""

    config: dict
    materialized: Materialized = field(compare=False, repr=False)

    @property
    def name(self) -> str:
        return self.config["name"]

    def serialize(self) -> str:
        return json.dumps(self.config, sort_keys=True, indent=2)


def parse_scenario(doc) -> Scenario:
    """Validate a scenario document (dict or JSON text) and fill defaults."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"config is not valid JSON: {exc}") from None
    cfg = _section("", _SCENARIO)(doc)

    for where in ("init", "leakage"):
        sec = cfg[where]
        if sec["kind"] == "uniform" and not sec["low"] <= sec["high"]:
            raise ScenarioError(f"{where}.high: must be >= {where}.low, got {sec['high']!r}")

    graph_kind = cfg["graph"]["kind"]
    if graph_kind == "two_path" and cfg["leakage"]["kind"] != "zero":
        raise ScenarioError("leakage: two_path graphs carry leakage in graph.leak_top/leak_bottom")
    if "potential" in cfg["monitors"] and graph_kind != "two_path":
        raise ScenarioError("monitors: potential requires a two_path graph")
    if (cfg["plant"] or {}).get("kind") == "band_ladder" and graph_kind != "banded_gnp":
        raise ScenarioError("plant.kind: band_ladder requires a banded_gnp graph")

    sk = cfg["schedule"]["kind"]
    rescale = cfg["rescale"]
    effective = rescale == "on" or (rescale == "auto" and sk == "exponential")
    if effective and cfg["rule"]["kind"] != "linear":
        if rescale == "on":
            raise ScenarioError("rescale: invalid with a general rule (no scale invariance)")
        effective = False
    if effective and sk != "exponential":
        raise ScenarioError("rescale: applies to exponential schedules only")
    cfg["rescale"] = "on" if effective else "off"

    return Scenario(config=cfg, materialized=_materialize(cfg))


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------


@dataclass
class Materialized:
    graph: DirectedGraph
    two_path: Optional[TwoPathGraph]
    rule: DecisionRule
    schedule: FlowSchedule
    engine: EngineConfig
    pheromone: object
    planted: Optional[Path]


def _stream(seed: int, k: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, k, *extra])


def _draw_delta(rng: np.random.Generator) -> float:
    """A uniform draw of the decay factor, kept inside (0, 1)."""
    return float(min(max(rng.uniform(0.0, 1.0), 1e-6), 1.0 - 1e-6))


class _Grid:
    """A grid family's graph, built once per process by ``_grid`` and shared
    by every instance and scenario that draws it (per worker under
    ``--workers``), with its ``arrays``, which its ``with_leakage`` copies
    share; ``planted`` is the increasing preset's graph with a 9-edge path
    planted, built on first use, and that path, its oracle.

    Sharing is safe because every cached object is already immutable: a
    graph's ``tails``, ``heads``, ``leakage`` and ``survival`` are read-only
    arrays, the ``GraphArrays`` index arrays are documented as never
    written, and a ``Path`` is frozen."""

    def __init__(self, graph: DirectedGraph) -> None:
        self.graph = graph

    @functools.cached_property
    def planted(self) -> Tuple[DirectedGraph, Path]:
        return plant_path(self.graph, 9)


@functools.lru_cache(maxsize=8)
def _grid(generate: Callable, rows: int, cols: int) -> _Grid:
    """The ``rows`` x ``cols`` grid as ``generate`` (``gen_grid``) builds it.
    The key holds the generator the module names when called, so a
    replaced ``gen_grid`` (a test double, a timing wrapper) is served the
    graphs it builds itself, never those of another."""
    return _Grid(generate(rows, cols))


def _connected_graph(
    family: str, params: dict, seed: int, *stream: int
) -> Optional[DirectedGraph]:
    """Resample ``family`` until the destination is reachable; draw ``i``
    takes its graph seed from ``_stream(seed, *stream, i)``. None when no
    draw within ``RESAMPLE_CAP`` is connected. A grid takes no seed and is
    connected (its top row and last column join s to d): it is neither
    drawn nor tested, but served by ``_grid``."""
    if family == "grid":
        return _grid(gen_grid, params["rows"], params["cols"]).graph
    for attempt in range(RESAMPLE_CAP):
        gseed = int(_stream(seed, *stream, attempt).integers(0, 2**63 - 1))
        if family == "gnp":
            graph = gen_gnp(params["n"], params["p"], gseed)
        else:
            graph = gen_banded_gnp(params["n"], params["p"], params["k"], gseed)
        if is_connected(graph):
            return graph
    return None


def _materialize(cfg: dict) -> Materialized:
    seed, g, plant, leak = cfg["seed"], cfg["graph"], cfg["plant"], cfg["leakage"]
    two_path = planted = None
    where = "graph"  # the section a GraphError is reported under
    try:
        if g["kind"] == "two_path":
            two_path = build_two_path(g["m"], g["n"], g["leak_top"], g["leak_bottom"])
            graph = two_path.graph
        else:
            graph = _connected_graph(g["kind"], g, seed, 0)
            if graph is None:
                raise GraphError(f"no connected instance within {RESAMPLE_CAP} resamples")
        where = "plant"
        if plant is not None and plant["kind"] == "path":
            graph, planted = plant_path(graph, plant["length"])
        elif plant is not None:
            graph, planted = plant_band_ladder(graph, g["k"])
        where = "leakage"
        if leak["kind"] == "uniform":
            rng = _stream(seed, 1)
            graph = graph.with_leakage(rng.uniform(leak["low"], leak["high"], graph.n_vertices))
        elif leak["kind"] == "explicit":
            where = "leakage.values"
            graph = graph.with_leakage({int(k): v for k, v in leak["values"].items()})
    except GraphError as exc:
        raise ScenarioError(f"{where}: {exc}") from None

    try:
        rule_fn = rule_from_config(cfg["rule"])
    except RuleError as exc:
        raise ScenarioError(f"rule: {exc}") from None
    if cfg["rule"]["kind"] == "linear":
        rule = DecisionRule.linear()
    else:
        bad = validate_rule(rule_fn)
        if bad:
            raise ScenarioError(f"rule: invalid rule function ({bad[0].detail})")
        rule = DecisionRule.general(rule_fn)
        try:
            graph.arrays.branches
        except GraphError as exc:
            raise ScenarioError(f"rule.kind: {exc}") from None

    schedule = FlowSchedule(**cfg["schedule"])

    delta = _draw_delta(_stream(seed, 2)) if isinstance(cfg["delta"], dict) else cfg["delta"]

    init = cfg["init"]
    if init["kind"] == "uniform":
        p0 = _stream(seed, 3).uniform(init["low"], init["high"], graph.n_edges)
    elif init["kind"] == "constant":
        p0 = init["value"]
    else:
        p0 = init["values"]
        if len(p0) != graph.n_edges:
            raise ScenarioError(f"init.values: expected {graph.n_edges} entries, got {len(p0)}")

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
        schedule=schedule,
        engine=engine,
        pheromone=p0,
        planted=planted,
    )


# ---------------------------------------------------------------------------
# Running a scenario
# ---------------------------------------------------------------------------


class TimeseriesRecorder:
    """Writes the per-edge time series every ``interval`` steps to the CSV
    file ``path`` as each snapshot is taken, so a run holds one snapshot's
    rows at a time, not all of them until it ends; an OSError on the file
    is a ScenarioError naming ``where`` (``output_errors``)."""

    def __init__(self, graph: DirectedGraph, interval: int, path: str, where: str) -> None:
        self.graph = graph
        self.interval = interval
        self.where = where
        with output_errors(where):
            self._fh = open(path, "w", newline="")
            self._writer = csv.writer(self._fh)
            self._writer.writerow(TIMESERIES_COLUMNS)

    def __call__(self, t, state, prev) -> None:
        if t % self.interval:
            return
        levels = normalized_levels(state, self.graph)
        columns = (
            self.graph.tails, self.graph.heads, state.p, state.f_edge, state.b_edge,
            levels.fwd, levels.bwd,
        )
        with output_errors(self.where):
            self._writer.writerows(
                [t, eid, *row] for eid, row in enumerate(zip(*(a.tolist() for a in columns)))
            )

    def close(self) -> None:
        with output_errors(self.where):
            self._fh.close()


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
    """Run ``scenario`` and write its artifacts to ``out_dir`` (the CLI's
    ``--out-dir``), or else to its ``outputs.dir``; a directory that cannot
    be made or written raises ScenarioError naming the one that chose it."""
    mat = scenario.materialized
    cfg = scenario.config
    graph = mat.graph
    state = init_state(graph, mat.pheromone, mat.schedule, mat.rule, strict=True)

    observers = []
    potential = None
    if "potential" in cfg["monitors"]:
        potential = PotentialObserver(mat.two_path)
        observers.append(potential)
    inv = None
    if "invariants" in cfg["monitors"]:
        inv = InvariantObserver(graph, mat.engine, mat.schedule)
        observers.append(inv)
    bound = None
    if "pheromone_bound" in cfg["monitors"]:
        p0max = float(np.max(state.p)) if state.p.size else 0.0
        T1 = warmup_time(p0max, mat.schedule.f0 + mat.schedule.b0, mat.engine.delta)
        bound = PheromoneBoundObserver(mat.engine.delta, T1)
        observers.append(bound)

    outputs = cfg["outputs"]
    where = "--out-dir" if out_dir else "outputs.dir"
    out_dir = out_dir or outputs["dir"]
    if out_dir:
        with output_errors(where):
            os.makedirs(out_dir, exist_ok=True)
    timeseries = summary = None
    if out_dir and outputs["csv"]:
        timeseries = TimeseriesRecorder(
            graph, outputs["snapshot_interval"], os.path.join(out_dir, "timeseries.csv"), where
        )
        summary = SummaryRecorder(potential)
        observers.extend([timeseries, summary])

    t0 = time.perf_counter()
    try:
        trace = run(state, graph, mat.rule, mat.schedule, mat.engine, cfg["steps"], observers)
    finally:
        if timeseries is not None:
            timeseries.close()
    runtime = time.perf_counter() - t0

    result = ScenarioResult(
        scenario=scenario,
        trace=trace,
        graph=graph,
        delta=mat.engine.delta,
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
        with output_errors(where):
            _write_artifacts(result, summary, outputs)
    return result


def _write_artifacts(result, summary, outputs) -> None:
    jp = lambda *parts: os.path.join(result.out_dir, *parts)
    with open(jp("scenario.json"), "w") as fh:
        fh.write(result.scenario.serialize())
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
    def single_edge_oracles(self) -> int:
        """Rows whose oracle is the direct s->d edge."""
        return sum(r.oracle_path.count(">") == 1 for r in self.rows)

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
            "invariant_violations": [r.invariant_violations for r in self.rows],
            "single_edge_oracles": self.single_edge_oracles,
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
    """Zero leakage and a shortest path planted where the family (a banded
    graph after its ladder) does not give a unique one; the oracle is that
    path. A grid's planted graph and oracle are built once per process
    (``_Grid.planted``)."""
    if family == "grid":
        return _grid(gen_grid, params["rows"], params["cols"]).planted
    if family == "banded_gnp":
        graph, _ = plant_band_ladder(graph, params["k"])
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
    delta = _draw_delta(rng)
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
    """Run a protocol preset; see ``batch_jobs`` for scale semantics. An
    ``out_dir`` (the CLI's ``--out-dir``) that cannot be made or written
    raises ScenarioError."""
    jobs = batch_jobs(preset, instances, base_seed, full_scale, epsilon, horizon, monitors)
    if out_dir:
        with output_errors("--out-dir"):
            os.makedirs(out_dir, exist_ok=True)
    if workers > 1:
        # imported here: it pulls in multiprocessing, which serial runs never use
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_instance, jobs))
    else:
        rows = [_instance(job) for job in jobs]
    rows.sort(key=lambda r: r.index)
    result = BatchResult(preset=preset, rows=rows)
    if out_dir:
        with output_errors("--out-dir"):
            result.write_csv(os.path.join(out_dir, "batch.csv"))
            with open(os.path.join(out_dir, "batch.json"), "w") as fh:
                json.dump(result.to_json_dict(), fh, indent=2)
    return result
