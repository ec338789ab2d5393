"""Decision rules for splitting vertex flow across edges.

Two families:

* the linear rule, valid on any graph: flow divides in proportion to the
  pheromone on the candidate edges;
* the general family, valid on graphs whose in- and out-degrees are at most
  2: a vertex with one candidate edge passes its flow on, and at a vertex
  with two a monotone function g on [0, 1/2] with g(0)=0 and g(1/2)=1/2
  receives the smaller of the two normalized pheromone levels and returns
  the flow fraction for that minimum edge.

This module also analyzes the one-dimensional map g: its fixed points
(g(x) = x), the subset that are stable under the flow dynamics (g crosses
the diagonal downward), and the quantitative stability margin used by the
perturbation experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

DEFAULT_GRID = 4097
DEFAULT_TOL = 1e-10
_ENDPOINT_TOL = 1e-12


class RuleError(ValueError):
    """Raised for invalid rule definitions or rule inputs."""


@dataclass(frozen=True)
class RuleFunction:
    """A member of the general rule family: g: [0, 1/2] -> [0, 1]."""

    name: str
    fn: Callable[[float], float]
    config: tuple = ()
    validation_grid: int = DEFAULT_GRID


@dataclass(frozen=True)
class DecisionRule:
    """Either the linear proportional split or a general branch rule."""

    kind: str  # "linear" | "general"
    rule_fn: Optional[RuleFunction] = None

    @staticmethod
    def linear() -> "DecisionRule":
        return DecisionRule("linear")

    @staticmethod
    def general(rule_fn: RuleFunction) -> "DecisionRule":
        if rule_fn is None:
            raise RuleError("general decision rule needs a rule function")
        return DecisionRule("general", rule_fn)

    @property
    def is_linear(self) -> bool:
        return self.kind == "linear"


# ---------------------------------------------------------------------------
# Built-in rule functions
# ---------------------------------------------------------------------------


def linear_rule() -> RuleFunction:
    return RuleFunction("linear", lambda x: x, (("kind", "linear"),))


def power_rule(k: float) -> RuleFunction:
    """g(x) = 2^(k-1) x^k; k=2 gives 2x^2, k=1/2 gives sqrt(x/2)."""
    if not 0.0 < k < math.inf:
        raise RuleError("power exponent must be finite and positive")
    try:
        coef = 2.0 ** (k - 1.0)
    except OverflowError:
        raise RuleError(f"power exponent {k:g} too large: 2^(k-1) overflows") from None

    def fn(x):
        return coef * x**k

    return RuleFunction(f"power({k:g})", fn, (("kind", "power"), ("k", float(k))))


def sine_rule(a: float) -> RuleFunction:
    """g(x) = x + a sin(4 pi x); monotone for |a| <= 1/(4 pi)."""
    if not math.isfinite(a):
        raise RuleError("sine amplitude must be finite")

    def fn(x):
        return x + a * np.sin(4.0 * math.pi * x)

    return RuleFunction(f"sine({a:g})", fn, (("kind", "sine"), ("a", float(a))))


def table_rule(xs: Sequence[float], ys: Sequence[float]) -> RuleFunction:
    """Tabulated rule with linear interpolation; xs must cover [0, 1/2]."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys) or len(xs) < 2:
        raise RuleError("table rule needs matching xs/ys with at least 2 points")
    if not all(map(math.isfinite, xs + ys)):
        raise RuleError("table xs and ys must be finite")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise RuleError("table xs must be strictly increasing")
    if xs[0] != 0.0 or xs[-1] != 0.5:
        raise RuleError("table xs must span [0, 0.5] exactly")
    xa = np.asarray(xs)
    ya = np.asarray(ys)

    def fn(x):
        return np.interp(x, xa, ya)

    return RuleFunction(
        "table", fn, (("kind", "table"), ("xs", tuple(xs)), ("ys", tuple(ys)))
    )


# each rule kind's constructor and the config keys of its arguments
_RULE_KINDS = {
    "linear": (linear_rule, ()),
    "power": (power_rule, ("k",)),
    "sine": (sine_rule, ("a",)),
    "table": (table_rule, ("xs", "ys")),
}


def rule_from_config(cfg: dict) -> RuleFunction:
    """Build a rule from its config form: {kind: linear|power|sine|table, ...}.
    A non-object, an unknown kind or key, or a missing parameter raises
    RuleError, as does a parameter that is not a finite number (a bool or a
    string is none) or, for a table, a list of them."""
    if not isinstance(cfg, dict):
        raise RuleError(f"rule must be an object, got {cfg!r}")
    kind = cfg.get("kind")
    if kind not in _RULE_KINDS:
        raise RuleError(f"unknown rule kind {kind!r}")
    build, params = _RULE_KINDS[kind]
    unknown = sorted(set(cfg) - {"kind", *params}, key=str)
    if unknown:
        raise RuleError(f"{kind} rule: {unknown[0]}: unknown key")
    args = []
    for key in params:
        if key not in cfg:
            raise RuleError(f"{kind} rule: missing parameter {key!r}")
        value = cfg[key]
        if kind != "table":
            args.append(_finite(kind, key, value))
        elif isinstance(value, (list, tuple)):
            args.append([_finite(kind, key, v) for v in value])
        else:
            raise RuleError(f"{kind} rule: {key}: expected a list, got {value!r}")
    return build(*args)


def _finite(kind: str, key: str, value) -> float:
    """``value`` as a float; anything but a finite int or float raises."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond float range
            pass
    raise RuleError(f"{kind} rule: {key}: expected a finite number, got {value!r}")


def _eval_grid(rule: RuleFunction, xs: np.ndarray) -> np.ndarray:
    """g on the grid ``xs``: one call on the whole array when ``fn`` maps it
    elementwise, one call per point otherwise."""
    try:
        ys = np.asarray(rule.fn(xs), dtype=float)
        if ys.shape == xs.shape:
            return ys
    except Exception:
        pass
    return np.asarray([float(rule.fn(float(x))) for x in xs])


def clamp_unit_half(x: float) -> float:
    """Validate x in [0, 1/2], absorbing float slop up to 1e-12."""
    if -_ENDPOINT_TOL <= x < 0.0:
        return 0.0
    if 0.5 < x <= 0.5 + _ENDPOINT_TOL:
        return 0.5
    if not (0.0 <= x <= 0.5):
        raise RuleError(f"normalized minimum {x!r} outside [0, 1/2]")
    return float(x)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuleViolation:
    kind: str  # endpoint | monotonicity | range
    x: float
    detail: str


def validate_rule(rule: RuleFunction, grid: Optional[int] = None) -> List[RuleViolation]:
    """Check the family invariants on the validation grid; empty list = ok.
    Each test is written so that a value it cannot compare (NaN) fails it."""
    g = grid or rule.validation_grid
    xs = np.linspace(0.0, 0.5, g)
    ys = _eval_grid(rule, xs)
    violations: List[RuleViolation] = []
    if not abs(ys[0]) <= _ENDPOINT_TOL:
        violations.append(RuleViolation("endpoint", 0.0, f"g(0)={ys[0]!r} != 0"))
    if not abs(ys[-1] - 0.5) <= _ENDPOINT_TOL:
        violations.append(RuleViolation("endpoint", 0.5, f"g(1/2)={ys[-1]!r} != 1/2"))
    bad = np.nonzero(~(ys[:-1] <= ys[1:] + _ENDPOINT_TOL))[0]
    if bad.size:
        i = int(bad[0])
        violations.append(
            RuleViolation(
                "monotonicity",
                float(xs[i]),
                f"g({xs[i]:.6g})={ys[i]:.6g} > g({xs[i + 1]:.6g})={ys[i + 1]:.6g}",
            )
        )
    out = np.nonzero(~((ys >= -_ENDPOINT_TOL) & (ys <= 1.0 + _ENDPOINT_TOL)))[0]
    if out.size:
        i = int(out[0])
        violations.append(RuleViolation("range", float(xs[i]), f"g={ys[i]!r} outside [0,1]"))
    return violations


# ---------------------------------------------------------------------------
# Fixed points and stability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityMarginInfo:
    r_eps: float
    gap: float


@dataclass(frozen=True)
class FixedPointReport:
    fixed_points: Tuple[float, ...]
    stable_points: Tuple[float, ...]
    margins: Dict[float, StabilityMarginInfo]
    identically_fixed: bool = False


def _scan(
    rule: RuleFunction, grid: int, tol: float
) -> Tuple[Optional[Tuple[float, ...]], np.ndarray]:
    """The fixed points of g on [0, 1/2] and g(x)-x on the grid scanned: a
    sign-scan of g(x)-x plus bisection on each sign change, grid points with
    |g-x| <= tol included, 0 and 1/2 always included. The points are None
    when the rule is the identity at grid resolution (|g-x| <= tol on at
    least 99% of samples)."""
    if grid < 64:
        raise RuleError("fixed-point grid must have at least 64 samples")
    xs = np.linspace(0.0, 0.5, grid)
    h = _eval_grid(rule, xs) - xs
    within = np.abs(h) <= tol
    if float(np.mean(within)) >= 0.99:
        return None, h

    pts: List[float] = [0.0, 0.5]
    pts.extend(float(x) for x in xs[within])
    hf = lambda x: float(rule.fn(float(x))) - float(x)
    for i in range(grid - 1):
        a, b = float(xs[i]), float(xs[i + 1])
        ha, hb = float(h[i]), float(h[i + 1])
        if ha * hb < 0.0:
            pts.append(_bisect(hf, a, b, ha, tol))
    pts.sort()
    dedup: List[float] = []
    for x in pts:
        if not dedup or x - dedup[-1] > tol:
            dedup.append(x)
    return tuple(dedup), h


def _bisect(h: Callable[[float], float], a: float, b: float, ha: float, tol: float) -> float:
    while b - a > tol:
        mid = 0.5 * (a + b)
        hm = h(mid)
        if abs(hm) <= tol:
            return mid
        if (ha < 0) == (hm < 0):
            a, ha = mid, hm
        else:
            b = mid
    return 0.5 * (a + b)


def stable_fixed_points(
    rule: RuleFunction, grid: int = DEFAULT_GRID, tol: float = DEFAULT_TOL
) -> FixedPointReport:
    """The fixed points of g (``_scan``), each classified by the local
    crossing of the diagonal: g(x) > x on a punctured left neighborhood and
    g(x) < x on a punctured right neighborhood (one-sided at the domain
    endpoints). The estimated neighborhood radius r_eps is the largest
    grid-resolvable one."""
    points, h = _scan(rule, grid, tol)
    if points is None:
        return FixedPointReport((), (), {}, identically_fixed=True)
    step = 0.5 / (grid - 1)

    stable: List[float] = []
    margins: Dict[float, StabilityMarginInfo] = {}
    for r in points:
        idx = int(round(r / step))
        has_left = r > step / 2
        has_right = r < 0.5 - step / 2
        i = 1
        ok_steps = 0
        while True:
            il, ir = idx - i, idx + i
            left_ok = (not has_left) or (il >= 0 and h[il] > 0.0)
            right_ok = (not has_right) or (ir < grid and h[ir] < 0.0)
            if left_ok and right_ok:
                ok_steps = i
                i += 1
            else:
                break
        if ok_steps >= 1:
            r_eps = ok_steps * step
            gap = stability_margin(rule, r, r_eps / 2.0, r_eps)
            if gap > 0.0:
                stable.append(r)
                margins[r] = StabilityMarginInfo(r_eps=r_eps, gap=gap)
    return FixedPointReport(points, tuple(stable), margins, False)


def stability_margin(rule: RuleFunction, r: float, eps_inner: float, r_eps: float) -> float:
    """c_{g,r,eps''} = min over eps'' <= x <= r_eps (1025 samples) of
    min(g(r-x)-(r-x), (r+x)-g(r+x)), each side counted only where it stays
    inside [0, 1/2]. Positive for a stable point; <= 0 signals the point is
    not stable at this resolution."""
    if not (0.0 < eps_inner <= r_eps):
        raise RuleError("need 0 < eps_inner <= r_eps")
    xs = np.linspace(eps_inner, r_eps, 1025)
    best = math.inf
    for x in xs:
        vals = []
        lo = r - x
        hi = r + x
        if lo >= -_ENDPOINT_TOL:
            lo = max(lo, 0.0)
            vals.append(float(rule.fn(lo)) - lo)
        if hi <= 0.5 + _ENDPOINT_TOL:
            hi = min(hi, 0.5)
            vals.append(hi - float(rule.fn(hi)))
        if vals:
            best = min(best, min(vals))
    if best is math.inf:
        raise RuleError("stability margin undefined: no valid sample in range")
    return best
