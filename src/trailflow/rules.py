"""Decision rules for splitting vertex flow across edges.

Two families:

* the linear rule, valid on any graph: flow divides in proportion to the
  pheromone on the candidate edges;
* the general family, valid only on two-parallel-path graphs: a monotone
  function g on [0, 1/2] with g(0)=0 and g(1/2)=1/2 receives the smaller of
  the two normalized pheromone levels at a branch point and returns the flow
  fraction for that minimum edge.

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


class RuleLinearAtResolution(RuleError):
    """The rule is indistinguishable from the identity at grid resolution."""


@dataclass(frozen=True)
class RuleFunction:
    """A member of the general rule family: g: [0, 1/2] -> [0, 1]."""

    name: str
    fn: Callable[[float], float]
    config: tuple = ()
    validation_grid: int = DEFAULT_GRID

    def __call__(self, x):
        return self.fn(x)

    def config_dict(self) -> dict:
        return dict(self.config)


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
    if k <= 0:
        raise RuleError("power exponent must be positive")
    coef = 2.0 ** (k - 1.0)

    def fn(x):
        return coef * x**k

    return RuleFunction(f"power({k:g})", fn, (("kind", "power"), ("k", float(k))))


def sine_rule(a: float) -> RuleFunction:
    """g(x) = x + a sin(4 pi x); monotone for |a| <= 1/(4 pi)."""

    def fn(x):
        return x + a * np.sin(4.0 * math.pi * x)

    return RuleFunction(f"sine({a:g})", fn, (("kind", "sine"), ("a", float(a))))


def table_rule(xs: Sequence[float], ys: Sequence[float]) -> RuleFunction:
    """Tabulated rule with linear interpolation; xs must cover [0, 1/2]."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys) or len(xs) < 2:
        raise RuleError("table rule needs matching xs/ys with at least 2 points")
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


def rule_from_config(cfg: dict) -> RuleFunction:
    """Build a rule from its config form: {kind: linear|power|sine|table, ...}.
    A non-object, or a missing or malformed parameter, raises RuleError."""
    if not isinstance(cfg, dict):
        raise RuleError(f"rule must be an object, got {cfg!r}")
    kind = cfg.get("kind")
    try:
        if kind == "linear":
            return linear_rule()
        if kind == "power":
            return power_rule(float(cfg["k"]))
        if kind == "sine":
            return sine_rule(float(cfg["a"]))
        if kind == "table":
            return table_rule(cfg["xs"], cfg["ys"])
    except RuleError:
        raise
    except KeyError as exc:
        raise RuleError(f"{kind} rule: missing parameter {exc}") from None
    except (TypeError, ValueError) as exc:
        raise RuleError(f"{kind} rule: {exc}") from None
    raise RuleError(f"unknown rule kind {kind!r}")


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
    """Check the family invariants on the validation grid; empty list = ok."""
    g = grid or rule.validation_grid
    xs = np.linspace(0.0, 0.5, g)
    ys = _eval_grid(rule, xs)
    violations: List[RuleViolation] = []
    if abs(ys[0]) > _ENDPOINT_TOL:
        violations.append(RuleViolation("endpoint", 0.0, f"g(0)={ys[0]!r} != 0"))
    if abs(ys[-1] - 0.5) > _ENDPOINT_TOL:
        violations.append(RuleViolation("endpoint", 0.5, f"g(1/2)={ys[-1]!r} != 1/2"))
    bad = np.nonzero(ys[:-1] > ys[1:] + _ENDPOINT_TOL)[0]
    if bad.size:
        i = int(bad[0])
        violations.append(
            RuleViolation(
                "monotonicity",
                float(xs[i]),
                f"g({xs[i]:.6g})={ys[i]:.6g} > g({xs[i + 1]:.6g})={ys[i + 1]:.6g}",
            )
        )
    out = np.nonzero((ys < -_ENDPOINT_TOL) | (ys > 1.0 + _ENDPOINT_TOL))[0]
    if out.size:
        i = int(out[0])
        violations.append(RuleViolation("range", float(xs[i]), f"g={ys[i]!r} outside [0,1]"))
    return violations


# ---------------------------------------------------------------------------
# Fixed points and stability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPointScan:
    """Fixed points of g on [0, 1/2].

    When the rule is the identity at grid resolution (|g-x| <= tol on at
    least 99% of samples) the scan reports that flag instead of a point
    list.
    """

    points: Tuple[float, ...]
    identically_fixed: bool
    frac_within_tol: float

    def __iter__(self):
        return iter(self.points)


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


def fixed_points(
    rule: RuleFunction, grid: int = DEFAULT_GRID, tol: float = DEFAULT_TOL
) -> FixedPointScan:
    """Sign-scan of g(x)-x plus bisection on each sign change; grid points
    with |g-x| <= tol included; 0 and 1/2 always included."""
    if grid < 64:
        raise RuleError("fixed-point grid must have at least 64 samples")
    xs = np.linspace(0.0, 0.5, grid)
    h = _eval_grid(rule, xs) - xs
    within = np.abs(h) <= tol
    frac = float(np.mean(within))
    if frac >= 0.99:
        return FixedPointScan((), True, frac)

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
    return FixedPointScan(tuple(dedup), False, frac)


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
    """Classify each fixed point by the local crossing of the diagonal:
    g(x) > x on a punctured left neighborhood and g(x) < x on a punctured
    right neighborhood (one-sided at the domain endpoints). The estimated
    neighborhood radius r_eps is the largest grid-resolvable one."""
    scan = fixed_points(rule, grid, tol)
    if scan.identically_fixed:
        return FixedPointReport((), (), {}, identically_fixed=True)
    xs = np.linspace(0.0, 0.5, grid)
    h = _eval_grid(rule, xs) - xs
    step = 0.5 / (grid - 1)

    stable: List[float] = []
    margins: Dict[float, StabilityMarginInfo] = {}
    for r in scan.points:
        idx = int(round(r / step))
        has_left = r > step / 2
        has_right = r < 0.5 - step / 2
        i = 1
        ok_steps = 0
        while True:
            il, ir = idx - i, idx + i
            left_ok = (not has_left) or (il >= 0 and h[il] > 0.0)
            right_ok = (not has_right) or (ir < grid and h[ir] < 0.0)
            if has_left and il < 0:
                left_ok = False
            if has_right and ir >= grid:
                right_ok = False
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
    return FixedPointReport(scan.points, tuple(stable), margins, False)


def stability_margin(
    rule: RuleFunction,
    r: float,
    eps_inner: float,
    r_eps: float,
    samples: int = 1025,
) -> float:
    """c_{g,r,eps''} = min over eps'' <= x <= r_eps of
    min(g(r-x)-(r-x), (r+x)-g(r+x)), each side counted only where it stays
    inside [0, 1/2]. Positive for a stable point; <= 0 signals the point is
    not stable at this resolution."""
    if not (0.0 < eps_inner <= r_eps):
        raise RuleError("need 0 < eps_inner <= r_eps")
    xs = np.linspace(eps_inner, r_eps, samples)
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
