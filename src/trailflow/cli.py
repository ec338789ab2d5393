"""Command-line interface.

Subcommands: ``run`` (single scenario), ``batch`` (protocol preset or
scenario file), ``analyze-rule`` (fixed points / stable points report),
``counterexample`` (construct and verify a non-linear-rule counterexample),
``swap-demo`` (unidirectional swap experiment).

Exit codes: 0 success, 1 invariant violation or failed verification,
2 configuration error, 3 engine abort.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, Optional

from .adversarial import (
    flow_counterexample,
    leakage_counterexample,
    run_counterexample,
    run_positive_control,
    swap_demo_batch,
    unidirectional_swap_demo,
)
from .dynamics import ConfigError, DecisionRule
from .graph import build_two_path
from .rules import (
    DEFAULT_GRID,
    RuleError,
    rule_from_config,
    stable_fixed_points,
    validate_rule,
)
from .scenarios import (
    Scenario,
    ScenarioError,
    output_errors,
    parse_scenario,
    run_batch,
    run_scenario,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_ABORT = 3


def _arg(conv: Callable, ok: Callable, message: str) -> Callable:
    """An argparse ``type=``: convert the text with ``conv`` and require
    ``ok``; argparse reports a failure with the flag's name and exits 2."""

    def parse(text: str):
        value = conv(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{message}, got {text}")
        return value

    parse.__name__ = conv.__name__  # argparse names it in "invalid int value"
    return parse


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line like any other configuration error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"config error: {message}\n")


_COUNT = _arg(int, lambda v: v >= 1, "must be >= 1")
_SEED = _arg(int, lambda v: v >= 0, "must be >= 0")
_PATH_EDGES = _arg(int, lambda v: v >= 2, "must be >= 2")
_POSITIVE = _arg(float, lambda v: 0 < v < math.inf, "must be a finite number > 0")
_NONNEG = _arg(float, lambda v: 0 <= v < math.inf, "must be a finite number >= 0")
_UNIT = _arg(float, lambda v: 0 < v < 1, "must lie in (0, 1)")


def _load_scenario(path: str, overrides: dict) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable or not text
        raise ScenarioError(f"config: {exc}") from None
    if isinstance(doc, dict):  # anything else is rejected by parse_scenario
        doc.update((key, val) for key, val in overrides.items() if val is not None)
    return parse_scenario(doc)


def _cmd_run(args) -> int:
    scenario = _load_scenario(
        args.config,
        {"seed": args.seed, "steps": args.steps, "epsilon": args.epsilon},
    )
    result = run_scenario(scenario, out_dir=args.out_dir)
    trace = result.trace
    print(f"scenario {scenario.name}: stop={trace.stop_reason} t={trace.final_state.t}")
    if trace.converged_path is not None:
        print(f"converged to {trace.converged_path} at t={trace.converged_t}")
    if trace.failure:
        print(f"engine abort at t={trace.failure_t}: {trace.failure}", file=sys.stderr)
    if result.invariant_violations or result.bound_violations:
        print(
            f"monitor violations: invariants={result.invariant_violations} "
            f"bound={result.bound_violations}",
            file=sys.stderr,
        )
    return result.exit_code


def _cmd_batch(args) -> int:
    if args.preset:
        result = run_batch(
            args.preset,
            instances=args.instances,
            base_seed=args.seed,
            workers=args.workers,
            full_scale=args.full_scale,
            epsilon=args.epsilon or 0.01,
            horizon=args.steps,
            monitors=args.monitors,
            out_dir=args.out_dir,
        )
        print(
            f"{result.preset}: {len(result.rows)} instances, "
            f"match rate {result.match_rate:.3f}, "
            f"{result.single_edge_oracles} single-edge oracles, {result.total_runtime_s:.1f}s"
        )
        for row in result.rows:
            if not row.match:
                print(
                    f"  mismatch #{row.index} ({row.family}): got "
                    f"{row.converged_path or '<none>'} expected {row.oracle_path}",
                    file=sys.stderr,
                )
            if row.invariant_violations:
                print(
                    f"  invariant violations #{row.index} ({row.family}): "
                    f"{row.invariant_violations}",
                    file=sys.stderr,
                )
        violated = any(row.invariant_violations for row in result.rows)
        return EXIT_OK if result.match_rate == 1.0 and not violated else EXIT_VIOLATION
    # scenario-file batch: same scenario re-seeded per instance
    count = args.instances or 10
    mismatches = 0
    aborts = 0
    for i in range(count):
        scenario = _load_scenario(
            args.config, {"seed": args.seed + i, "steps": args.steps, "epsilon": args.epsilon}
        )
        result = run_scenario(
            scenario,
            out_dir=os.path.join(args.out_dir, f"instance_{i:04d}") if args.out_dir else None,
        )
        if result.trace.stop_reason == "aborted":
            aborts += 1
        elif result.exit_code == EXIT_VIOLATION:
            mismatches += 1
        status = result.trace.converged_path or result.trace.stop_reason
        print(f"instance {i}: {status}")
    if aborts:
        return EXIT_ABORT
    return EXIT_VIOLATION if mismatches else EXIT_OK


def _cmd_analyze_rule(args) -> int:
    rule = rule_from_config(json.loads(args.rule))
    violations = validate_rule(rule, args.grid)
    if violations:
        doc = {
            "rule": rule.name,
            "valid": False,
            "violations": [v.detail for v in violations],
        }
    else:
        report = stable_fixed_points(rule, grid=args.grid, tol=args.tol)
        doc = {
            "rule": rule.name,
            "valid": True,
            "identically_fixed": report.identically_fixed,
            "fixed_points": list(report.fixed_points),
            "stable_points": list(report.stable_points),
            "margins": {
                repr(r): {"r_eps": m.r_eps, "gap": m.gap} for r, m in report.margins.items()
            },
        }
    text = json.dumps(doc, indent=2)
    print(text)
    if args.out:
        with output_errors("--out"), open(args.out, "w") as fh:
            fh.write(text)
    return EXIT_VIOLATION if violations else EXIT_OK


def _cmd_counterexample(args) -> int:
    rule = rule_from_config(json.loads(args.rule))
    two_path = build_two_path(args.m, args.n, [0.0] * (args.m - 1), [0.0] * (args.n - 1))
    if args.kind == "leakage":
        cx = leakage_counterexample(
            rule, two_path, args.fs, args.bd, r=args.r, eps=args.eps
        )
        horizon = args.steps or 100_000
    else:
        cx = flow_counterexample(rule, two_path, args.f0, mu=args.mu, r=args.r, eps=args.eps)
        horizon = args.steps or 10_000
    if args.out_dir:
        with output_errors("--out-dir"):
            os.makedirs(args.out_dir, exist_ok=True)
    report, trace, _ = run_counterexample(cx, horizon, delta=args.delta)
    control = run_positive_control(cx, args.control_steps, delta=args.delta)
    doc = {
        "rule": rule.name,
        "kind": args.kind,
        "r": cx.config.r,
        "eps": cx.config.eps,
        "c_eps": cx.config.c_eps,
        "c_g": cx.config.c_g,
        "case": cx.config.case,
        "constraint": cx.config.constraint,
        "horizon": horizon,
        "invariant_held": report.ok,
        "flow_bounds_held": report.flow_bound_violations == 0,
        "first_violation_t": report.first_violation_t,
        "positive_control_converged": str(control.converged_path)
        if control.converged_path
        else None,
    }
    text = json.dumps(doc, indent=2)
    print(text)
    if args.out_dir:
        with output_errors("--out-dir"):
            with open(os.path.join(args.out_dir, "counterexample.json"), "w") as fh:
                fh.write(text)
    if trace.failure:
        print(f"engine abort at t={trace.failure_t}: {trace.failure}", file=sys.stderr)
        return EXIT_ABORT
    control_ok = control.converged_path == cx.two_path.top
    return EXIT_OK if report.ok and control_ok else EXIT_VIOLATION


def _cmd_swap_demo(args) -> int:
    two_path = build_two_path(args.m, args.n, [0.0] * (args.m - 1), [0.0] * (args.n - 1))
    if args.seeds:
        reports, rate = swap_demo_batch(two_path, args.seeds, base_seed=args.seed, T=args.steps)
        doc = {
            "mode": "batch",
            "seeds": args.seeds,
            "flip_rate": rate,
            "degenerate": sum(r.degenerate for r in reports),
        }
        ok = rate == 1.0
    else:
        rep = unidirectional_swap_demo(
            two_path, DecisionRule.linear(), args.p_top, args.p_bottom, T=args.steps
        )
        doc = {
            "mode": "single",
            "base_branch": rep.base_branch,
            "swapped_branch": rep.swapped_branch,
            "flipped": rep.flipped,
            "degenerate": rep.degenerate,
        }
        ok = rep.flipped or rep.degenerate
    print(json.dumps(doc, indent=2))
    return EXIT_OK if ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trailflow",
        description="Simulate and analyze bidirectional pheromone-guided flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a single scenario from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("batch", help="run a protocol preset or a re-seeded scenario")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=["appendixC-leakage", "appendixC-increasing"])
    group.add_argument("--config")
    p.add_argument("--instances", type=_COUNT, default=0)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--steps", type=_COUNT)
    p.add_argument("--epsilon", type=_UNIT)
    p.add_argument("--workers", type=_COUNT, default=1)
    p.add_argument("--full-scale", action="store_true")
    p.add_argument("--monitors", action="store_true")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("analyze-rule", help="fixed points and stable points of a rule")
    p.add_argument("--rule", required=True, help='JSON, e.g. {"kind":"power","k":2}')
    p.add_argument(
        "--grid", type=_arg(int, lambda v: v >= 64, "must be >= 64"), default=DEFAULT_GRID
    )
    p.add_argument("--tol", type=_POSITIVE, default=1e-10)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze_rule)

    p = sub.add_parser("counterexample", help="construct and verify a counterexample")
    p.add_argument("--rule", required=True)
    p.add_argument("--kind", choices=["leakage", "flow"], required=True)
    p.add_argument("--m", type=_PATH_EDGES, default=2)
    p.add_argument("--n", type=_PATH_EDGES, default=3)
    p.add_argument("--fs", type=_POSITIVE, default=1.0)
    p.add_argument("--bd", type=_POSITIVE, default=1.0)
    p.add_argument("--f0", type=_POSITIVE, default=1.0)
    p.add_argument("--mu", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=_UNIT, default=0.5)
    p.add_argument("--steps", type=_COUNT)
    p.add_argument("--control-steps", type=_COUNT, default=100_000)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("swap-demo", help="unidirectional pheromone swap experiment")
    p.add_argument("--m", type=_PATH_EDGES, default=2)
    p.add_argument("--n", type=_PATH_EDGES, default=3)
    p.add_argument("--p-top", type=_NONNEG, default=2.0)
    p.add_argument("--p-bottom", type=_NONNEG, default=1.0)
    p.add_argument("--seeds", type=_SEED, default=0)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--steps", type=_COUNT, default=200)
    p.set_defaults(func=_cmd_swap_demo)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is _cmd_batch and args.config and (
        args.full_scale or args.monitors or args.workers > 1
    ):
        parser.error("--full-scale, --monitors and --workers > 1 apply to --preset only")
    try:
        return args.func(args)
    except (ScenarioError, ConfigError, RuleError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
