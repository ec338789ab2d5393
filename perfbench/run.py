"""trailflow benchmark: seeded workloads, end-to-end metrics and a traced
run for the per-layer metrics.

    python3 perfbench/run.py --workload large-gnp --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 0 --seconds 5          # all four workloads

Run from the repository root. The benchmark imports trailflow from ``src/``
next to this directory and changes nothing there. Each run:

1. imports trailflow, and times ``IMPORT_REPS - 1`` more imports in fresh
   interpreters, then sets the workload up ``SETUP_REPS`` times (inputs
   from the seed plus one untimed warm-up op); ``setup_s`` is the median
   import time plus the median set-up;
2. issues ops serially, one after another, for ``--seconds`` and at least
   ``MIN_OPS`` ops, timing each call, with only call counters installed, and
   times the host-speed reference between ops (``hostspeed.py``); every
   end-to-end timing is normalized by the reference samples around it, and
   the report line carries the raw timings too;
3. checks each op's output and counts failures;
4. with ``--trace 1``, also sets up a second copy with timing spans on every
   patched call and runs each op on both copies in turn; it requires
   identical per-op counts and outcomes and reports the per-layer metrics
   instead of the end-to-end ones.

Report lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, the latter
holding the metrics ``BENCHMARK.json`` names (``end_to_end`` untraced,
``per_layer`` traced).
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
from tracing import FINGERPRINT_COUNTS, Probe, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 50  # so that at least 10 latency samples lie beyond p80
SETUP_REPS = 3
IMPORT_REPS = 5
# counts kept per op; the flush and zero-split tallies are read in traced runs only
PER_OP_COUNTS = FINGERPRINT_COUNTS + ("dynamics.flushes", "dynamics.zero_splits")


# timed in a fresh interpreter; prints the seconds the import took
_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import trailflow, trailflow.adversarial, trailflow.equilibria, trailflow.scenarios; "
    "print(time.perf_counter() - t0)"
)


@functools.cache
def import_trailflow():
    """Import trailflow from this checkout's ``src/``; returns the package
    and the median seconds an import takes, over this first import and
    ``IMPORT_REPS - 1`` imports in fresh interpreters.

    Import time is not normalized for host speed: it did not follow the
    reference (``hostspeed.py``), but it did vary from process to process."""
    if not (SRC / "trailflow" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no trailflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import trailflow
    import trailflow.adversarial
    import trailflow.equilibria
    import trailflow.scenarios

    times = [perf_counter() - t0]
    if Path(trailflow.__file__).resolve().parent != SRC / "trailflow":
        raise SystemExit(f"perfbench: imported trailflow from {trailflow.__file__}, not {SRC}")
    for _ in range(IMPORT_REPS - 1):
        child = subprocess.run(
            [sys.executable, "-c", _IMPORT, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(child.stdout))
    return trailflow, statistics.median(times)


def run_ops(lanes, n_ops: int, seconds: float, speed) -> list:
    """Issue ops 0, 1, ... until ``seconds`` have passed and at least
    ``n_ops`` ran, timing each program call. Each lane is a (workload,
    probe) pair built from the same seed; op ``k`` runs on every lane in
    turn, so that lanes see the same machine conditions. Between ops, at
    least ``hostspeed.EVERY_S`` apart, ``speed`` takes a reference sample,
    which no op interval includes."""
    results = [
        {"starts": [], "latencies": [], "loop": [], "per_op_counts": [], "outcomes": [],
         "failures": []}
        for _ in lanes
    ]
    speed.sample(hostspeed.NEAR)
    start = perf_counter()
    k = 0
    while k < n_ops or perf_counter() - start < seconds:
        for (workload, probe), res in zip(lanes, results):
            t_loop = perf_counter()
            call = workload.prepare(k)
            counts = probe.counts
            before = [counts[key] for key in PER_OP_COUNTS]
            with probe:
                probe.op = k
                t0 = perf_counter()
                try:
                    result = call()
                except Exception as exc:  # an op that raises is a failed op; keep going
                    res["latencies"].append(perf_counter() - t0)
                    reason = f"{type(exc).__name__}: {exc}"
                    outcome = ("raised", type(exc).__name__)
                else:
                    res["latencies"].append(perf_counter() - t0)
                    reason = workload.check(result)
                    outcome = workload.outcome(result)
                probe.op = -1
            res["starts"].append(t0)
            res["per_op_counts"].append(
                {key: counts[key] - b for key, b in zip(PER_OP_COUNTS, before)}
            )
            res["outcomes"].append(outcome)
            if reason:
                res["failures"].append(f"op {k}: {reason}")
            res["loop"].append(perf_counter() - t_loop)
        k += 1
        if speed.due():
            speed.sample()
    speed.sample(hostspeed.NEAR)
    return results


def fingerprint(ops: dict, first: int, keys) -> dict:
    """Exact counts and a digest of the outcomes of the first ``first``
    ops."""
    out = {key: sum(c[key] for c in ops["per_op_counts"][:first]) for key in keys}
    out["outcome_digest"] = hashlib.sha256(repr(ops["outcomes"][:first]).encode()).hexdigest()[:16]
    out["ops"] = min(first, len(ops["outcomes"]))
    return out


def set_up(cls, tf, probe, seed):
    with probe:
        workload = cls(tf, probe, seed)
        workload.warm_up()
    return workload


def measure(name, seed, seconds, trace, min_ops=MIN_OPS, setup_reps=SETUP_REPS) -> dict:
    """Run one workload; returns its report: failures, the exact-count
    fingerprint and either the end-to-end metrics or, when traced, the
    per-layer metrics.

    A traced run interleaves an untraced and a traced copy of the workload
    op by op; the untraced copy gives the failures, the fingerprint and the
    base of the tracing overhead."""
    tf, import_s = import_trailflow()
    cls = WORKLOADS[name]
    speed = hostspeed.HostSpeed()
    speed.sample(hostspeed.NEAR)
    probe = Probe(tf, "count")
    setups, setup_starts = [], []
    for _ in range(setup_reps):
        workload = None
        gc.collect()  # graphs hold reference cycles; free the previous set-up first
        t0 = perf_counter()
        workload = set_up(cls, tf, probe, seed)
        setups.append(perf_counter() - t0)
        setup_starts.append(t0)
        speed.sample(hostspeed.NEAR)
    lanes = [(workload, probe)]
    if trace:
        tprobe = Probe(tf, "trace")
        lanes.append((set_up(cls, tf, tprobe, seed), tprobe))
    results = run_ops(lanes, min_ops, seconds, speed)
    for (w, p), res in zip(lanes, results):
        with p:
            end_failures = w.finish()
        if end_failures:
            res["failures"].append("end of run: " + "; ".join(end_failures))
    ops = results[0]
    lat = ops["latencies"]
    attempted = len(lat) + workload.end_checks
    report = {
        "workload": name,
        "seed": seed,
        "samples": len(lat),
        "attempted": attempted,
        "failed": len(ops["failures"]),
        "failures": ops["failures"][:10],
        "fingerprint": fingerprint(ops, min_ops, FINGERPRINT_COUNTS),
        "mismatches": [],
    }
    if trace:
        traced = results[1]
        for k, (a, b) in enumerate(zip(ops["per_op_counts"], traced["per_op_counts"])):
            if any(a[key] != b[key] for key in FINGERPRINT_COUNTS):
                report["mismatches"].append(f"op {k}: counts {a} untraced, {b} traced")
        for k, (a, b) in enumerate(zip(ops["outcomes"], traced["outcomes"])):
            if a != b:
                report["mismatches"].append(f"op {k}: outcome {a} untraced, {b} traced")
        overhead = statistics.median(traced["latencies"]) / statistics.median(lat)
        report["traced_fingerprint"] = fingerprint(traced, min_ops, PER_OP_COUNTS)
        report["per_layer"] = layer_metrics(tprobe, report["traced_fingerprint"], overhead)
        return report

    # timings are normalized to the host-speed reference (see hostspeed.py);
    # the raw ones are printed too
    factors = [speed.factor(t, cls.host_mix) for t in ops["starts"]]
    norm_lat = [x * f for x, f in zip(lat, factors)]
    norm_loop = [x * f for x, f in zip(ops["loop"], factors)]
    norm_setup = [x * speed.factor(t, hostspeed.SETUP_MIX) for x, t in zip(setups, setup_starts)]
    steps = sum(c["dynamics.step"] for c in ops["per_op_counts"])

    def timings(lat, loop):
        q = statistics.quantiles(lat, n=10)
        return {
            "ops_per_s": (len(lat) / sum(loop), "ops/s"),
            "op_ms.p50": (q[4] * 1e3, "ms"),
            "op_ms.p80": (q[7] * 1e3, "ms"),
            "steps_per_s": (steps / sum(lat), "steps/s"),
        }

    e2e = {"setup_s": (import_s + statistics.median(norm_setup), "s")}
    e2e.update(timings(norm_lat, norm_loop))
    e2e["fail_frac"] = (report["failed"] / attempted, "ratio")
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    p80 = e2e["op_ms.p80"][0] / 1e3
    report["samples_beyond_p80"] = sum(1 for x in norm_lat if x > p80)
    report["raw"] = {k: v for k, (v, _) in timings(lat, ops["loop"]).items()}
    report["raw_setup_s"] = {"import": import_s, "set_ups": setups}
    report["host_ref_ms"] = {
        "dispatch": statistics.median(speed.dispatch) * 1e3,
        "kernel": statistics.median(speed.kernel) * 1e3,
    }
    report["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    return report


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "seed": seed,
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """HEAD of the checkout, read from ``.git`` without running git; None
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def print_report(report: dict, section: str) -> None:
    print(json.dumps({k: v for k, v in report.items() if k != section}))
    for name, m in report[section].items():
        print(f"  {report['workload']:<22} {name:<30} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        report = measure(name, args.seed, args.seconds, bool(args.trace))
        if not reports:
            print(json.dumps({"environment": environment(args.seed)}))
        print_report(report, section)
        reports.append(report)

    metrics = {}
    for report in reports:
        measured = report[section]
        missing = [m for m in wanted if m not in measured]
        if missing:
            print(f"perfbench: {report['workload']} did not measure {missing}", file=sys.stderr)
            return 1
        prefix = "" if len(reports) == 1 else report["workload"] + "."
        metrics.update({prefix + m: measured[m] for m in wanted})
    print(json.dumps({
        "correct": all(r["failed"] == 0 and not r["mismatches"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
