"""Run one workload in this process and print its measurements as one JSON line.

    python perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]

Started by run.py, which sets PYTHONPATH to the checkout's src/.  The loop
is closed with one caller: each operation starts when the previous one and
its output check are done.  Whole passes run until --seconds have passed and
the run holds enough samples for the workload's tail percentile.

With --trace 1 every pass runs twice on the same inputs, once plain and once
with the tracer's wrappers installed (the order alternates between passes);
the per-layer figures come from the traced half, and the difference between
the halves is reported as the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
from array import array
from fractions import Fraction
from time import perf_counter

if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

import factoradic as fc  # noqa: E402
import factoradic.core  # noqa: E402

from tracer import TRACED, Tracer  # noqa: E402
from workloads import LADDER, STAGES, WORKLOADS  # noqa: E402

HARD_CAP_S = 120  # no pass starts after this, so a run ends well within 180 s
THRESHOLDS = ("_BIG_BITS", "_BIG_DIGITS", "_BIG_PERM", "_LEAF")


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for q in TRACED:
        out += [
            (f"{q}.calls", "count", "higher"),
            (f"{q}.busy_s", "s", "lower"),
            (f"{q}.share", "ratio", "lower"),
            (f"{q}.errors", "count", "lower"),
        ]
    out += [(f"{st}.s{s}_ms", "ms", "lower") for st in STAGES for s in LADDER]
    out += [
        ("modular.residue.useful_entries_ratio", "ratio", "higher"),
        ("rules.generate_rule.terms_per_column", "terms/column", "lower"),
        ("cli.process_ms", "ms", "lower"),
        ("cli.main_ms", "ms", "lower"),
        ("cli.startup_ms", "ms", "lower"),
        ("cli.overhead_ms", "ms", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


def min_samples(q: Fraction) -> int:
    """Fewest samples that leave ten beyond the nearest-rank q-quantile."""
    n = 11
    while n - math.ceil(q * n) < 10:
        n += 1
    return n


def nearest_rank(ordered, q: Fraction) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_commit(root: str) -> str:
    """HEAD commit read from root/.git, without running git; "unknown" if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "factoradic": getattr(fc, "__version__", "unknown"),
        "thresholds": {t: getattr(factoradic.core, t, None) for t in THRESHOLDS},
    }


def measure(workload, seed: int, seconds: float, trace: bool, spans_path):
    q = Fraction(workload.tail_q) / 100
    need = min_samples(q)
    tracer = Tracer() if trace else None
    latencies = array("d")
    pass_medians = []  # median latency of each plain pass
    plain_s = traced_s = 0.0  # op time of each half, for the tracing overhead
    traced_wall = 0.0  # wall time of the traced half, the base of .share
    attempted = failed = 0
    failures: list[str] = []
    by_kind: dict[str, list] = {}  # kind -> [ops, seconds], untraced half
    op_id = 0
    index = 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if elapsed >= HARD_CAP_S or (elapsed >= seconds and (trace or len(latencies) >= need)):
            break
        rng = random.Random(f"{workload.name}:{seed}:{index}")
        ops = workload.make_pass(rng, index)
        modes = (False, True) if index % 2 == 0 else (True, False)
        for traced in modes if trace else (False,):
            if traced:
                tracer.install()
            t_mode = perf_counter()
            first = len(latencies)
            try:
                for op in ops:
                    attempted += 1
                    good = False
                    note = f"{op[0]}: wrong result"
                    t0 = perf_counter()
                    try:
                        if traced:
                            tracer.op_id = op_id
                            result = tracer.call("op." + op[0], workload.run_traced, op)
                        else:
                            result = workload.run(op)
                        t1 = perf_counter()
                        good = workload.check(op, result)
                        if good and not traced:
                            workload.observe(op, result, index)
                        if traced:
                            good = workload.after_traced(op_id, op, t1 - t0) and good
                    except Exception as exc:  # a failed op is counted, never fatal
                        t1 = perf_counter()
                        note = f"{op[0]}: {type(exc).__name__}: {exc}"[:300]
                    op_id += 1
                    if not good:
                        failed += 1
                        if len(failures) < 5:
                            failures.append(note)
                    if traced:
                        traced_s += t1 - t0
                    else:
                        plain_s += t1 - t0
                        row = by_kind.setdefault(op[0], [0, 0.0])
                        row[0] += 1
                        row[1] += t1 - t0
                        if good:
                            latencies.append(t1 - t0)
            finally:
                if traced:
                    traced_wall += perf_counter() - t_mode
                    tracer.uninstall()
            if not traced and len(latencies) > first:
                pass_medians.append(statistics.median(latencies[first:]))
        del ops  # so the next pass's inputs are not built beside these
        index += 1
    wall = perf_counter() - start
    # read before the statistics below, whose sorted copy is not the program's
    who = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    peak_rss_kb = resource.getrusage(who).ru_maxrss

    ordered = sorted(latencies)
    out = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "passes": index,
        "wall_s": wall,
        "op_s": plain_s,
        "op_s_by_kind": by_kind,
        "ops_per_s": len(ordered) / plain_s if plain_s else 0.0,
        # a shared virtual machine can switch between a fast and a slow state
        # every few seconds: the median of a whole run then flips between the
        # two, while the mean of per-pass medians moves with the time in each
        "latency_p50_ms": statistics.fmean(pass_medians) * 1e3 if pass_medians else 0.0,
        "latency_tail_ms": nearest_rank(ordered, q) * 1e3 if ordered else 0.0,
        "tail_percentile": workload.tail_q,
        "percentiles_ms": {
            p: nearest_rank(ordered, Fraction(p) / 100) * 1e3
            for p in ("90", "99", "99.9", "99.99")
            if len(ordered) - math.ceil(Fraction(p) / 100 * len(ordered)) >= 10
        },
        "samples": len(ordered),
        "samples_needed": need,
        "peak_rss_mb": peak_rss_kb / 1024,
        "extra": workload.record(),
    }
    if trace:
        out["per_layer"] = layer_metrics(workload, tracer, traced_wall, traced_s, plain_s)
        if spans_path:
            tracer.write(spans_path)
            out["spans"] = spans_path
    return out


def layer_metrics(workload, tracer, wall: float, traced_s: float, plain_s: float) -> dict:
    """Every per-layer metric as {"value", "unit"}; 0 where the workload has no calls."""
    values = {}
    summary = tracer.summary()
    for q in TRACED:
        row = summary.get(q)
        if row:
            values[f"{q}.calls"] = row["calls"]
            values[f"{q}.busy_s"] = row["busy_s"]
            values[f"{q}.share"] = row["busy_s"] / wall if wall else 0.0
            values[f"{q}.errors"] = row["errors"]
    values.update(workload.layer_metrics(tracer))
    values["trace.overhead_ratio"] = traced_s / plain_s - 1 if plain_s else 0.0
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit, _ in per_layer_names()
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workload = WORKLOADS[args.workload]()
    out = measure(workload, args.seed, args.seconds, bool(args.trace), args.spans)
    out["env"] = environment(root)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
