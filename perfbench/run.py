"""Benchmark of the factoradic package: codec, residues/rules and the CLI.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  Each workload runs in its own worker process (worker.py).
With --trace 0 the end-to-end metrics are printed; with --trace 1 the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the lines before
it give the same figures as a table, the environment record, and, for
codec_large, the per-rung stage table.  A full record of each run is written
to perfbench/out/<workload>-trace<0|1>.json (spans: <workload>.spans.json.gz).

Exit status: 0 when every output check passed, 1 when one failed or a worker
did not finish, 2 when the checkout holds no package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("codec_small", "codec_large", "residues_rules", "cli_pipe")
SETUP_IMPORTS = {"cli_pipe": "factoradic, factoradic.cli"}
SETUP_PROBES = 10  # fresh interpreters timed per run, half before and half after the worker
WORKER_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # setup_s is the import with a warm bytecode cache, whatever the caller's
    # environment says; the cache lives in OUT so src/ stays as committed
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    return env


def setup_probes(workload: str, env: dict, count: int) -> list[float]:
    """Times to import the package in ``count`` fresh interpreters."""
    modules = SETUP_IMPORTS.get(workload, "factoradic")
    code = (
        "import time; t = time.perf_counter(); "
        f"import {modules}; print(time.perf_counter() - t)"
    )
    return [
        float(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        ).stdout)
        for _ in range(count)
    ]


def run_worker(workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if trace:
        cmd += ["--spans", os.path.join(OUT, f"{workload}.spans.json.gz")]
    done = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {workload} exited with status {done.returncode}")
    return json.loads(lines[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = child_env()
    if trace:
        rec = run_worker(workload, seed, seconds, trace, env)
        rec["metrics"] = rec.pop("per_layer")
    else:
        # the first interpreter fills the bytecode cache and is not counted;
        # probes before and after the worker sample the machine at two times
        setup = setup_probes(workload, env, 1 + SETUP_PROBES // 2)[1:]
        rec = run_worker(workload, seed, seconds, trace, env)
        setup += setup_probes(workload, env, SETUP_PROBES - len(setup))
        rec["setup_s"] = statistics.median(setup)
        rec["setup_probes_s"] = setup
        rec["metrics"] = {name: {"value": rec[name], "unit": unit} for name, unit in END_TO_END}
    rec["failed_ratio"] = rec["failed"] / rec["attempted"]
    with open(os.path.join(OUT, f"{workload}-trace{trace}.json"), "w") as f:
        json.dump(rec, f, indent=1)
    return rec


def report(rec: dict) -> None:
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"passes {rec['passes']}  wall {rec['wall_s']:.1f} s")
    print("env " + json.dumps(rec["env"], sort_keys=True))
    for name, m in rec["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    if not rec["trace"]:
        print(f"  latency_tail_ms is p{rec['tail_percentile']} of {rec['samples']} samples "
              f"(at least {rec['samples_needed']} leave ten beyond it)")
    print(f"  {'failed_ratio':<48} {rec['failed_ratio']:>14.6g} 1")
    for note in rec["failures"]:
        print(f"  failure: {note}")
    for key, value in rec["extra"].items():
        print(f"  {key}: {value}")
    if rec["trace"] and rec["workload"] == "codec_large":
        print_rung_table(rec["metrics"])


def print_rung_table(metrics: dict) -> None:
    """core.<stage>.s<size>_ms metrics as a table: one row per rung."""
    cells = {}
    for name, m in metrics.items():
        found = re.fullmatch(r"core\.(\w+)\.s(\d+)_ms", name)
        if found:
            cells[found[1], int(found[2])] = m["value"]
    stages = list(dict.fromkeys(stage for stage, _ in cells))
    sizes = sorted({size for _, size in cells})
    print("  median ms per call by rung of the ladder (traced run)")
    print("  " + "s".rjust(8) + "".join(stage.rjust(26) for stage in stages))
    for size in sizes:
        print(f"  {size:>8}" + "".join(f"{cells[stage, size]:>26.3f}" for stage in stages))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "factoradic", "__init__.py")):
        print(f"perfbench: no package at {SRC}/factoradic; run inside a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    recs = []
    for name in names:
        try:
            rec = run_one(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        report(rec)
        recs.append(rec)
    attempted = sum(r["attempted"] for r in recs)
    failed = sum(r["failed"] for r in recs)
    if len(recs) == 1:
        metrics = recs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in recs for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
