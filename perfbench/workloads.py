"""The four workloads: seeded passes of operations, how to run and check them.

Every workload is a closed loop with one caller.  Inputs come in passes: a
pass draws one value from each stratum of the workload's input distribution
(log-uniform sizes, or rule moduli ranked by the number of columns they
need), so every pass has the same mix of cheap and expensive operations and
a run's figures do not hinge on how many rare large inputs a seed happens to
draw.  The worker runs whole passes, so a run always ends on a complete mix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import statistics
import subprocess
import sys
from math import factorial
from time import perf_counter

import factoradic as fc

import oracles

STAGES = (
    "core.digits_from_integer",
    "core.permutation_from_digits",
    "core.digits_from_permutation",
    "core.integer_from_digits",
)
LADDER = (1_000, 3_000, 10_000, 30_000, 100_000)


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


class Workload:
    name = ""
    #: nearest-rank percentile reported as latency_tail_ms; the worker runs at
    #: least enough operations to leave ten samples beyond it
    tail_q = "50"
    #: peak RSS is read from the CLI children rather than the worker
    rss_of_children = False

    def make_pass(self, rng, index: int) -> list:
        raise NotImplementedError

    def run(self, op):
        """One operation, untraced: the public call a user makes."""
        raise NotImplementedError

    def run_traced(self, op):
        """The same operation as the traced run times it."""
        return self.run(op)

    def check(self, op, result) -> bool:
        raise NotImplementedError

    def observe(self, op, result, index: int) -> None:
        """See a checked result of pass ``index`` (once per pass and op)."""

    def after_traced(self, op_id: int, op, latency: float) -> bool:
        """Extra measurement after a traced op, outside its latency."""
        return True

    def layer_metrics(self, tracer) -> dict:
        return {}

    def record(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# codec round trips


class _Codec(Workload):
    def run(self, op):
        p = fc.encode(op[1])
        return p, fc.decode(p)

    def run_traced(self, op):
        # encode is exactly these two stages; decode is timed as the public
        # counting stage followed by the evaluation stage
        p = fc.permutation_from_digits(fc.digits_from_integer(op[1]))
        return p, fc.integer_from_digits(fc.digits_from_permutation(p))

    def check(self, op, result) -> bool:
        p, back = result
        return back == op[1] and (op[2] is None or len(p) == op[2])


class CodecSmall(_Codec):
    name = "codec_small"
    # p99.9 and beyond here measure the host's preemptions, not the codec
    # (ten-fold spread between runs); p99 still has 2,000+ samples beyond it
    tail_q = "99"
    PASS = 1000
    BOUND = 10**100

    def make_pass(self, rng, index):
        return [("codec", rng.randrange(self.BOUND), None) for _ in range(self.PASS)]


class CodecLarge(_Codec):
    name = "codec_large"
    # with whole ladders (5 rungs) this is the slowest 10^4 round trip
    tail_q = "60"

    def __init__(self):
        self._bounds = {}
        self._size_of: dict[int, int] = {}

    def make_pass(self, rng, index):
        sizes = list(LADDER)
        rng.shuffle(sizes)
        ops = []
        for s in sizes:
            if s not in self._bounds:
                top = factorial(s)
                self._bounds[s] = (top // s, top)
            lo, hi = self._bounds[s]
            # n in [(s-1)!, s!) has a minimal writing of exactly s entries
            ops.append(("codec", rng.randrange(lo, hi), s))
        return ops

    def after_traced(self, op_id, op, latency):
        self._size_of[op_id] = op[2]
        return True

    def layer_metrics(self, tracer):
        """Median per call of each stage at each rung of the ladder."""
        out = {}
        for stage in STAGES:
            by_size: dict[int, list] = {s: [] for s in LADDER}
            for op_id, ns in tracer.durations_by_op(stage).items():
                size = self._size_of.get(op_id)
                if size is not None:
                    by_size[size].append(ns / 1e9)
            for s in LADDER:
                out[f"{stage}.s{s}_ms"] = _median_ms(by_size[s])
        return out


# ---------------------------------------------------------------------------
# residues and rules


def _log_strata(rng, m: int, lo: float, hi: float) -> list[int]:
    """One integer 2^x per stratum, x stratified uniformly over [lo, hi)."""
    return [round(2 ** (lo + (hi - lo) * (i + rng.random()) / m)) for i in range(m)]


class ResiduesRules(Workload):
    name = "residues_rules"
    tail_q = "99"
    # 60 strata keep the top one to a quarter octave of k, so the slowest
    # residue calls, which set the p99 tail, differ little from pass to pass
    RESIDUE = 60  # residue(n, k), k log-uniform over [2, 2^16]
    PREFIX = 30  # residue_from_prefix, same k distribution
    EVALUATE = 15  # evaluate_rule, k uniform over [2, 600]
    INVERSIONS = 16  # prefix_inversions(n, s).pairs(), s = 1..8 twice
    BUILD = 30  # generate_rule + render_rule, k uniform over [2, 600]
    FORMATS = ("plain", "latex", "json")
    K_EXP = (1, 16)
    RULE_K = range(2, 601)
    DIGITS = 10_000

    def __init__(self):
        self._lo = 10 ** (self.DIGITS - 1)
        self._hi = 10**self.DIGITS
        # rule cost grows with the column count L = min(k, S(k)), not with k,
        # so rule moduli are stratified by L: equal-size strata keep every k
        # equally likely while each pass gets the same spread of L
        self._length = {k: min(k, oracles.kempner(k)) for k in self.RULE_K}
        self._by_length = sorted(self.RULE_K, key=lambda k: (self._length[k], k))
        self._digest = hashlib.sha256()
        self._digest0 = hashlib.sha256()
        self._renders = 0
        self._useful = [0, 0]  # sum of min(k, S(k)), sum of k over residue ops
        self._terms = [0, 0]  # stored terms, sum of L over build ops

    def _rule_moduli(self, rng, m: int) -> list[int]:
        keys = self._by_length
        return [
            rng.choice(keys[i * len(keys) // m:(i + 1) * len(keys) // m])
            for i in range(m)
        ]

    def _n(self, rng) -> int:
        return rng.randrange(self._lo, self._hi)

    def make_pass(self, rng, index):
        ops = []
        for k in _log_strata(rng, self.RESIDUE, *self.K_EXP):
            n = self._n(rng)
            ops.append(("residue", n, k, n % k))
        # one writing serves the prefix and rule operations of the pass
        n = self._n(rng)
        w = oracles.writing(n, 2 ** self.K_EXP[1])
        for k in _log_strata(rng, self.PREFIX, *self.K_EXP):
            ops.append(("prefix", w[:k], k, n % k))
        for k in self._rule_moduli(rng, self.EVALUATE):
            ops.append(("evaluate", fc.generate_rule(k), w[:k], n % k))
        for i in range(self.INVERSIONS):
            m, s = self._n(rng), i % 8 + 1
            ops.append(("inversions", m, s, oracles.inversion_pairs(oracles.writing(m, s))))
        # formats cycle along the L ranking, so each format sees every size
        for i, k in enumerate(self._rule_moduli(rng, self.BUILD)):
            ops.append(("build", k, self.FORMATS[i % 3]))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        kind = op[0]
        if kind == "residue":
            return fc.residue(op[1], op[2])
        if kind == "prefix":
            return fc.residue_from_prefix(op[1], op[2])
        if kind == "evaluate":
            return fc.evaluate_rule(op[1], op[2])
        if kind == "inversions":
            return list(fc.prefix_inversions(op[1], op[2]).pairs())
        rule = fc.generate_rule(op[1])
        return rule, fc.render_rule(rule, op[2])

    def check(self, op, result):
        if op[0] == "build":
            return oracles.rule_text_ok(op[1], op[2], result[1])
        return result == op[-1]

    def observe(self, op, result, index):
        kind = op[0]
        if kind == "build":
            text = result[1].encode()
            self._digest.update(text)
            self._renders += 1
            if index == 0:
                self._digest0.update(text)
                self._terms[0] += _stored_terms(result[0])
                self._terms[1] += self._length[op[1]]
        elif kind == "residue" and index == 0:
            k = op[2]
            self._useful[0] += min(k, oracles.kempner(k))
            self._useful[1] += k

    def layer_metrics(self, tracer):
        # a pass 0 whose every op failed leaves nothing to count
        return {
            "modular.residue.useful_entries_ratio": self._useful[0] / max(1, self._useful[1]),
            "rules.generate_rule.terms_per_column": self._terms[0] / max(1, self._terms[1]),
        }

    def record(self):
        return {
            "render_sha256": self._digest.hexdigest(),
            "renders_hashed": self._renders,
            "render_sha256_pass0": self._digest0.hexdigest(),
            "counts_from": "pass 0 inputs",
            "useful_entries": self._useful,
            "stored_terms_and_columns": self._terms,
        }


def _stored_terms(rule) -> int:
    """Entries held in the rule object's sequence fields (what it stores)."""
    state = getattr(rule, "__dict__", None)
    if state is None:
        state = {s: getattr(rule, s) for s in getattr(rule, "__slots__", ())}
    return sum(len(v) for v in state.values() if isinstance(v, (tuple, list)))


# ---------------------------------------------------------------------------
# CLI process round trip


class CliPipe(Workload):
    name = "cli_pipe"
    tail_q = "90"
    rss_of_children = True
    STRATA = 20
    MAX_DIGITS = 100_000  # below Linux's 131,072-byte limit on one argument
    TIMEOUT_S = 60  # a 10^5-digit round trip takes about a second

    def __init__(self):
        self._cli: list[tuple[float, float, float]] = []  # process, main, library

    def make_pass(self, rng, index):
        top = math.log10(self.MAX_DIGITS)
        ops = []
        for i in range(self.STRATA):
            length = min(self.MAX_DIGITS, math.ceil(10 ** (top * (i + rng.random()) / self.STRATA)))
            if length == 1:
                text = str(rng.randrange(10))
            else:
                text = rng.choice("123456789") + "".join(rng.choices("0123456789", k=length - 1))
            ops.append(("pipe", text))
        return ops

    def run(self, op):
        cmd = [sys.executable, "-m", "factoradic"]
        procs = []
        try:
            enc = subprocess.Popen(cmd + ["encode", op[1]], stdout=subprocess.PIPE)
            procs.append(enc)
            dec = subprocess.Popen(cmd + ["decode"], stdin=enc.stdout, stdout=subprocess.PIPE)
            procs.append(dec)
            enc.stdout.close()  # decode holds the only reader now
            out, _ = dec.communicate(timeout=self.TIMEOUT_S)
            return enc.wait(timeout=self.TIMEOUT_S), dec.returncode, out
        finally:
            for p in procs:  # a failed op leaves no CLI process behind
                if p.poll() is None:
                    p.kill()
                p.wait()

    def check(self, op, result):
        enc_rc, dec_rc, out = result
        return enc_rc == 0 and dec_rc == 0 and out.strip() == op[1].encode()

    def after_traced(self, op_id, op, latency):
        import factoradic.cli

        text = op[1]
        t0 = perf_counter()
        enc_rc, perm = _main_captured(factoradic.cli, ["encode", text])
        dec_rc, back = _main_captured(factoradic.cli, ["decode"], stdin=perm)
        t1 = perf_counter()
        n = int(text)
        t2 = perf_counter()
        p = fc.permutation_from_digits(fc.digits_from_integer(n))
        ok = fc.integer_from_digits(fc.digits_from_permutation(p)) == n
        t3 = perf_counter()
        self._cli.append((latency, t1 - t0, t3 - t2))
        return ok and enc_rc == 0 and dec_rc == 0 and back.strip() == text

    def layer_metrics(self, tracer):
        rows = self._cli
        return {
            "cli.process_ms": _median_ms([r[0] for r in rows]),
            "cli.main_ms": _median_ms([r[1] for r in rows]),
            "cli.startup_ms": _median_ms([r[0] - r[1] for r in rows]),
            "cli.overhead_ms": _median_ms([r[1] - r[2] for r in rows]),
        }


def _main_captured(cli, argv, stdin=None):
    """cli.main(argv) in this process, with stdout captured (and stdin fed)."""
    out = io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


WORKLOADS = {w.name: w for w in (CodecSmall, CodecLarge, ResiduesRules, CliPipe)}
