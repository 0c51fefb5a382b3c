"""Spans recorded in memory around calls into the factoradic package.

A span has a name, a start and an end (``perf_counter_ns``), the index of
its parent span (-1 for a root) and the id of the benchmark operation it
belongs to.  Spans are opened by wrappers that this module installs in place
of the package's public functions: every module attribute bound to a traced
function object is rebound to the wrapper while a traced pass runs, so calls
made inside the package through a module global (``encode`` calling
``digits_from_integer``, ``residue`` calling ``encode``, ``cli.main`` calling
``decode``) are timed as children of the caller's span.  Nothing in the
package itself is edited, and uninstalling restores every binding.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter_ns

#: Traced functions, as ``<module>.<function>`` inside the package.
TRACED = (
    "core.digits_from_integer",
    "core.permutation_from_digits",
    "core.digits_from_permutation",
    "core.integer_from_digits",
    "inversions.inversion_set",
    "modular.residue",
    "modular.residue_from_prefix",
    "modular.prefix_inversions",
    "rules.generate_rule",
    "rules.render_rule",
    "rules.evaluate_rule",
    "cli.main",
)


PACKAGE = "factoradic"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one column per span field, so a run of 10^6 spans stays compact
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.error = array("b")
        self._stack: list[int] = []
        self.op_id = -1
        self._wrappers = []  # (original, wrapper)
        self._patched = []  # (module, attribute, original)
        for qual in TRACED:
            mod_name, func = qual.rsplit(".", 1)
            try:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                continue
            orig = getattr(mod, func, None)
            if callable(orig):
                self._wrappers.append((orig, self._wrap(qual, orig)))

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.error.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()
        if failed:
            self.error[idx] = 1

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span called ``name``."""
        return self._wrap(name, fn)(*args)

    def _wrap(self, name: str, fn):
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self._close(idx, failed)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every package attribute that refers to a traced function."""
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))
        ]
        for orig, wrapper in self._wrappers:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, orig = self._patched.pop()
            setattr(mod, attr, orig)

    def summary(self) -> dict[str, dict]:
        """calls, busy_s and errors for every span name."""
        out = {n: {"calls": 0, "busy_ns": 0, "errors": 0} for n in self.names}
        for nid, t0, t1, err in zip(self.name, self.start, self.end, self.error):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["busy_ns"] += t1 - t0
            row["errors"] += err
        return {
            n: {"calls": r["calls"], "busy_s": r["busy_ns"] / 1e9, "errors": r["errors"]}
            for n, r in out.items()
        }

    def durations_by_op(self, name: str) -> dict[int, int]:
        """Total span time of ``name`` per operation id, in nanoseconds."""
        nid = self._ids.get(name)
        out: dict[int, int] = {}
        if nid is None:
            return out
        for n, t0, t1, op in zip(self.name, self.start, self.end, self.op):
            if n == nid:
                out[op] = out.get(op, 0) + (t1 - t0)
        return out

    def write(self, path) -> None:
        """Write every span, column by column, as gzipped JSON."""
        doc = {
            "names": self.names,
            "columns": {
                "name": self.name.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
                "parent": self.parent.tolist(),
                "op": self.op.tolist(),
                "error": self.error.tolist(),
            },
        }
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(doc, f)
