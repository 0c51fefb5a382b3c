"""Which outcomes of the parity table differ between a commit and the working tree.

    python tools/parity_diff.py BASE

``BASE`` (any commit name git reads) is extracted with ``git archive`` into a
temporary directory, and the working tree's ``tests/parity.py`` and the
``tests/error_rows.py`` it imports are copied over its own, so both sides
run the same table.  Each side runs the table in its own interpreter, on its
own ``src``.  The script prints one line per call whose outcome differs,
``label: old -> new``, with ``(none)`` for the side that lacks the call (a
row added to or removed from the table), and then both digests.  A call
whose outcome moves only under CPython's int text limit of 640 is listed
with its label's ``limit=640 `` prefix.  A long label or outcome is cut by
``parity.short``, with its length and a hash of the whole, so that two cut
texts compare equal exactly when the texts do.

It exits 1 if any outcome differs.  Standard library only.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))  # a child has imported its own tree's parity already
from parity import short  # noqa: E402

# run in a tree's root: its tests/parity.py, on its src, one JSON record a
# line, then the digest, hashed by parity.hashed as tests/parity.py hashes it
_CHILD = """
import sys
sys.path[:0] = [sys.argv[1], "tests"]
import parity, parity_diff
print(parity.hashed(parity.outcomes(), parity_diff.emit))
"""


def emit(label: str, got: str, line: str) -> None:
    """Print a (label, outcome) record shortened, as JSON; ``parity.hashed``
    hands it each record as it hashes the full line."""
    print(json.dumps([short(label), short(got)]))


def pair(old, new) -> list[tuple[str, str | None, str | None]]:
    """(label, old outcome, new outcome) for each call whose outcome differs,
    with None for the side that lacks it: the old side's order, then the
    calls only the new side has.  A label that repeats is paired occurrence
    by occurrence."""
    def keyed(records):
        seen = Counter()
        out = {}
        for label, got in records:
            out[label, seen[label]] = got
            seen[label] += 1
        return out

    a, b = keyed(old), keyed(new)
    diffs = [(label, got, b.get((label, i))) for (label, i), got in a.items() if b.get((label, i)) != got]
    return diffs + [(label, None, got) for (label, i), got in b.items() if (label, i) not in a]


def run_table(tree: pathlib.Path) -> tuple[list, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(ROOT / "tools")],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    *records, digest = done.stdout.splitlines()
    return [tuple(json.loads(r)) for r in records], digest


def extract(base: str, into: pathlib.Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", base], cwd=ROOT, stdout=subprocess.PIPE, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        if hasattr(tarfile, "data_filter"):  # 3.10.12 and later
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/parity_diff.py BASE", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="parity-diff-") as tmp:
        tree = pathlib.Path(tmp)
        extract(argv[0], tree)
        for name in ("parity.py", "error_rows.py"):
            shutil.copy(ROOT / "tests" / name, tree / "tests" / name)
        old, old_digest = run_table(tree)
    new, new_digest = run_table(ROOT)
    diffs = pair(old, new)
    none = "(none)"
    for label, was, now in diffs:
        print(f"{label}: {none if was is None else was} -> {none if now is None else now}")
    print(f"{len(diffs)} of {len(new)} outcomes differ")
    print(f"{argv[0]}: {old_digest}")
    print(f"working tree: {new_digest}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
