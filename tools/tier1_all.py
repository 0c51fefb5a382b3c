"""Run the tier-1 tests under every local CPython from 3.10 up, from one command.

pytest and Hypothesis are pure Python, so the copies installed for the
interpreter that runs this script serve the others.  Their entries are
linked into a temporary directory, which goes on ``PYTHONPATH`` after
``src``, and each interpreter runs the tier-1 command

    python -m pytest -q --continue-on-collection-errors -p no:cacheprovider

with ``PYTHONDONTWRITEBYTECODE=1``, so that no interpreter writes its bytecode
into the shared site-packages through the links, and ``PYTHONNOUSERSITE=1``.
An interpreter that cannot import pytest that way (3.10 also needs
``exceptiongroup`` and ``tomli``) runs what CI's other two steps run instead:
``tests/parity.py``, which exits 1 unless its digest is its ``PINNED``, and
each script in ``demos/``.  The script says which.

    python tools/tier1_all.py              # $PYENV_ROOT/versions/*, 3.10 up
    python tools/tier1_all.py PYTHON ...   # the given interpreters

It prints one line per interpreter: passed and failed counts, wall time, and
acceptance 8's time against its budget.  It exits 1 if anything failed.
Standard library only.
"""

from __future__ import annotations

import glob
import os
import pathlib
import re
import subprocess
import sys
import sysconfig
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
# what pytest and Hypothesis import, with each distribution's metadata
# (pytest finds Hypothesis's plugin through its entry point)
SHARED = (
    "_pytest", "pytest", "py.py", "pluggy", "iniconfig", "packaging",
    "hypothesis", "_hypothesis_*.py", "sortedcontainers", "attr", "attrs", "pygments",
)
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")


def interpreters() -> list[str]:
    """``$PYENV_ROOT/versions/X.Y.Z/bin/python`` for every X.Y >= 3.10, oldest first."""
    root = pathlib.Path(os.environ.get("PYENV_ROOT", pathlib.Path.home() / ".pyenv"))
    found = []
    for path in (root / "versions").glob("*/bin/python"):
        name = path.parent.parent.name
        if re.fullmatch(r"\d+\.\d+\.\d+", name):
            found.append((tuple(map(int, name.split("."))), str(path)))
    return [path for version, path in sorted(found) if version >= (3, 10)]


def link_shared(site: pathlib.Path, into: pathlib.Path) -> None:
    for pattern in SHARED:
        for name in (pattern, f"{pattern}-*.dist-info"):
            for entry in glob.glob(str(site / name)):
                os.symlink(entry, into / pathlib.Path(entry).name)


def run(python: str, args, env) -> tuple[int, str]:
    done = subprocess.run([python, *args], cwd=ROOT, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout + done.stderr


def tier1(python: str, env) -> tuple[str, bool]:
    code, out = run(python, TIER1, env)
    summary = (out.splitlines() or [""])[-1]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)s?\b", summary)}
    acceptance = re.search(r"ACCEPTANCE 8: (\w+) .*\(([\d.]+ s / [\d.]+ s)\)", out)
    a8 = f"acceptance 8 {acceptance[1]} ({acceptance[2]})" if acceptance else "acceptance 8 not reported"
    failed = counts.get("failed", 0) + counts.get("error", 0)
    return f"{counts.get('passed', 0)} passed, {failed} failed; {a8}", code == 0


def without_pytest(python: str, env) -> tuple[str, bool]:
    """CI's parity and demo steps, for an interpreter without pytest."""
    parity_ok = run(python, ["tests/parity.py"], env)[0] == 0
    demos = sorted(glob.glob(str(ROOT / "demos/*.py")))
    demos_ok = sum(run(python, [demo], env)[0] == 0 for demo in demos)
    verdict = f"parity {'matches' if parity_ok else 'DIFFERS from'} PINNED, demos {demos_ok}/{len(demos)} passed"
    return f"no pytest, so CI's other steps: {verdict}", parity_ok and demos_ok == len(demos)


def main(argv: list[str]) -> int:
    pythons = argv or interpreters()
    site = pathlib.Path(sysconfig.get_paths()["purelib"])
    ok = True
    with tempfile.TemporaryDirectory(prefix="tier1-shared-") as shared:
        link_shared(site, pathlib.Path(shared))
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONNOUSERSITE": "1"}
        env["PYTHONPATH"] = os.pathsep.join(["src", shared])
        for python in pythons:
            version = run(python, ["-c", "import platform; print(platform.python_version())"], env)[1].strip()
            has_pytest = run(python, ["-c", "import pytest, hypothesis"], env)[0] == 0
            t0 = time.perf_counter()
            line, passed = (tier1 if has_pytest else without_pytest)(python, env)
            ok &= passed
            print(f"CPython {version}: {line}; {time.perf_counter() - t0:.1f} s wall", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
