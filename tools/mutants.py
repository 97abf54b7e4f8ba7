"""Run the tier-1 tests against a fixed list of source mutants.

Usage: python3 tools/mutants.py

Each entry of ``MUTANTS`` is one exact-string edit of a file under ``src``.
For each, the tool copies this checkout's ``src``, ``tests``, ``tools`` and
``pyproject.toml`` to a temporary directory, applies the edit there and runs
the tier-1 tests with ``-x`` and acceptance criterion 10, which fails by
design, deselected.  It
prints one line per mutant: killed, with the first failing test, or alive.
An unmutated copy runs first and must pass, or no verdict would mean
anything.  An equivalent mutant computes the same values as the code, so it
is expected to stay alive.

Exits 0 when every non-equivalent mutant is killed, 1 when one stays alive,
and 2 when the unmutated copy fails or an edit does not match the source
exactly once.  A full run takes a few minutes; it is not part of tier-1.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "pyproject.toml")
DESELECTED = "tests/test_acceptance.py::test_criterion_10_figure_four_qualitative"


class Mutant(NamedTuple):
    label: str
    path: str
    old: str
    new: str
    equivalent: bool = False


MUTANTS = [
    Mutant(
        "c_r-clamp-removed",
        "src/ybc/strategies.py",
        "c_r = np.clip(shannon - _entropy_bits(np.clip(lam, 0.0, None)), 0.0, None)",
        "c_r = shannon - _entropy_bits(np.clip(lam, 0.0, None))",
    ),
    Mutant(
        "row-cap-off-by-one",
        "src/ybc/cli.py",
        "if rows > MAX_ROWS:",
        "if rows > MAX_ROWS + 1:",
    ),
    Mutant(
        "flag-threshold-1e-9",
        "src/ybc/strategies.py",
        "if self.worst_negative < -1e-10:",
        "if self.worst_negative < -1e-9:",
    ),
    Mutant(
        "hamiltonian-default-step-1e-3",
        "src/ybc/braid_ybe.py",
        "step: float = 1e-4,",
        "step: float = 1e-3,",
    ),
    # m = U_B^T U_B is symmetric, so sum_ij m_ij m_ji equals sum_ij m_ij^2.
    Mutant(
        "invariants-tr-m2-transposed",
        "src/ybc/gates.py",
        "g2 = (tr2 - (m * m).sum(axis=(-2, -1)))",
        "g2 = (tr2 - (m * m.swapaxes(-1, -2)).sum(axis=(-2, -1)))",
        equivalent=True,
    ),
    # Places b at the mirrored site n - 2 - site: the braid relation and
    # both YBEs still hold, so only the embedding oracle can see it.
    Mutant(
        "embed-mirrored-site",
        "src/ybc/braid_ybe.py",
        "left, right = 2**site, 2 ** (n_sites - site - 2)",
        "right, left = 2**site, 2 ** (n_sites - site - 2)",
    ),
    # The kernel still refuses a non-finite phi, but as "phi must be
    # finite": only the CLI's message shows which rule fired.
    Mutant(
        "grid-axes-finite-phi-dropped",
        "src/ybc/cli.py",
        '    if not all(math.isfinite(phi) for phi in phis):\n'
        '        raise ValueError("--phi: values must be finite")\n',
        "",
    ),
    Mutant(
        "grid-axes-positive-n-dropped",
        "src/ybc/cli.py",
        "    if any(n < 1 for n in ns):\n"
        "        raise ValueError(f\"--n: expects positive integers, got {opts['n']!r}\")\n",
        "",
    ),
    Mutant(
        "check-points-first-n-only",
        "src/ybc/strategies.py",
        "    for n in ns:\n        _positive_int(n, \"n_uses\")",
        "    for n in ns[:1]:\n        _positive_int(n, \"n_uses\")",
    ),
    # Every plane's columns land in the previous plane's slot (the first
    # plane's in the last): a one-plane grid cannot see it.
    Mutant(
        "block-plane-slot-off-by-one",
        "src/ybc/strategies.py",
        "block[:, :, plane, column] = value",
        "block[:, :, plane - 1, column] = value",
    ),
    # The bytes stay the same; only the block's lifetime changes.
    Mutant(
        "previous-block-kept-by-rows",
        "src/ybc/cli.py",
        "            del block\n",
        "",
    ),
    Mutant(
        "previous-block-kept-by-last-row",
        "src/ybc/cli.py",
        "        del row\n",
        "",
    ),
]


def run_tier1(directory: Path) -> tuple[bool, str, float]:
    """(passed, first failing test or collection error, seconds) of tier-1 in ``directory``."""
    env = {**os.environ, "PYTHONPATH": "src"}
    argv = [
        sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
        "--continue-on-collection-errors", "--deselect", DESELECTED,
    ]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=directory, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    # A parametrized id may hold spaces; pytest ends it with " - " and the reason.
    failure = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", done.stdout, re.MULTILINE)
    if done.returncode == 0:
        return True, "", seconds
    return False, failure.group(1) if failure else f"pytest exit {done.returncode}", seconds


def copy_checkout(directory: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, directory / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, directory / name)


def apply(mutant: Mutant, directory: Path) -> None:
    path = directory / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.label}: the edit matches {mutant.path} "
                         f"{text.count(mutant.old)} times, expected once")
    path.write_text(text.replace(mutant.old, mutant.new))


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        baseline = Path(scratch) / "baseline"
        copy_checkout(baseline)
        passed, failure, seconds = run_tier1(baseline)
        if not passed:
            print(f"the unmutated copy fails: {failure} ({seconds:.1f} s)", file=sys.stderr)
            return 2
        print(f"{'baseline':<32} passes  ({seconds:.1f} s)", flush=True)
        survivors = 0
        for mutant in MUTANTS:
            directory = Path(scratch) / mutant.label
            copy_checkout(directory)
            try:
                apply(mutant, directory)
            except ValueError as exc:
                print(exc, file=sys.stderr)
                return 2
            passed, failure, seconds = run_tier1(directory)
            shutil.rmtree(directory)
            if passed:
                survivors += not mutant.equivalent
                verdict = "alive (equivalent)" if mutant.equivalent else "ALIVE"
            else:
                verdict = f"killed by {failure}"
            print(f"{mutant.label:<32} {verdict}  ({seconds:.1f} s)", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
