"""Print the SHA-256 of every output that must stay byte-identical.

Usage: python3 tools/output_digests.py

Runs ``ybc.cli.main`` from this checkout's ``src`` in a temporary directory
for each command in ``COMMANDS`` and prints one ``sha256  label`` line per
output: the CSV of every command but ``verify``, which writes none, and for
``verify`` and ``compare`` also their standard output without the closing
``wrote ... to PATH`` line, which names the temporary file.  Compare the
lines of two commits to check that a change kept the bytes.  Exits 1 if a
command does not exit 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The grid of the benchmark's sweep-two-large workload at seed 0.
LARGE_GRID = ("--x", "0:1:101", "--theta", "0:2:256", "--phi", "0,0.25,0.5", "--n", "1,2,3,4")

# A compare grid larger than one x block of the kernel's walk.
COMPARE_BLOCKS_GRID = ("--x", "0:1:101", "--theta", "0:2:256", "--phi", "0,0.25", "--n", "1,2")

# One x and one theta over 2,000 phi values: each block holds 2,000 plane
# slots, so a plane written into the wrong slot shows in the bytes.
PLANE_HEAVY_PHIS = ",".join(f"{k / 1000:g}" for k in range(2000))

# (label, argv without --out)
COMMANDS = [
    ("verify", ("verify",)),
    ("sweep-two-large", ("sweep", "--strategy", "two") + LARGE_GRID),
    ("sweep-one-large", ("sweep", "--strategy", "one") + LARGE_GRID),
    ("sweep-plane-heavy", ("sweep", "--strategy", "two", "--x", "0.3:0.3:1",
                           "--theta", "0.2:0.2:1", "--phi", PLANE_HEAVY_PHIS, "--n", "1")),
    # Negative angles, each written after "=" as one argument.
    ("sweep-one-negative", ("sweep", "--strategy", "one", "--x", "0:1:11",
                            "--theta=-1:1:65", "--phi=-0.25,0.5", "--n", "1,2")),
    *((f"figure-{fig}", ("figure", fig)) for fig in ("2a", "2b", "4a", "4b")),
    *((f"compare-{formula}", ("compare", "--formula", formula))
      for formula in ("closed", "elements", "all")),
    # compare's default grid and formula spelled as flags: the same bytes as compare-all.
    ("compare-default-spelled", ("compare", "--formula", "all", "--x", "0:1:11",
                                 "--theta", "0:1.96875:64", "--phi", "0,0.25", "--n", "1,2,3,4")),
    # 206,848 rows: each kind's four (phi, N) planes take several x blocks.
    ("compare-blocks", ("compare", "--formula", "all") + COMPARE_BLOCKS_GRID),
    # The same grid with the element columns blanked to NaN in every block.
    ("compare-blocks-closed", ("compare", "--formula", "closed") + COMPARE_BLOCKS_GRID),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(directory: str) -> list[tuple[str, str]]:
    """(sha256, label) of every output of ``COMMANDS``, run in ``directory``."""
    from ybc import cli

    lines = []
    for label, argv in COMMANDS:
        writes_csv = argv[0] != "verify"
        out = os.path.join(directory, f"{label}.csv")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([*argv, "--out", out] if writes_csv else list(argv))
        if code != 0:
            raise RuntimeError(f"{label}: {' '.join(argv)} exited {code}")
        if writes_csv:
            with open(out, "rb") as fh:
                lines.append((_sha256(fh.read()), f"{label}.csv"))
        if argv[0] in ("verify", "compare"):
            summary = [line for line in stdout.getvalue().splitlines(keepends=True)
                       if not line.startswith("wrote ")]
            lines.append((_sha256("".join(summary).encode()), f"{label}.stdout"))
    return lines


def main() -> int:
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as directory:
        try:
            lines = digests(directory)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    for digest, label in lines:
        print(f"{digest}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
