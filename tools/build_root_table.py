"""Build the oracle's scale-free root table, src/fitguide/root_table.txt.

Run from the repository root:

    python tools/build_root_table.py

(``FITGUIDE_EXACT_TABLE=1 python -m pytest tests -k root_table`` compares
a rebuild with the committed file byte for byte.)

Node (rho, |sigma|) of the grid (``guidance.ROOT_TABLE_RHO`` by
``guidance.ROOT_TABLE_SIGMA``, ``guidance.ROOT_TABLE_N`` evenly spaced
nodes a side) holds the oracle's admissible root at unit time-to-go as
"ln q  ln beta", solved without the table: Newton from each of the 64x64
chart's seeds in turn, up to the first admissible root.  "nan nan" marks a
node that no chart seed solves.  The build takes about a second.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fitguide import guidance  # noqa: E402

HEADER = """\
# fitguide oracle root table: the admissible root (ln q, ln beta) at unit time-to-go, q = alpha * t_go**2
# grid: {n} rho nodes over [{r0!r}, {r1!r}] by {n} |sigma| nodes over [{s0!r}, {s1!r}], one node a line, rho-major
# nan marks a node the chart-seeded oracle refuses; rebuild with: python tools/build_root_table.py
"""


def chart_root(rho, sigma_abs):
    """The first admissible root (q, beta) that Newton reaches from the chart's seeds, or None."""
    for seed in guidance._seed_candidates(rho, sigma_abs):
        hit = guidance._newton(rho, sigma_abs, *seed)
        if hit is not None and guidance._admissible(hit[0], hit[1]):
            return hit[0], hit[1]
    return None


def build() -> str:
    """The table file's text."""
    n, (r0, r1), (s0, s1) = guidance.ROOT_TABLE_N, guidance.ROOT_TABLE_RHO, guidance.ROOT_TABLE_SIGMA
    lines = [HEADER.format(n=n, r0=r0, r1=r1, s0=s0, s1=s1)]
    for r in np.linspace(r0, r1, n).tolist():
        for s in np.linspace(s0, s1, n).tolist():
            root = chart_root(r, s)
            lines.append("nan nan\n" if root is None else f"{math.log(root[0])!r} {math.log(root[1])!r}\n")
    return "".join(lines)


if __name__ == "__main__":
    text = build()
    guidance.ROOT_TABLE.write_text(text)
    print(f"wrote {guidance.ROOT_TABLE} ({len(text.encode())} bytes)")
