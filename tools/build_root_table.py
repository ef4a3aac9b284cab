"""Build the oracle's scale-free root table, src/fitguide/root_table.txt: ``python tools/build_root_table.py``.

Node (rho, |sigma|) of the grid (``guidance.ROOT_TABLE_RHO`` by
``guidance.ROOT_TABLE_SIGMA``) holds the oracle's admissible root at unit
time-to-go as "ln q  ln beta", solved by continuation: the ANCHOR node from
ANCHOR_SEEDS, then each other node, nearest the anchor first, from its
solved neighbours (``continued``) up to the first admissible root.  "nan
nan" marks a node that no seed solves.  The build takes about six seconds;
``FITGUIDE_EXACT_TABLE=1 python -m pytest tests -k root_table`` compares a
rebuild with the committed file byte for byte.
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
# grid: guidance.ROOT_TABLE_RHO by guidance.ROOT_TABLE_SIGMA, one node a line, rho-major
# nan marks a node that continuation from its solved neighbours leaves unsolved; rebuild with: python tools/build_root_table.py
"""
ANCHOR, ANCHOR_SEEDS = (17, 24), ((1.0, 0.5), (4.0, 1.0), (10.0, 2.0), (30.0, 0.1))  # rho 0.466, |sigma| pi/2
RHO, SIGMA = guidance.ROOT_TABLE_RHO, guidance.ROOT_TABLE_SIGMA


def continued(table, i, j):
    """Seeds (q, beta) for node (i, j): its nearest solved nodes within three nodes, nearest first, each extrapolated
    linearly in (ln q, ln beta) from the node beyond it where that is solved, then as it is."""
    grid = table.reshape(len(RHO), len(SIGMA), 2)  # a view: node (a, c)
    for a, c in (divmod(k, len(SIGMA)) for k in guidance._nearest_nodes(table, i, j, reach=3.0)):
        if 0 <= 2 * a - i < len(RHO) and 0 <= 2 * c - j < len(SIGMA) and not math.isnan(grid[2 * a - i, 2 * c - j, 0]):
            yield np.exp(2.0 * grid[a, c] - grid[2 * a - i, 2 * c - j]).tolist()
        yield np.exp(grid[a, c]).tolist()


def build() -> str:
    """The table file's text."""
    table = np.full((len(RHO) * len(SIGMA), 2), math.nan)
    for i, j in sorted(((i, j) for i in range(len(RHO)) for j in range(len(SIGMA))), key=lambda n: math.dist(n, ANCHOR)):
        for seed in ANCHOR_SEEDS if (i, j) == ANCHOR else continued(table, i, j):
            hit = guidance._newton(RHO[i], SIGMA[j], *seed)
            if hit is not None and guidance._admissible(hit[0], hit[1]):
                table[i * len(SIGMA) + j] = math.log(hit[0]), math.log(hit[1])
                break
    return HEADER + "".join(f"{ln_q!r} {ln_b!r}\n" for ln_q, ln_b in table.tolist())


if __name__ == "__main__":
    text = build()
    guidance.ROOT_TABLE.write_text(text)
    print(f"wrote {guidance.ROOT_TABLE} ({len(text.encode())} bytes)")
