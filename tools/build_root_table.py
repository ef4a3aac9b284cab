"""Build the oracle's scale-free root table, src/fitguide/root_table.txt: ``python tools/build_root_table.py``.

Node (rho, |sigma|) of the grid (``guidance.ROOT_TABLE_RHO`` by
``guidance.ROOT_TABLE_SIGMA``) holds the oracle's admissible root at unit
time-to-go as "ln q  ln beta", the coordinates ``guidance._newton`` steps
in and returns, solved by continuation: the ANCHOR node from ANCHOR_SEEDS,
then each other node, nearest the anchor first, from its solved neighbours
(``continued``) up to the first admissible root.  "nan nan" would mark a
node that no seed solves; the committed table has none.  The script prints
its count of endpoint evaluations and its wall time;
``FITGUIDE_EXACT_TABLE=1 python -m pytest tests -k root_table`` compares a
rebuild with the committed file byte for byte.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fitguide import guidance  # noqa: E402

HEADER = """\
# fitguide oracle root table: the admissible root (ln q, ln beta) at unit time-to-go, q = alpha * t_go**2
# grid: guidance.ROOT_TABLE_RHO by guidance.ROOT_TABLE_SIGMA, one node a line, rho-major
# each node is solved by continuation from its solved neighbours, and one left unsolved would read nan nan; rebuild with: python tools/build_root_table.py
"""
ANCHOR, ANCHOR_SEEDS = (17, 24), ((0.0, -0.7), (1.4, 0.0), (2.3, 0.7), (3.4, -2.3))  # rho 0.466, |sigma| pi/2, seeds in (ln q, ln beta)
RHO, SIGMA = guidance.ROOT_TABLE_RHO, guidance.ROOT_TABLE_SIGMA


def continued(table, i, j):
    """Seeds (ln q, ln beta) for node (i, j): its nearest solved nodes within three nodes, nearest first, each extrapolated
    linearly in (ln q, ln beta) from the node beyond it where that is solved, then as it is."""
    grid = table.reshape(len(RHO), len(SIGMA), 2)  # a view: node (a, c)
    for a, c in (divmod(k, len(SIGMA)) for k in guidance._nearest_nodes(table, i, j, reach=3.0)):
        if 0 <= 2 * a - i < len(RHO) and 0 <= 2 * c - j < len(SIGMA) and not math.isnan(grid[2 * a - i, 2 * c - j, 0]):
            yield (2.0 * grid[a, c] - grid[2 * a - i, 2 * c - j]).tolist()
        yield grid[a, c].tolist()


def build() -> str:
    """The table file's text."""
    table = np.full((len(RHO) * len(SIGMA), 2), math.nan)
    for i, j in sorted(((i, j) for i in range(len(RHO)) for j in range(len(SIGMA))), key=lambda n: math.dist(n, ANCHOR)):
        for seed in ANCHOR_SEEDS if (i, j) == ANCHOR else continued(table, i, j):
            hit = guidance._newton(RHO[i], SIGMA[j], *seed)
            if hit is not None and guidance._admissible(math.exp(hit[0]), math.exp(hit[1])):
                table[i * len(SIGMA) + j] = hit[:2]
                break
    return HEADER + "".join(f"{ln_q!r} {ln_b!r}\n" for ln_q, ln_b in table.tolist())


if __name__ == "__main__":
    jacobian, evaluations = guidance._endpoint_jacobian, []

    def counted(ln_q, ln_b):
        evaluations.append(None)
        return jacobian(ln_q, ln_b)

    guidance._endpoint_jacobian = counted  # Newton looks it up per trial point
    start = time.perf_counter()
    text = build()
    seconds = time.perf_counter() - start
    guidance.ROOT_TABLE.write_text(text)
    print(f"wrote {guidance.ROOT_TABLE} ({len(text.encode())} bytes): {len(evaluations)} endpoint evaluations in {seconds:.1f} s")
