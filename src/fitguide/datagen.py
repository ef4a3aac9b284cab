"""Optimal-command dataset generation by sweeping the costate grid.

For every cell of a uniform (alpha, beta) grid the extremal is evaluated
in closed form and the tuples (r, sigma, t_go, u) are recorded at
t = h, 2h, ... up to the cell's validity horizon.  A cell's emission stops
at the earliest of

* the horizon cap ``t_bar``,
* the first velocity/line-of-sight collinearity (optimality ceases), and
* the first interior zero of the command history.

Both stop times are exact (``extremals.sweep_cells``), so a sample is
emitted exactly when its time lies before them, and only emitted samples
are evaluated.  The last rule is deliberately conservative: it keeps only
samples whose remaining command history is sign-constant, which stays
strictly inside the provably optimal set and matches the expected dataset
size for the default grid (about 4.1 million rows, upper bound 4.59
million).

Cells whose trajectory never leaves the collinear set (beta = pi, the
degenerate straight line) contribute no samples.  Output ordering is
(alpha index, beta index, t), so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
import os
import stat
import warnings
from dataclasses import dataclass

import numpy as np

from .extremals import evaluate, range_look_angle, sweep_cells

__all__ = [
    "DatagenConfig",
    "REDUCED_CONFIG",
    "generate_dataset",
    "write_dataset",
    "read_dataset",
    "write_csv",
]

DATASET_HEADER = "r,sigma,t_go,u"


@dataclass(frozen=True)
class DatagenConfig:
    """Grid and sampling parameters for dataset generation."""

    alpha_bar: float = 10.0
    n_i: int = 100
    n_j: int = 100
    t_bar: float = 10.0
    h: float = 0.005

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.alpha_bar, self.t_bar, self.h)):
            raise ValueError("alpha_bar, t_bar and h must be finite and positive")
        if self.n_i < 1 or self.n_j < 1:
            raise ValueError("grid counts must be positive integers")
        if self.h > self.t_bar:
            raise ValueError("sampling step exceeds horizon")


# Desk-scale grid used by the test suite and the demos.
REDUCED_CONFIG = DatagenConfig(alpha_bar=10.0, n_i=40, n_j=40, t_bar=4.0, h=0.01)


def generate_dataset(config: DatagenConfig) -> np.ndarray:
    """Sweep the costate grid and return samples as an (n, 4) array.

    Columns are (r, sigma, t_go, u) in normalized units (unit speed);
    rows are ordered by (alpha index, beta index, t).
    """
    alphas = np.arange(1, config.n_i + 1) * config.alpha_bar / config.n_i
    betas = np.arange(1, config.n_j + 1) * (math.pi / config.n_j)
    # one sweep for the whole grid: the stop phases depend on beta alone
    sweep = sweep_cells(np.repeat(alphas, config.n_j), np.tile(betas, config.n_i), config.t_bar, config.h)
    t_stop = np.minimum(sweep.t_collinear, sweep.t_control_zero).reshape(config.n_i, config.n_j)
    # each cell emits samples k = 1..count, where count * h is the last grid
    # time before its stop (none for a degenerate cell, whose stop is inf)
    counts = np.where(np.isinf(t_stop), 0, np.minimum(sweep.n_steps, np.floor(t_stop / sweep.h))).astype(int)
    blocks = []
    for alpha, count in zip(alphas, counts):
        cell = np.repeat(np.arange(config.n_j), count)
        k = np.arange(1, cell.size + 1) - np.repeat(np.cumsum(count) - count, count)
        t = k * sweep.h
        X, Y, Theta, U = evaluate(alpha, betas[cell], t)
        R, S = range_look_angle(X, Y, Theta)
        rows = np.column_stack([R, S, t, U])
        rows = rows[rows[:, 1] > 0.0]  # guard against exactly-collinear rounding
        if len(rows):
            blocks.append(rows)
    if not blocks:
        return np.empty((0, 4))
    return np.vstack(blocks)


def write_csv(path, header: str, rows) -> None:
    """Write a 2-D array as UTF-8 CSV under ``header``, 17 significant digits per value.

    ``rows`` must be 2-D with one column per header field, else ValueError
    is raised before ``path`` is touched.  An existing regular file at
    ``path`` is unlinked and a new file created in its place, because a
    truncating reopen of a freshly written file waits for its writeback
    (ext4 ``auto_da_alloc``).  So hard links to the old file keep the old
    bytes, the new file gets the umask's mode, and a read-only file in a
    writable directory is replaced, as ``os.replace`` would do.  Any other
    path (missing, a symlink, which is written through, a device) is
    opened as it is.
    """
    rows = np.asarray(rows, dtype=float)
    width = header.count(",") + 1
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"rows of shape {rows.shape} do not fit the {width} fields of {header!r}")
    line = ",".join(["%.17g"] * width) + "\n"
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for start in range(0, len(rows), 65536):
            chunk = rows[start : start + 65536]
            f.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


def write_dataset(dataset: np.ndarray, path) -> None:
    """Write samples as UTF-8 CSV with 17-significant-digit decimals."""
    write_csv(path, DATASET_HEADER, dataset)


def _bad_row(lines) -> str | None:
    """Message naming the first malformed row of a dataset body, or None."""
    for lineno, line in enumerate(lines, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            return f"malformed dataset row at line {lineno}: expected 4 fields"
        try:
            for part in parts:
                float(part)
        except ValueError:
            return f"malformed dataset row at line {lineno}: non-numeric field"
    return None


def read_dataset(path) -> np.ndarray:
    """Read a dataset CSV back into an (n, 4) array.

    Raises ValueError naming the offending line on malformed input.
    """
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        if header != DATASET_HEADER:
            raise ValueError(f"malformed dataset header at line 1: {header!r}")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(f, delimiter=",", comments=None, ndmin=2)
        except ValueError as err:
            failure = err
        else:
            if data.size == 0:
                return np.empty((0, 4))
            if data.shape[1] == 4:
                return data
            failure = None
        # loadtxt counts rows from 0 or 1 depending on the message and skips
        # blank lines, so name the offending line from a rescan
        f.seek(0)
        f.readline()
        message = _bad_row(f)
    raise ValueError(message or f"malformed dataset: {failure}") from failure
