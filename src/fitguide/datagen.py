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
    "format_17g",
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


# --- 17-significant-digit text ---


def _least_double_at_or_above(e: int) -> float:
    t = float(f"1e{e}")
    num, den = t.as_integer_ratio()
    below = num * 10**-e < den if e < 0 else num < den * 10**e
    return math.nextafter(t, math.inf) if below else t


# _DECADE[i] is the least double at or above 10**(i - 11), so a double a has
# 10**e <= a < 10**(e + 1) for e = (number of entries <= a) - 12
_DECADE = np.array([_least_double_at_or_above(e) for e in range(-11, 17)])
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)  # 5**27 < 2**63
_LOW32 = np.uint64(0xFFFFFFFF)


def _decimal17(a: np.ndarray):
    """Each a in (1e-11, 1e16) as 17 digits N and a decade e: a * 10**(16 - e) rounded half-even.

    e is exact (10**e <= a < 10**(e + 1)), so it is the decade of floor(a * 10**k)
    for k = 16 - e, not of the rounded N, which may carry to 10**17.  With
    a = m * 2**(b - 1076), b the biased exponent and m the doubled 53-bit
    significand, N = round(m * 5**k / 2**r) for r = 1076 - b - k in
    [0, 63]; only 2**53 <= a < 1e16 gives r = -1, and there m is doubled
    again.  m * 5**k < 2**117 is formed in two 64-bit limbs (hi, lo); the
    r dropped bits all lie in lo and decide the rounding exactly, ties to
    even as in ``'%.17g'``.
    """
    i = np.searchsorted(_DECADE, a, side="right")
    e = i - 12
    r = 1048 + i - (a.view(np.int64) >> 52)  # -1 only for 2**53 <= a < 1e16
    m = ((a.view(np.uint64) & np.uint64(2**52 - 1)) | np.uint64(2**52)) << (1 + (r < 0)).astype(np.uint64)
    r = np.maximum(r, 0).astype(np.uint64)
    p = _POW5[28 - i]
    m0, m1, p0, p1 = m & _LOW32, m >> np.uint64(32), p & _LOW32, p >> np.uint64(32)
    lo = m0 * p0
    mid = m0 * p1 + m1 * p0  # < 2**63 + 2**54
    hi = m1 * p1 + (mid >> np.uint64(32))
    mid <<= np.uint64(32)
    lo += mid
    hi += lo < mid
    # two shifts keep every shift count below 64
    N = (lo >> r) | (hi << (np.uint64(63) - r) << np.uint64(1))
    dropped = (np.uint64(1) << r) - np.uint64(1)
    rest = lo & dropped
    half = (dropped >> np.uint64(1)) + np.uint64(1)
    N += (rest > half) | ((rest == half) & (N & np.uint64(1)).astype(bool))
    carry = N == np.uint64(10**17)
    N[carry] = np.uint64(10**16)
    return N, e + carry


_SLOT = np.arange(18, dtype=np.uint8)[:, None]
_DIGIT = np.arange(17, dtype=np.uint8)[:, None]
_RANK = np.arange(1, 18, dtype=np.uint8)[:, None]


def format_17g(rows, sep: str = ",") -> bytes:
    """ASCII text of a 2-D float array, each value byte-equal to ``'%.17g' % v``.

    The values of a row are joined by the one character ``sep`` and each
    row ends in a newline.  Every value with 1e-11 < |v| < 1e16 is formatted with numpy
    integer arithmetic (``_decimal17``) into 29 fixed slots: sign, the
    "0." of 1e-4 <= |v| < 1, up to three zeros, 17 digits and a dot,
    "e-XX", separator.  A dropped slot holds a NUL byte, and one pass of
    ``bytes.translate`` deletes them all.  The other values (0, -0, nan, inf,
    subnormals and the rest) are formatted by ``%`` itself into their slots.
    """
    rows = np.asarray(rows, dtype=float)
    n, width = rows.shape
    x = rows.ravel()
    size = x.size
    if not size:
        return b"\n" * n
    a = np.abs(x)
    fast = (a > 1e-11) & (a < 1e16)
    N, e = _decimal17(np.where(fast, a, 1.0))
    # N's 17 digits, most significant first, after a leading zero: two
    # 9-digit halves, one digit of each per step
    head = N // np.uint64(10**9)
    part = np.stack([head, N - head * np.uint64(10**9)]).astype(np.uint32)
    digits = np.empty((2, 9, size), np.uint8)
    for j in range(8, -1, -1):
        rest = part // np.uint32(10)
        digits[:, j] = part - rest * np.uint32(10)
        part = rest
    digits = digits.reshape(18, size)[1:]
    sig = np.max(_RANK * (digits != 0), axis=0)  # digits up to the last nonzero one
    sci = e < -4
    small = (e < 0) & ~sci
    dot = np.where(e >= 0, e + 1, np.where(sci, 1, 17)).astype(np.uint8)  # digits before the dot
    keep = np.maximum(sig, np.where(e >= 0, e + 1, 0)).astype(np.uint8)  # digits written
    # text[1 + j] is digit j or NUL; text[0] and text[18] pad the shift past the dot
    text = np.zeros((19, size), np.uint8)
    np.multiply(digits + np.uint8(48), _DIGIT < keep, out=text[1:18])
    buf = np.empty((29, size), np.uint8)
    buf[0] = np.signbit(x) * np.uint8(ord("-"))
    buf[1] = small * np.uint8(ord("0"))
    buf[2] = small * np.uint8(ord("."))
    buf[3:6] = (small & (np.arange(3)[:, None] < -1 - e)) * np.uint8(ord("0"))
    # slot j holds digit j before the dot and digit j - 1 after it (uint8 wraps)
    shift = text[0:18] - text[1:19]
    shift *= _SLOT > dot
    np.add(text[1:19], shift, out=buf[6:24])
    buf.reshape(-1)[np.arange(6 * size, 7 * size) + dot.astype(np.intp) * size] = (sig > dot) * np.uint8(ord("."))
    buf[24] = sci * np.uint8(ord("e"))
    buf[25] = sci * np.uint8(ord("-"))
    buf[26] = sci * (48 + (-e) // 10).astype(np.uint8)
    buf[27] = sci * (48 + (-e) % 10).astype(np.uint8)
    ends = buf[28].reshape(n, width)
    ends[:] = ord(sep)
    ends[:, -1] = ord("\n")
    slow = np.flatnonzero(~fast)
    if slow.size:
        block = ("%-28.17g" * slow.size) % tuple(x[slow].tolist())
        block = np.frombuffer(block.encode("ascii"), np.uint8).reshape(-1, 28).T
        buf[:28, slow] = block * (block != ord(" "))
    return buf.T.tobytes().translate(None, b"\0")


def write_csv(path, header: str, rows) -> None:
    """Write a 2-D array as UTF-8 CSV under ``header``, 17 significant digits per value.

    Each value is written as ``'%.17g' % v`` would write it, so re-reads
    are bit-exact, but by ``format_17g``'s numpy integer arithmetic in
    chunks of 4,096 values rather than one ``%`` per value.  On the
    benchmark's dataset-pipeline slice (166,855 rows, 12.5 MB) the traced
    ``datagen.write_dataset.mb_per_s`` rose from 42.3 to 120.7 MB/s
    (medians of three runs each, 2-core AMD EPYC, Python 3.11, numpy 2.4).

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
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    step = max(1, 4096 // width)
    with open(path, "wb") as f:
        f.write(header.encode("utf-8") + b"\n")
        for start in range(0, len(rows), step):
            f.write(format_17g(rows[start : start + step]))


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
