import hashlib
import math
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fitguide import (
    AdjointParams,
    DatagenConfig,
    generate_dataset,
    propagate_param,
    read_dataset,
    write_dataset,
)
from fitguide.datagen import format_17g, write_csv

SMALL = DatagenConfig(alpha_bar=10.0, n_i=4, n_j=6, t_bar=3.0, h=0.01)

# write_dataset(generate_dataset(REDUCED_CONFIG)): every byte of the CSV is pinned
REDUCED_CSV_SHA256 = "3b9f797817a881ad35a29e5628834bbb757aa62e1b2013d0734cd212be3885e4"


def test_loop_bound_single_cell():
    # one cell only: (alpha, beta) = (10, pi), the degenerate straight line;
    # at most the two grid instants can appear
    data = generate_dataset(DatagenConfig(alpha_bar=10.0, n_i=1, n_j=1, t_bar=0.01, h=0.005))
    assert len(data) <= 2


def test_config_validation():
    with pytest.raises(ValueError):
        DatagenConfig(alpha_bar=-1.0)
    with pytest.raises(ValueError):
        DatagenConfig(n_i=0)
    with pytest.raises(ValueError):
        DatagenConfig(t_bar=0.001, h=0.01)


@pytest.mark.parametrize("name", ["alpha_bar", "t_bar", "h"])
@pytest.mark.parametrize("value", [0.0, math.inf, math.nan])
def test_config_rejects_non_finite_or_non_positive_floats(name, value):
    with pytest.raises(ValueError, match="finite and positive"):
        DatagenConfig(**{name: value})


def test_sample_invariants(reduced_dataset):
    d = reduced_dataset
    assert np.all(np.isfinite(d))
    assert np.all(d[:, 0] > 0)
    assert np.all((d[:, 1] > 0) & (d[:, 1] <= math.pi))
    assert np.all((d[:, 2] > 0) & (d[:, 2] <= 4.0))


def test_emitted_commands_match_scalar_trajectories():
    # oracle: recompute each emitted cell with the scalar propagator and the
    # emission rules (collinearity or first command zero, post-departure)
    data = generate_dataset(SMALL)
    cursor = 0
    for i in range(1, SMALL.n_i + 1):
        alpha = i * SMALL.alpha_bar / SMALL.n_i
        for j in range(1, SMALL.n_j + 1):
            beta = j * math.pi / SMALL.n_j
            expected = _expected_cell_rows(alpha, beta, SMALL)
            got = data[cursor : cursor + len(expected)]
            assert got.shape == expected.shape, (i, j)
            assert np.allclose(got, expected, rtol=0, atol=1e-12), (i, j)
            cursor += len(expected)
    assert cursor == len(data)


def _expected_cell_rows(alpha, beta, config):
    traj = propagate_param(AdjointParams(alpha, beta), t_end=config.t_bar, dt=config.h)
    if traj.terminal_time == 0.0:  # degenerate: never leaves the collinear set
        return np.empty((0, 4))
    u = traj.U[1:]
    k_last = len(u)
    flips = np.where(u[1:] * u[:-1] < 0.0)[0]
    if len(flips):
        k_last = min(k_last, int(flips[0]) + 1)
    rows = np.column_stack([traj.R[1 : k_last + 1], traj.Sigma[1 : k_last + 1],
                            traj.t[1 : k_last + 1], u[:k_last]])
    return rows[rows[:, 1] > 0.0]


def test_round_trip_identity(tmp_path):
    data = generate_dataset(SMALL)
    path = tmp_path / "d.csv"
    write_dataset(data, path)
    back = read_dataset(path)
    assert np.array_equal(back, data)


def test_round_trip_empty(tmp_path):
    path = tmp_path / "empty.csv"
    write_dataset(np.empty((0, 4)), path)
    assert path.read_text(encoding="utf-8") == "r,sigma,t_go,u\n"
    assert read_dataset(path).shape == (0, 4)


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(generate_dataset(SMALL), a)
    write_dataset(generate_dataset(SMALL), b)
    assert a.read_bytes() == b.read_bytes()


def test_reduced_dataset_csv_keeps_its_sha256(reduced_dataset, tmp_path):
    path = tmp_path / "reduced.csv"
    write_dataset(reduced_dataset, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REDUCED_CSV_SHA256


def _bits(v: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", v))[0]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _percent_writer(path, header, rows):
    """The CSV writer before format_17g: one '%.17g' per value."""
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for start in range(0, len(rows), 65536):
            chunk = rows[start : start + 65536]
            f.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


POWERS_OF_TEN = [float(f"1e{k}") for k in range(-12, 18)]
# the integer path is 1e-11 < |v| < 1e16; from 2**53 its limb shift changes
PATH_EDGES = [1e-11, 1e16, 2.0**53]
FORMAT_EXAMPLES = [
    0.0, -0.0, math.nan, math.inf, -math.inf,
    5e-324,  # the smallest subnormal
    sys.float_info.max,
    9.99999999999999955e-7,  # decade e-07, though its 17 digits round up to 10**17
    -9.99999999999999955e-7,
    2.0**-25,  # 2.98023223876953125e-08, an exact tie that rounds down to even
    3 * 2.0**-25,  # 8.94069671630859375e-08, an exact tie that rounds up to even
    *POWERS_OF_TEN,
    *PATH_EDGES,
    *[math.nextafter(v, to) for v in POWERS_OF_TEN + PATH_EDGES for to in (0.0, math.inf)],
]


def _with_examples(test):
    for v in FORMAT_EXAMPLES:
        test = example(bits=_bits(v))(test)
    return test


@settings(max_examples=1000, deadline=None)
@given(bits=st.integers(0, 2**64 - 1))
@_with_examples
def test_format_17g_equals_percent_17g_for_any_bit_pattern(bits):
    v = _float(bits)
    assert format_17g(np.array([[v]])) == b"%.17g\n" % v


@settings(max_examples=200, deadline=None)
@given(width=st.sampled_from([1, 8]), bits=st.lists(st.integers(0, 2**64 - 1), max_size=64))
@example(width=1, bits=[])
@example(width=8, bits=[])
def test_write_csv_equals_the_percent_writer(tmp_path_factory, width, bits):
    rows = np.array(bits[: len(bits) // width * width], dtype=np.uint64).view(float).reshape(-1, width)
    header = ",".join(f"c{j}" for j in range(width))
    folder = tmp_path_factory.mktemp("csv")
    write_csv(folder / "ours.csv", header, rows)
    _percent_writer(folder / "ref.csv", header, rows)
    assert (folder / "ours.csv").read_bytes() == (folder / "ref.csv").read_bytes()


@pytest.mark.parametrize("width", [1, 3, 8])
def test_write_csv_equals_the_percent_writer_across_chunks(tmp_path, width):
    # random significands and signs at every binary exponent of the integer
    # path and the two just outside it; every tenth value any bit pattern
    rng = np.random.default_rng(width)
    size = (2 * 4096 + 3) * width
    bits = rng.integers(0, 2**52, size, dtype=np.uint64)
    bits |= rng.integers(985, 1078, size, dtype=np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2, size, dtype=np.uint64) << np.uint64(63)
    bits[::10] = rng.integers(0, 2**64, len(bits[::10]), dtype=np.uint64)
    rows = bits.view(float).reshape(-1, width)
    header = ",".join(f"c{j}" for j in range(width))
    write_csv(tmp_path / "ours.csv", header, rows)
    _percent_writer(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_rewrites_of_one_path_equal_a_fresh_write(tmp_path):
    fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
    data = generate_dataset(SMALL)
    write_dataset(data, fresh)
    # the first write is longer, so a stale tail would show
    write_dataset(np.vstack([data, data]), reused)
    for _ in range(3):
        write_dataset(data, reused)
        assert reused.read_bytes() == fresh.read_bytes()


def test_write_replaces_a_regular_file_but_writes_through_a_symlink(tmp_path):
    target, link, other = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "other.csv"
    target.write_text("old\n", encoding="utf-8")
    link.symlink_to(target)
    other.hardlink_to(target)
    write_csv(link, "a,b", [[1.0, 2.0]])
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_text(encoding="utf-8") == "a,b\n1,2\n"
    # the link is written through, so the hard link still shares the inode
    assert other.read_text(encoding="utf-8") == "a,b\n1,2\n"
    write_csv(target, "a,b", [[3.0, 4.0]])
    # a regular file is replaced: the hard link keeps the old bytes
    assert link.read_text(encoding="utf-8") == "a,b\n3,4\n"
    assert other.read_text(encoding="utf-8") == "a,b\n1,2\n"


def test_write_to_a_directory_or_under_a_missing_parent_raises(tmp_path):
    with pytest.raises(IsADirectoryError):
        write_csv(tmp_path, "a,b", [[1.0, 2.0]])
    assert tmp_path.is_dir()
    with pytest.raises(FileNotFoundError):
        write_csv(tmp_path / "missing" / "d.csv", "a,b", [[1.0, 2.0]])


@pytest.mark.parametrize("header, rows", [
    ("a,b", np.zeros((2, 2, 2))),
    ("a,b", np.zeros(2)),
    ("a,b,c", np.zeros((2, 2))),
    ("a,b", np.zeros((0, 3))),
])
def test_refused_write_leaves_the_old_file_intact(tmp_path, header, rows):
    path = tmp_path / "d.csv"
    write_dataset(generate_dataset(SMALL), path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="do not fit"):
        write_csv(path, header, rows)
    assert path.read_bytes() == before


def test_reader_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("r,sigma,t_go,u\n1,2,3,4\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3"):
        read_dataset(path)
    path.write_text("r,sigma,t_go,u\n1,2,three,4\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        read_dataset(path)
    path.write_text("wrong,header\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        read_dataset(path)


def test_reader_counts_blank_lines_and_rejects_comments(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("r,sigma,t_go,u\n1,2,3,4\n\n1,2,x,4\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 4: non-numeric"):
        read_dataset(path)
    path.write_text("r,sigma,t_go,u\n1,2,3,4\n\n\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 5: expected 4 fields"):
        read_dataset(path)
    path.write_text("r,sigma,t_go,u\n1,2,3\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: expected 4 fields"):
        read_dataset(path)
    path.write_text("r,sigma,t_go,u\n1,2,3,4\n# note,2,3,4\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3: non-numeric"):
        read_dataset(path)


def test_reader_blank_body_is_empty(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("r,sigma,t_go,u\n\n\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read_dataset(path).shape == (0, 4)


def test_grid_coverage_matches_cell_survival():
    # number of represented cells == number of cells whose truncated horizon
    # admits at least one grid sample
    data = generate_dataset(SMALL)
    expected_cells = 0
    expected_rows = 0
    for i in range(1, SMALL.n_i + 1):
        alpha = i * SMALL.alpha_bar / SMALL.n_i
        for j in range(1, SMALL.n_j + 1):
            rows = _expected_cell_rows(alpha, j * math.pi / SMALL.n_j, SMALL)
            expected_cells += bool(len(rows))
            expected_rows += len(rows)
    assert len(data) == expected_rows
    # cells are contiguous blocks ordered by (i, j, t): count block boundaries
    # where t resets downward
    t = data[:, 2]
    resets = int(np.count_nonzero(np.diff(t) < 0)) + 1
    assert resets == expected_cells
