import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
import hypothesis
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from allmach.benchmarks import CASES
from allmach.integrator import DualState, si_dec_step
from allmach.snapshots import (
    _BLOCK_ROWS,
    snapshot_header,
    snapshot_read,
    snapshot_rows,
    snapshot_write,
    write_snapshot_data,
)
from allmach.state import SolverConfig

from builders import uniform


def test_uniform_state_rows_identical_up_to_coordinates(tmp_path):
    grid = CASES["gresho"].make_grid(4, 3, 0.1)
    cfg = SolverConfig(epsilon=0.1, gamma=1.4)
    state = DualState.from_primitive(uniform(grid, u=0.2, v=0.3, p=2.0), grid, cfg)
    rows = snapshot_rows(state, grid, cfg)
    assert rows.shape == (12, 14)
    data_cols = rows[:, 4:]
    assert np.allclose(data_cols, data_cols[0], rtol=1e-14)


def test_cell_ordering_k_major(tmp_path):
    grid, cfg, state = CASES["gresho"].start(0.1, 4, 3)
    rows = snapshot_rows(state, grid, cfg)
    assert list(rows[:4, 0]) == [0, 1, 2, 3]  # j fastest
    assert list(rows[:4, 1]) == [0, 0, 0, 0]
    assert rows[4, 1] == 1


def test_round_trip_is_byte_identical(tmp_path):
    grid, cfg, state = CASES["gresho"].start(0.1, 6, 6)
    first = tmp_path / "snap1.dat"
    second = tmp_path / "snap2.dat"
    snapshot_write(state, grid, cfg, first)
    header, rows = snapshot_read(first)
    write_snapshot_data(header, rows, second)
    assert first.read_bytes() == second.read_bytes()


def test_header_carries_dt_override_when_active(tmp_path):
    grid, cfg, state = CASES["gresho"].start(0.1, 4, 4, dt_override=(10, 1e-4))
    path = tmp_path / "snap.dat"
    snapshot_write(state, grid, cfg, path)
    header, _ = snapshot_read(path)
    assert header["dt_override"] == "10:0.0001"
    assert header["nx"] == 4 and header["eps"] == 0.1

    _, cfg_plain, plain = CASES["gresho"].start(0.1, 4, 4)
    snapshot_write(plain, grid, cfg_plain, path)
    header, _ = snapshot_read(path)
    assert "dt_override" not in header


def test_full_precision_round_trip_of_irrational_values(tmp_path):
    grid, cfg, state = CASES["gresho"].start(0.1, 4, 4)
    state.V.p[grid.interior] += np.pi * 1e-14  # exercise all 17 digits
    path = tmp_path / "snap.dat"
    snapshot_write(state, grid, cfg, path)
    _, rows = snapshot_read(path)
    p_col = rows[:, 7].reshape(grid.ny, grid.nx).T
    assert np.array_equal(p_col, state.V.p[grid.interior])


# --- The writer's bytes ------------------------------------------------------

def _reference_write(header: dict, rows: np.ndarray, path) -> None:
    """The original per-row writer, kept as the byte oracle."""

    def fmt(value) -> str:
        if isinstance(value, float):
            return "%.17g" % value
        return str(value)

    with open(path, "w") as f:
        for key, value in header.items():
            f.write(f"# {key} = {fmt(value)}\n")
        f.write("# columns: j k x y rho u v p rho_cons mx my E mach vorticity\n")
        for row in rows:
            f.write("%d %d " % (int(row[0]), int(row[1])))
            f.write(" ".join("%.17g" % x for x in row[2:]))
            f.write("\n")


def _golden_snapshot():
    """Double shear, eps=0.3, 16x12, after 3 steps, with edge-case values planted."""
    grid, cfg, state = CASES["double_shear"].start(0.3, 16, 12)
    for _ in range(3):
        state, _ = si_dec_step(state, grid, cfg)
    rows = snapshot_rows(state, grid, cfg)
    rows[0, 4] = -0.0
    rows[1, 5] = 1e-310  # subnormal
    rows[2, 6] = 1e300
    rows[3, 7] = 2.0  # integer-valued
    rows[-1, 13] = -0.0
    return snapshot_header(state, grid, cfg), rows


# sha256 of the original per-row writer's output for _golden_snapshot().  It
# also pins three solver steps: a solver change that moves this state by
# round-off re-derives the digest with _reference_write, not with the writer.
GOLDEN_SHA256 = "ea7624891903f079671dba7ebc6b96f1663338928203a80d7e928215361584ad"


@pytest.mark.golden
def test_writer_bytes_match_golden_digest(tmp_path):
    header, rows = _golden_snapshot()
    path = tmp_path / "golden.dat"
    write_snapshot_data(header, rows, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@hypothesis.seed(20261019)
@given(data=st.data())
def test_writer_bytes_match_reference_loop(data):
    nx = data.draw(st.integers(1, 7), label="nx")
    n = data.draw(st.integers(0, 30), label="n")
    values = data.draw(hnp.arrays(np.float64, (n, 12), elements=st.floats(width=64)), label="values")
    index = data.draw(hnp.arrays(np.int64, (n, 2), elements=st.integers(0, 10**6)), label="index")
    rows = np.column_stack((index.astype(np.float64), values))
    header = {
        "time": data.draw(st.floats(width=64), label="time"),
        "nx": nx,
        "ny": max(1, -(-n // nx)),
        "bc_x": "periodic",
    }
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.dat", Path(tmp) / "theirs.dat"
        write_snapshot_data(header, rows, ours)
        _reference_write(header, rows, theirs)
        assert ours.read_bytes() == theirs.read_bytes()


def _edge_values() -> np.ndarray:
    """Values at the edges of the writer's positional window and rounding."""
    powers = np.array([float(f"1e{k}") for k in range(-6, 19)])
    special = [
        0.0, 5e-324, 1e-310, 1e300, np.inf, np.nan,
        0.0009999999999999998,  # log10 rounds up into the next decade
        9.9999999999999991e-05,  # the same, and stays exponential
        10000000000000.0625, 10000000000000.1875,  # exact ties at the 17th digit
    ]
    # every count of trailing zeros in the 17 digits
    dyadic = 2.0 ** -np.arange(1, 15)
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                             special, dyadic, 1.0 + dyadic, 1e6 + dyadic])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("n_rows", [0, 1, _BLOCK_ROWS + 1])
def test_writer_bytes_match_reference_at_edge_values(tmp_path, n_rows):
    index = np.resize([0.0, 1.0, 9.0, 10.0, 99.0, 12345.0, 999999.0, 1e6], (n_rows, 2))
    rows = np.column_stack((index, np.resize(_edge_values(), (n_rows, 12))))
    header = {"time": 0.5, "nx": 4, "ny": 4, "bc_x": "periodic"}
    ours, theirs = tmp_path / "ours.dat", tmp_path / "theirs.dat"
    write_snapshot_data(header, rows, ours)
    _reference_write(header, rows, theirs)
    assert ours.read_bytes() == theirs.read_bytes()
    if n_rows > 1:
        tokens = ours.read_text().split()
        assert "10000000000000.062" in tokens and "10000000000000.188" in tokens


@pytest.mark.parametrize("columns", [13, 15])
def test_writer_rejects_a_table_without_14_columns(tmp_path, columns):
    with pytest.raises(ValueError, match="14 columns"):
        write_snapshot_data({"nx": 1}, np.ones((2, columns)), tmp_path / "snap.dat")


# --- The reader --------------------------------------------------------------

def _reference_read(path) -> tuple[dict, np.ndarray]:
    """The original line-by-line parser, kept as the reader's oracle."""
    header: dict = {}
    data = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("columns:"):
                    continue
                key, _, raw = body.partition("=")
                key = key.strip()
                raw = raw.strip()
                if key in ("nx", "ny"):
                    header[key] = int(raw)
                elif key in ("bc_x", "bc_y", "dt_override"):
                    header[key] = raw
                else:
                    header[key] = float(raw)
            elif line:
                data.append([float(tok) for tok in line.split()])
    return header, np.asarray(data)


def _one_cell_snapshot():
    """A 1x1 table: one data line, which must still read back as a 2-D array."""
    header, rows = _golden_snapshot()
    header.update(nx=1, ny=1)
    return header, rows[:1]


def _non_finite_snapshot():
    header, rows = _golden_snapshot()
    rows[4, 8] = np.inf
    rows[5, 9] = -np.inf
    rows[6, 10] = np.nan
    rows[7, 11] = 5e-324
    return header, rows


@pytest.mark.parametrize("make", [_golden_snapshot, _one_cell_snapshot, _non_finite_snapshot])
def test_reader_matches_reference_parser(tmp_path, make):
    header, rows = make()
    path = tmp_path / "snap.dat"
    write_snapshot_data(header, rows, path)
    got_header, got = snapshot_read(path)
    want_header, want = _reference_read(path)
    assert got_header == want_header
    assert got.shape == want.shape == rows.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
