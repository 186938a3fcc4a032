"""Delimited-text snapshot serialization.

One file per snapshot: ``key = value`` header lines, a column legend, then
one row per interior cell in k-major order (k slowest, j fastest).  All
floats are written with 17 significant digits so that parse/re-serialize
round trips are byte identical.
"""

from __future__ import annotations

import functools

import numpy as np

from .benchmarks import local_mach, vorticity
from .grid import GridSpec
from .integrator import DualState
from .state import SolverConfig

COLUMNS = "j k x y rho u v p rho_cons mx my E mach vorticity"

_F = "%.17g"


def _fmt(value) -> str:
    if isinstance(value, float):
        return _F % value
    return str(value)


def snapshot_rows(state: DualState, grid: GridSpec, cfg: SolverConfig) -> np.ndarray:
    """Cell table in file order, shape (nx*ny, 14), filled column by column
    in one (ny, nx, 14) array: k-major, so cell (j, k) is row k*nx + j."""
    core = grid.interior
    X, Y = grid.cell_centers()
    nx, ny = grid.nx, grid.ny
    table = np.empty((ny, nx, 14))
    table[..., 0] = np.arange(nx)
    table[..., 1] = np.arange(ny)[:, None]
    table[..., 2] = X.T
    table[..., 3] = Y.T
    table[..., 4:8] = state.V.array[core].T
    table[..., 8:12] = state.U.array[core].T
    table[..., 12] = local_mach(state.V, cfg.gamma, grid).T
    table[..., 13] = vorticity(state.V, grid).T
    return table.reshape(nx * ny, 14)


def snapshot_header(state: DualState, grid: GridSpec, cfg: SolverConfig) -> dict:
    header = {
        "time": float(state.t),
        "eps": float(cfg.epsilon),
        "gamma": float(cfg.gamma),
        "nx": grid.nx,
        "ny": grid.ny,
        "x_lo": float(grid.x_lo),
        "x_hi": float(grid.x_hi),
        "y_lo": float(grid.y_lo),
        "y_hi": float(grid.y_hi),
        "bc_x": grid.bc_x,
        "bc_y": grid.bc_y,
    }
    if cfg.dt_override is not None:
        header["dt_override"] = "%d:%s" % (cfg.dt_override[0], _F % cfg.dt_override[1])
    return header


# --- The table writer --------------------------------------------------------
#
# Every table value is written as exactly the bytes of ``"%.17g" % value``,
# the two index columns as those of ``"%d" % value``.  A value with
# 1e-4 <= |x| < 1e17 prints in positional notation, and numpy formats it a
# block of rows at a time:
#
# * Digits.  With k = 16 - floor(log10 |x|), 0 <= k <= 20, the power 10**k is
#   an exact double, and Dekker's split product (Numer. Math. 18, 1971) gives
#   |x| * 10**k = p + e exactly.  p >= 1e16 > 2**53 is an even integer, so
#   N = p + rint(e) rounds the exact product half to even, as "%.17g" does.
#   N holds the 17 significant digits and X = 16 - k is the decimal exponent.
#   N never rounds up to 1e17, which would move X up a decade: that takes
#   a value within 5e-18 of a power of ten below it, and the largest double
#   below each of 0.001 ... 1e17 is at least 8e-17 below it (0.1 is closest).
# * Layout.  Each value gets a frame of _WIDTH bytes that holds everything it
#   may print: the 17 digits twice, as integer and as fraction part, a sign
#   and '.' for each, and the "0.000" of a value below 1.  The row of the
#   keep table for its (X, sign, last non-zero digit) selects the bytes to
#   print, and one boolean mask concatenates them.  They form one or two
#   runs of the frame, which keeps that mask fast.
# * Zero runs through the kernel as N = 0.  Every other value outside the
#   window (non-finite, below 1e-4, from 1e17, or a product whose log10
#   estimate missed the decade) is formatted by Python and spliced in.
#
# 256-row blocks: one 128² double-shear table takes 29-31 ms with any block
# of 128 to 1024 rows, but the arrays of one block peak at 1.25 MB at 256
# rows and 2.5 MB at 512, and from 1024 rows on they raise the peak resident
# memory of a run that writes snapshots (+2.5 MB at 1024 rows, +8 MB at 2048).

_NCOL = len(COLUMNS.split())
_BLOCK_ROWS = 256

# A frame as 12 little-endian words: word 0 holds the sign of a value of at
# least 1 and the leading digit, words 1-4 and 7-10 the other 16 digits, 4 to
# a word (the integer digits start at byte _INT, the fraction digits at
# _FRAC), words 5-6 the sign, "0." and zeros of a value below 1, right
# before the fraction digits, and word 11 the separator at byte _SEP.  The
# '.' of a value of at least 1 is written over the digit after its last
# integer digit.
_WIDTH, _INT, _FRAC, _SEP = 48, 3, 27, 44


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of v into its upper 26 bits and the exact rest."""
    t = v * 134217729.0  # 2**27 + 1
    hi = t - (t - v)
    return hi, v - hi


_POW10 = np.array([10.0**k for k in range(21)])
_POW10_HI, _POW10_LO = _split(_POW10)

# The tables are built from byte strings: numpy kernels run only here, or
# thousands of small Python objects, would add to the resident memory of
# every run.  The two large ones are built by the first write.  _PREFIX holds
# words 5-6 for each (X, sign) group and leading digit.
_SIGN_LEAD = np.array([ord("-") << 16 | ord(d) << 24 for d in "0123456789"], "<u4")
_PREFIX = np.frombuffer(b"".join(
    (b"-" * neg + b"0." + b"0" * (-X - 1) if X < 0 else b"").rjust(_FRAC - 20, b"\0") + b"%d" % lead
    for X in range(-4, 17) for neg in (0, 1) for lead in range(10)
), "<u4").reshape(-1, 2)
_SEPARATORS = np.array([ord(" ")] * (_NCOL - 1) + [ord("\n")], "<u4")


@functools.cache
def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of each four-digit group 0..9999 as one word, and for
    a group in position j (digits 4j+1 .. 4j+4 of the 17) the index of its
    last non-zero digit, 0 for a zero group."""
    digits = bytearray(4 * 10000)
    for place, repeat in enumerate((1000, 100, 10, 1)):
        digits[place::4] = b"".join(bytes([d]) * repeat for d in b"0123456789") * (1000 // repeat)
    within = bytearray(b"\3" * 1000)  # last non-zero digit of g % 1000
    within[::10] = b"\2" * 100
    within[::100] = b"\1" * 10
    within[0] = 0
    last = bytearray()
    for j in range(4):
        offset = bytes(within * 10).translate(bytes(range(1 + 4 * j, 5 + 4 * j)).ljust(256, b"\0"))
        last += b"\0" + offset[1:]
    return np.frombuffer(digits, "<u4"), np.frombuffer(last, np.uint8).reshape(4, -1)


@functools.cache
def _keep_table() -> tuple[np.ndarray, np.ndarray]:
    """Which frame bytes print, one row per ((X + 4) * 2 + sign) * 17 + L for
    decimal exponent X, sign bit and last non-zero digit L, and how many."""
    rows = [(X, neg, L) for X in range(-4, 17) for neg in (0, 1) for L in range(17)]
    keep = bytearray(len(rows) * _WIDTH)
    for row, (X, neg, L) in enumerate(rows):
        at = row * _WIDTH
        if X >= 0:
            keep[at + _INT - neg:at + _INT + X + 1] = b"\1" * (X + 1 + neg)  # sign, integer digits
            keep[at + _INT + X + 1] = L > X  # '.'
        else:
            keep[at + _FRAC - 1 + X - neg:at + _FRAC] = b"\1" * (1 - X + neg)  # sign, "0.", zeros
        first = max(X + 1, 0)
        keep[at + _FRAC + first:at + _FRAC + L + 1] = b"\1" * (L + 1 - first)  # fraction digits
        keep[at + _SEP] = 1
    table = np.frombuffer(keep, bool).reshape(-1, _WIDTH)
    return table, np.array([keep.count(1, at, at + _WIDTH) for at in range(0, len(keep), _WIDTH)])


_SEPARATOR_ONLY = np.frombuffer(bytes(_SEP) + b"\1" + bytes(_WIDTH - _SEP - 1), bool)


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Significant digits N (int64) and decimal exponent X of each value in
    the positional window, and the window mask; N = X = 0 outside it."""
    a = np.abs(x)
    ok = (a >= 1e-4) & (a < 1e17)
    a[~ok] = 1.0  # keeps log10, the split product and the casts finite
    k = np.clip(16.0 - np.floor(np.log10(a)), 0, 20).astype(np.intp)
    p = a * _POW10[k]
    a_hi, a_lo = _split(a)
    hi, lo = _POW10_HI[k], _POW10_LO[k]
    e = ((a_hi * hi - p) + a_hi * lo + a_lo * hi) + a_lo * lo
    # The exact product must have 17 integer digits; next to a power of ten
    # log10 can miss the decade.
    ok &= (p - 1e16) + e >= 0
    ok &= (p - 1e17) + e < 0
    p[~ok] = 0.0
    e[~ok] = 0.0
    k[~ok] = 16
    return p.astype(np.int64) + np.rint(e).astype(np.int64), 16 - k, ok


def _write_table(f, rows: np.ndarray) -> None:
    """Write the (n, 14) float table as text rows, _BLOCK_ROWS at a time."""
    digit_table, last_table = _group_tables()
    keep_table, keep_size = _keep_table()
    cells = min(len(rows), _BLOCK_ROWS) * _NCOL
    words = np.empty((12, cells), "<u4")
    words[11] = np.resize(_SEPARATORS, cells)
    frame = np.empty((cells, _WIDTH), np.uint8)
    point_at = np.arange(cells) * _WIDTH + _INT + 1
    keep = np.empty((cells, _WIDTH), bool)
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        x = block.copy()
        # "%d" of an index is "%.17g" of its truncation, with -0 made 0
        x[:, :2] = np.trunc(x[:, :2]) + 0.0
        x = x.ravel()
        n = x.size
        digits, exponent, ok = _decimal(x)
        lead = digits // 10**16
        upper = digits // 10**8
        groups = []
        for half in (upper - lead * 10**8, digits - upper * 10**8):
            quotient = half // 10**4
            groups += [quotient, half - quotient * 10**4]
        w = words[:, :n]
        np.take(_SIGN_LEAD, lead, out=w[0])
        last = np.zeros(n, np.uint8)
        for j, group in enumerate(groups):
            np.take(digit_table, group, out=w[1 + j])
            np.maximum(last, last_table[j].take(group), out=last)
        w[7:11] = w[1:5]
        key = (exponent + 4) * 2
        key[np.signbit(x)] += 1
        prefix = key * 10 + lead
        np.take(_PREFIX[:, 0], prefix, out=w[5])
        np.take(_PREFIX[:, 1], prefix, out=w[6])
        frame[:n].view("<u4")[:] = w.T
        frame.reshape(-1)[point_at[:n] + exponent] = ord(".")  # lands in unused bytes below 1
        key *= 17
        key += last
        np.take(keep_table, key, axis=0, out=keep[:n])
        fallback = np.flatnonzero(~ok & (x != 0))
        keep[fallback] = _SEPARATOR_ONLY
        text = frame[:n][keep[:n]]
        if not fallback.size:
            f.write(text)
            continue
        sizes = keep_size[key]
        sizes[fallback] = 1
        done = 0
        for i, cut in zip(fallback, np.cumsum(sizes)[fallback] - 1):  # at the separator
            f.write(text[done:cut])
            f.write((b"%d" if i % _NCOL < 2 else b"%.17g") % block.flat[i])
            done = cut
        f.write(text[done:])


def write_snapshot_data(header: dict, rows: np.ndarray, path) -> None:
    """Write the header lines, the column legend and the (n, 14) table."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != _NCOL:
        raise ValueError(f"a snapshot table has {_NCOL} columns, not shape {rows.shape}")
    with open(path, "wb") as f:
        for key, value in header.items():
            f.write(f"# {key} = {_fmt(value)}\n".encode())
        f.write(f"# columns: {COLUMNS}\n".encode())
        _write_table(f, rows)


def snapshot_write(state: DualState, grid: GridSpec, cfg: SolverConfig, path) -> None:
    """Serialize one state (both solution copies plus diagnostics)."""
    write_snapshot_data(snapshot_header(state, grid, cfg), snapshot_rows(state, grid, cfg), path)


def snapshot_read(path) -> tuple[dict, np.ndarray]:
    """Parse a snapshot back into (header, row table)."""
    header: dict = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                break
            body = line[1:].strip()
            if not body or body.startswith("columns:"):
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
    return header, np.loadtxt(path, comments="#", ndmin=2)
