"""Second-order piecewise-linear reconstruction of the primitive variables.

Slopes come from the generalized minmod limiter with parameter theta in
[1, 2]; larger theta is sharper but more oscillatory.  One reconstruction
pass feeds both the primitive-form and the conservative-form operators:
conservative interface states are obtained by transforming the reconstructed
primitive values.

Every kernel here works along axis 0 of one axis-first block of shape
(4, n+2g, m): the n cells along the axis with their g ghost cells at each
end, for m cells across it (a strip of the grid, transposed for y; see
``grid.along``).  Slopes are computed on the interior plus the first ghost
ring along the axis, so that the interfaces on the physical boundary have
two-sided values.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPhysicalState

RHO, U, V, P = 0, 1, 2, 3

# Traces of one axis: (minus, plus), the states left and right of each
# interface normal to that axis, each of shape (4, n+1, m) with the axis
# first (n cells along it, m across it).
Traces = tuple[np.ndarray, np.ndarray]


def minmod(*zs, out=None):
    """Minimum of the arguments if all positive, maximum if all negative,
    zero otherwise.  Componentwise on arrays, written into ``out`` when
    given (``out`` may be one of the arguments); plain float on scalars."""
    if len(zs) < 2:
        raise ValueError("minmod needs at least two arguments")
    lo = np.asarray(np.minimum(zs[0], zs[1]))
    hi = np.asarray(np.maximum(zs[0], zs[1]))
    for z in zs[2:]:
        np.minimum(lo, z, out=lo)
        np.maximum(hi, z, out=hi)
    # The arguments share a sign exactly when their minimum and maximum do,
    # so at most one of the two clipped terms is nonzero.
    np.maximum(lo, 0.0, out=lo)
    np.minimum(hi, 0.0, out=hi)
    lo = np.add(lo, hi, out=lo if out is None else out)
    return float(lo) if lo.ndim == 0 else lo


def compute_slopes(Vs: np.ndarray, h: float, theta: float) -> np.ndarray:
    """Generalized-minmod slopes along axis 0 of a block (4, n+2g, m) with
    spacing ``h``, on every row but the first and last: shape (4, n+2g-2, m).
    """
    one_sided = Vs[:, 1:] - Vs[:, :-1]
    one_sided *= theta
    one_sided /= h
    central = (Vs[:, 2:] - Vs[:, :-2]) / (2.0 * h)
    return minmod(one_sided[:, :-1], central, one_sided[:, 1:], out=central)


def limited_traces(Vs: np.ndarray, h: float, theta: float, axis: int, j0: int) -> Traces:
    """Piecewise-linear values at the interface midpoints of a block along
    ``axis`` from generalized-minmod slopes.  ``j0`` is the interior index of
    the block's first cell across the axis; it and ``axis`` only serve to
    name the cell of a failure.

    For theta in [1, 2] every trace lies between the averages of the two
    cells that share its interface, so positive cell averages give positive
    density and pressure traces up to round-off.  Raises NonPhysicalState,
    naming the component, the axis and the interior index (i, j) of the cell
    whose trace is lowest, if any density or pressure trace is non-positive.
    """
    s = compute_slopes(Vs, h, theta)
    s *= 0.5 * h
    # With g = 2 ghosts the slopes start at row 1: the minus traces are owned
    # by rows 1 .. n+1, the plus traces by rows 2 .. n+2.
    minus = Vs[:, 1:-2] + s[:, :-1]
    plus = Vs[:, 2:-1] - s[:, 1:]
    for comp, name in ((RHO, "density"), (P, "pressure")):
        lowest = min(float(minus[comp].min()), float(plus[comp].min()))
        if lowest <= 0.0:
            _raise_non_positive(name, lowest, minus[comp], plus[comp], axis, j0)
    return minus, plus


def _raise_non_positive(name, lowest, minus, plus, axis, j0):
    """Locate the lowest of a component's traces and raise NonPhysicalState."""
    owner, t = (-1, minus) if float(minus.min()) == lowest else (0, plus)
    k, j = np.unravel_index(np.argmin(t), t.shape)
    along_cell, across_cell = int(k) + owner, j0 + int(j)
    cell = (along_cell, across_cell) if axis == 0 else (across_cell, along_cell)
    raise NonPhysicalState(
        f"reconstructed {name} non-positive (min {lowest:.3g}) along {'xy'[axis]} at cell {cell}"
    )
