"""Second-order piecewise-linear reconstruction of the primitive variables.

Slopes come from the generalized minmod limiter with parameter theta in
[1, 2]; larger theta is sharper but more oscillatory.  One reconstruction
pass feeds both the primitive-form and the conservative-form operators:
conservative interface states are obtained by transforming the reconstructed
primitive values.

Every kernel here works along axis 0 of its (transposed, for y) input; see
``grid.along``.  Slopes are computed on the interior plus the first ghost
ring so that the interfaces on the physical boundary have two-sided values.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPhysicalState
from .grid import AXIS_X, AXIS_Y, GridSpec, along
from .state import PrimitiveField

RHO, U, V, P = 0, 1, 2, 3

# Traces of one axis: (minus, plus), the states left and right of each
# interface normal to that axis, each of shape (4, n+1, m) with the axis
# first (n cells along it, m across it).
Traces = tuple[np.ndarray, np.ndarray]


def minmod(*zs, out=None):
    """Minimum of the arguments if all positive, maximum if all negative,
    zero otherwise.  Componentwise on arrays, written into ``out`` when
    given; plain float on scalars."""
    if len(zs) < 2:
        raise ValueError("minmod needs at least two arguments")
    lo = np.asarray(np.minimum(zs[0], zs[1], out=out))
    hi = np.asarray(np.maximum(zs[0], zs[1]))
    for z in zs[2:]:
        np.minimum(lo, z, out=lo)
        np.maximum(hi, z, out=hi)
    # The arguments share a sign exactly when their minimum and maximum do,
    # so at most one of the two clipped terms is nonzero.
    np.maximum(lo, 0.0, out=lo)
    np.minimum(hi, 0.0, out=hi)
    lo += hi
    return float(lo) if lo.ndim == 0 else lo


def compute_slopes(Vf: PrimitiveField, grid: GridSpec, theta: float) -> np.ndarray:
    """Generalized-minmod slopes of every primitive component along each
    axis, shape (2, 4, nx+2g, ny+2g): ``slopes[AXIS_X]`` holds d/dx.

    Ghosts of ``Vf`` must be filled.  Produces values on all padded cells
    except the outermost ring (left at zero).
    """
    slopes = np.zeros((2,) + Vf.array.shape)
    for axis in (AXIS_X, AXIS_Y):
        Vs, h = along(Vf.array, axis), grid.spacing(axis)
        c, left, right = Vs[:, 1:-1, 1:-1], Vs[:, :-2, 1:-1], Vs[:, 2:, 1:-1]
        minmod(
            theta * (c - left) / h,
            (right - left) / (2.0 * h),
            theta * (right - c) / h,
            out=along(slopes[axis], axis)[:, 1:-1, 1:-1],
        )
    return slopes


def limited_interfaces(Vf: PrimitiveField, grid: GridSpec, theta: float) -> list[Traces]:
    """Piecewise-linear values at interface midpoints from generalized-minmod
    slopes, traces per axis.

    For theta in [1, 2] every trace lies between the averages of the two
    cells that share its interface, so positive cell averages give positive
    density and pressure traces up to round-off.  Raises NonPhysicalState,
    naming the component, if any density or pressure trace is non-positive.
    """
    slopes = compute_slopes(Vf, grid, theta)
    g = grid.ghost
    traces = []
    for axis in (AXIS_X, AXIS_Y):
        Vs, s, half = along(Vf.array, axis), along(slopes[axis], axis), 0.5 * grid.spacing(axis)
        left = (slice(None), slice(g - 1, -g), slice(g, -g))  # owners of the minus traces
        right = (slice(None), slice(g, 1 - g), slice(g, -g))
        traces.append((Vs[left] + half * s[left], Vs[right] - half * s[right]))
    for comp, name in ((RHO, "density"), (P, "pressure")):
        lowest = min(float(t[comp].min()) for pair in traces for t in pair)
        if lowest <= 0.0:
            raise NonPhysicalState(f"reconstructed {name} non-positive (min {lowest:.3g})")
    return traces
