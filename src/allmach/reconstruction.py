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


def _traces(Vf: PrimitiveField, slopes: np.ndarray, grid: GridSpec) -> list[Traces]:
    """Piecewise-linear values at interface midpoints, per axis."""
    g = grid.ghost
    out = []
    for axis in (AXIS_X, AXIS_Y):
        Vs, s, half = along(Vf.array, axis), along(slopes[axis], axis), 0.5 * grid.spacing(axis)
        left = (slice(None), slice(g - 1, -g), slice(g, -g))  # owners of the minus traces
        right = (slice(None), slice(g, 1 - g), slice(g, -g))
        out.append((Vs[left] + half * s[left], Vs[right] - half * s[right]))
    return out


def reconstruct_interfaces(
    Vf: PrimitiveField, slopes: np.ndarray, grid: GridSpec
) -> list[Traces]:
    """Evaluate the piecewise-linear reconstruction at interface midpoints.

    Raises NonPhysicalState if any reconstructed density or pressure is
    non-positive; callers wanting a slope fallback should use
    ``limited_interfaces`` instead.
    """
    traces = _traces(Vf, slopes, grid)
    if _offending_cells(traces, grid).any():
        raise NonPhysicalState("reconstructed density or pressure non-positive")
    return traces


def _offending_cells(traces: list[Traces], grid: GridSpec) -> np.ndarray:
    """Mask shaped like the padded state: the density and pressure entries of
    cells whose trace of that component is non-positive on any of their
    four interfaces."""
    g = grid.ghost
    mask = np.zeros((4,) + grid.shape, dtype=bool)
    for axis, (minus, plus) in enumerate(traces):
        owners = along(mask, axis)[:, g - 1:1 - g, g:-g]
        for comp in (RHO, P):
            owners[comp, :-1] |= minus[comp] <= 0.0
            owners[comp, 1:] |= plus[comp] <= 0.0
    return mask


def limited_interfaces(Vf: PrimitiveField, grid: GridSpec, theta: float) -> list[Traces]:
    """Reconstruction with a positivity fallback, traces per axis.

    If a reconstructed density or pressure is non-positive at some interface,
    the offending cell's slopes for that component are recomputed with
    theta = 1; if still non-positive they are zeroed, which falls back to
    the (positive) cell average.  For valid input fields the fallback is a
    no-op: minmod traces are bounded by neighboring cell averages.
    """
    slopes = compute_slopes(Vf, grid, theta)
    traces = _traces(Vf, slopes, grid)
    for fallback_theta in (1.0, None):
        mask = _offending_cells(traces, grid)
        if not mask.any():
            break
        if fallback_theta is None:
            np.copyto(slopes, 0.0, where=mask)
        else:
            np.copyto(slopes, compute_slopes(Vf, grid, fallback_theta), where=mask)
        traces = _traces(Vf, slopes, grid)
    return traces
