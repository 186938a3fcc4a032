"""Sod's shock tube against Toro's exact Riemann solution across Mach numbers.

In the scaled variables the equations are the standard Euler equations in
the time t/eps and the velocity eps*u, so a run to t = 0.2*eps is compared
with the exact solution at t = 0.2 (Toro, *Riemann Solvers and Numerical
Methods for Fluid Dynamics*, ch. 4): density, eps*u and pressure at the cell
centres, in the L1 norm dx*dy*sum|.| over the interior.
"""

import functools
import math

import numpy as np
import pytest

from allmach import DualState, run
from allmach.grid import AXIS_X, AXIS_Y, OUTFLOW, PERIODIC, GridSpec
from allmach.state import SolverConfig

from builders import uniform

GAMMA = 1.4
LEFT, RIGHT = (1.0, 0.0, 1.0), (0.125, 0.0, 0.1)  # Sod's (rho, u, p)


def pressure_function(p, side):
    """Toro's f_K(p) and its derivative: a shock when p exceeds p_K, else a
    rarefaction."""
    rho, _, p_k = side
    if p > p_k:
        a, b = 2.0 / ((GAMMA + 1.0) * rho), (GAMMA - 1.0) / (GAMMA + 1.0) * p_k
        root = math.sqrt(a / (p + b))
        return (p - p_k) * root, root * (1.0 - 0.5 * (p - p_k) / (p + b))
    c = math.sqrt(GAMMA * p_k / rho)
    ratio = p / p_k
    return (2.0 * c / (GAMMA - 1.0) * (ratio ** ((GAMMA - 1.0) / (2.0 * GAMMA)) - 1.0),
            ratio ** (-(GAMMA + 1.0) / (2.0 * GAMMA)) / (rho * c))


def star_state(left, right):
    """Pressure and velocity between the two waves, by Newton's method."""
    p = 0.5 * (left[2] + right[2])
    for _ in range(50):
        (fl, dl), (fr, dr) = pressure_function(p, left), pressure_function(p, right)
        step = (fl + fr + right[1] - left[1]) / (dl + dr)
        p -= step
        if abs(step) <= 1e-15 * p:
            break
    (fl, _), (fr, _) = pressure_function(p, left), pressure_function(p, right)
    return p, 0.5 * (left[1] + right[1] + fr - fl)


def sample_left(xi, side, p_star, u_star):
    """(rho, u, p) at xi = x/t of the left wave and the state behind it."""
    rho, u, p = side
    c = math.sqrt(GAMMA * p / rho)
    ratio = p_star / p
    if ratio > 1.0:  # shock
        speed = u - c * math.sqrt((GAMMA + 1.0) / (2.0 * GAMMA) * ratio + (GAMMA - 1.0) / (2.0 * GAMMA))
        g6 = (GAMMA - 1.0) / (GAMMA + 1.0)
        star = (rho * (ratio + g6) / (g6 * ratio + 1.0), u_star, p_star)
        return tuple(np.where(xi < speed, k, s) for k, s in zip(side, star))
    c_star = c * ratio ** ((GAMMA - 1.0) / (2.0 * GAMMA))
    fan_c = np.clip(2.0 / (GAMMA + 1.0) * (c + 0.5 * (GAMMA - 1.0) * (u - xi)), c_star, c)
    fan = (rho * (fan_c / c) ** (2.0 / (GAMMA - 1.0)),
           2.0 / (GAMMA + 1.0) * (c + 0.5 * (GAMMA - 1.0) * u + xi),
           p * (fan_c / c) ** (2.0 * GAMMA / (GAMMA - 1.0)))
    star = (rho * ratio ** (1.0 / GAMMA), u_star, p_star)
    return tuple(np.where(xi < u - c, k, np.where(xi > u_star - c_star, s, f))
                 for k, f, s in zip(side, fan, star))


def sod_exact(xi):
    """Sod's exact (rho, u, p) at xi = x/t; the right wave is sampled as the
    left wave of the mirrored problem."""
    p_star, u_star = star_state(LEFT, RIGHT)
    left = sample_left(xi, LEFT, p_star, u_star)
    rho, u, p = sample_left(-xi, (RIGHT[0], -RIGHT[1], RIGHT[2]), p_star, -u_star)
    return tuple(np.where(xi < u_star, a, b) for a, b in zip(left, (rho, -u, p)))


def test_exact_star_state_hand_values():
    # Toro, table 4.3, test 1
    p_star, u_star = star_state(LEFT, RIGHT)
    assert p_star == pytest.approx(0.30313, abs=1e-5)
    assert u_star == pytest.approx(0.92745, abs=1e-5)
    rho, _, _ = sod_exact(np.array([0.5, 1.0, 1.7, 1.8]))
    assert rho[:3] == pytest.approx([0.42632, 0.26557, 0.26557], abs=1e-5)
    assert rho[3] == 0.125


@functools.cache
def sod_run(n, eps, axis):
    """The tube along ``axis`` on n x 3 cells (3 x n along y), outflow at its
    ends and periodic across, run to t = 0.2*eps."""
    shape = (n, 3) if axis == AXIS_X else (3, n)
    bcs = (OUTFLOW, PERIODIC) if axis == AXIS_X else (PERIODIC, OUTFLOW)
    grid = GridSpec(*shape, 0.0, 1.0, 0.0, 1.0, bc_x=bcs[0], bc_y=bcs[1])
    s = grid.cell_centers()[axis]
    V = uniform(grid, rho=np.where(s < 0.5, LEFT[0], RIGHT[0]), p=np.where(s < 0.5, LEFT[2], RIGHT[2]))
    cfg = SolverConfig(epsilon=eps, gamma=GAMMA)
    state, report = run(DualState.from_primitive(V, grid, cfg), grid, cfg, 0.2 * eps)
    return grid, state, report


def sod_errors(n, eps):
    """L1 errors of rho, eps*u and p along x."""
    grid, state, _ = sod_run(n, eps, AXIS_X)
    core = grid.interior
    exact = sod_exact((grid.cell_centers()[0] - 0.5) / 0.2)
    numeric = (state.V.rho[core], eps * state.V.u[core], state.V.p[core])
    return np.array([grid.dx * grid.dy * np.abs(a - b).sum() for a, b in zip(numeric, exact)])


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.3])
def test_sod_converges_to_the_exact_solution(eps):
    coarse, fine = sod_errors(100, eps), sod_errors(200, eps)
    rates = np.log2(coarse / fine)
    assert np.all(rates >= 0.7), rates
    assert fine[0] <= 6e-3, fine


def test_sod_along_y_is_the_transposed_run():
    grid, state, _ = sod_run(100, 1.0, AXIS_X)
    _, twin, _ = sod_run(100, 1.0, AXIS_Y)
    assert twin.t == state.t
    for a, b in ((state.V, twin.V), (state.U, twin.U)):
        assert np.array_equal(b.array[[0, 2, 1, 3]].swapaxes(1, 2), a.array)
