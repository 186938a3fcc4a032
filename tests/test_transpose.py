"""x <-> y transposition symmetry of the scheme.

The explicit operators are dimension-by-dimension schemes, so swapping the
two axes of the data (and with them the two velocity and momentum
components) must swap the axes of every result.  A dx/dy or boundary-kind
mix-up between the two directions breaks this, which is why the operator
check runs on non-square grids with dx != dy and different boundary kinds
per axis.

Reflecting the cells along one axis, with the normal velocity negated, must
likewise reflect each explicit operator's rate: the operators must treat the
left and right traces of an interface alike.
"""

import numpy as np
import pytest
import hypothesis
from hypothesis import given, settings
from hypothesis import strategies as st

from allmach.benchmarks import CASES
from allmach.conservative import flux_divergence
from allmach.grid import OUTFLOW, PERIODIC, GridSpec, fill_ghost_array
from allmach.integrator import DualState, build_stage, si_dec_step
from allmach.nonstiff import SplitScalars, nonstiff_rate
from allmach.reconstruction import limited_traces
from allmach.state import PrimitiveField, SolverConfig

PRIMITIVE = ("rho", "u", "v", "p")
CONSERVATIVE = ("rho", "mx", "my", "E")
SWAP = (0, 2, 1, 3)  # component order after exchanging the two directions


def swap_stack(a):
    """Transpose a stacked (4, nx, ny) array and exchange its two vector components."""
    return a[list(SWAP)].swapaxes(1, 2)


def transposed_grid(grid):
    return GridSpec(
        grid.ny, grid.nx, grid.y_lo, grid.y_hi, grid.x_lo, grid.x_hi,
        bc_x=grid.bc_y, bc_y=grid.bc_x,
    )


def transposed_field(V, grid):
    out = PrimitiveField.zeros(transposed_grid(grid))
    for name, twin in zip(PRIMITIVE, (PRIMITIVE[i] for i in SWAP)):
        getattr(out, name)[...] = getattr(V, twin).T
    return out


def interior_stack(fld, names, grid):
    return np.stack([getattr(fld, name)[grid.interior] for name in names])


@pytest.mark.parametrize("case_name, eps, overrides", [
    pytest.param("double_shear", 0.5, {}, id="double_shear-0.5"),
    pytest.param("explosion", 0.9, {}, id="explosion-0.9"),
    # at the default CFL number the twins' steps part after four steps
    pytest.param("double_shear", 0.5, {"k_cfl": 0.475}, id="double_shear-0.5-k_cfl0.475",
                 marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 10")),
])
def test_five_steps_commute_with_transposition(case_name, eps, overrides):
    grid, cfg, state = CASES[case_name].start(eps, 40, 40, **overrides)
    twin = DualState.from_primitive(transposed_field(state.V, grid), grid, cfg)
    for _ in range(5):
        state, _ = si_dec_step(state, grid, cfg)
        twin, _ = si_dec_step(twin, grid, cfg)
    assert twin.t == state.t
    for fld, tw, names in ((state.V, twin.V, PRIMITIVE), (state.U, twin.U, CONSERVATIVE)):
        diff = np.abs(swap_stack(interior_stack(fld, names, grid)) - interior_stack(tw, names, grid))
        assert diff.max(axis=(1, 2)).max() <= 1e-14, dict(zip(names, diff.max(axis=(1, 2))))


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@hypothesis.seed(20261019)
@given(
    nx=st.integers(3, 11),
    extra=st.integers(1, 6),
    lengths=st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
    bc_x=st.sampled_from((PERIODIC, OUTFLOW)),
    eps=st.sampled_from((1.0, 0.5, 0.1, 1e-3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_explicit_operators_commute_with_transposition(nx, extra, lengths, bc_x, eps, seed):
    ny = nx + extra
    lx, ly = lengths
    if abs(lx / nx - ly / ny) < 1e-3:
        ly *= 1.5
    bc_y = OUTFLOW if bc_x == PERIODIC else PERIODIC
    grid = GridSpec(nx, ny, 0.0, lx, -0.5 * ly, 0.5 * ly, bc_x=bc_x, bc_y=bc_y)
    rng = np.random.default_rng(seed)
    V = PrimitiveField.zeros(grid)
    core = grid.interior
    V.rho[core] = 0.5 + rng.random((nx, ny))
    V.u[core] = rng.standard_normal((nx, ny))
    V.v[core] = rng.standard_normal((nx, ny))
    V.p[core] = 0.5 + rng.random((nx, ny))
    fill_ghost_array(V.array, grid)
    gridT = transposed_grid(grid)
    VT = transposed_field(V, grid)
    cfg = SolverConfig(epsilon=eps, gamma=1.4)

    R, D = np.zeros((2, 4, nx, ny))
    RT, DT = np.zeros((2, 4, ny, nx))
    build_stage(V, grid, cfg, R, D)
    build_stage(VT, gridT, cfg, RT, DT)

    assert np.abs(swap_stack(R) - RT).max() <= 1e-14 * np.abs(R).max()

    assert np.abs(swap_stack(D) - DT).max() <= 1e-14 * np.abs(D).max()


def mirrored(a, axis):
    """Reverse an axis-first stack (4, n, m) along its first axis and negate
    its component normal to ``axis`` (velocity or momentum)."""
    out = a[:, ::-1].copy()
    out[1 + axis] *= -1.0
    return out


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@hypothesis.seed(20261019)
@given(
    n=st.integers(3, 11),
    axis=st.sampled_from((0, 1)),
    eps=st.sampled_from((1.0, 0.5, 0.1, 1e-3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_explicit_operators_commute_with_reflection(n, axis, eps, seed):
    rng = np.random.default_rng(seed)
    g, m, h = 2, 3, 0.1
    shape = (n + 2 * g, m)
    block = np.stack((
        0.5 + rng.random(shape),
        rng.standard_normal(shape),
        rng.standard_normal(shape),
        0.5 + rng.random(shape),
    ))
    cfg = SolverConfig(epsilon=eps, gamma=1.4)
    scalars = SplitScalars(rho_max=block[0].max() + eps**4, p_min=block[3].min() - eps**4)
    rates = []
    for b in (block, mirrored(block, axis)):
        traces = limited_traces(b, h, cfg.theta, axis, 0)
        rates.append((
            nonstiff_rate(b[:, g:-g], traces, scalars, cfg, axis, h),
            flux_divergence(traces, cfg, axis, h),
        ))
    for rate, rate_of_mirror in zip(*rates):
        assert np.abs(mirrored(rate, axis) - rate_of_mirror).max() <= 1e-14 * np.abs(rate).max()
