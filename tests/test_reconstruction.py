import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allmach.errors import NonPhysicalState
from allmach.grid import AXIS_X, AXIS_Y, OUTFLOW, PERIODIC, GridSpec, along, fill_ghosts
from allmach.integrator import build_stage
from allmach.reconstruction import compute_slopes, limited_traces, minmod
from allmach.state import PrimitiveField, SolverConfig


def field_from_function(grid, fn_rho, fn_u=None, fn_v=None, fn_p=None):
    X, Y = grid.cell_centers()
    V = PrimitiveField.zeros(grid)
    V.rho[grid.interior] = fn_rho(X, Y)
    V.u[grid.interior] = fn_u(X, Y) if fn_u else 0.0
    V.v[grid.interior] = fn_v(X, Y) if fn_v else 0.0
    V.p[grid.interior] = fn_p(X, Y) if fn_p else 1.0
    return fill_ghosts(V, grid)


def block(V, grid, axis):
    """The whole grid as one axis-first block: every interior cell across
    ``axis``, with its ghost padding along it."""
    g = grid.ghost
    return along(V.array, axis)[..., g:-g]


def slopes_along(V, grid, axis, theta):
    """Slopes along ``axis`` of the whole grid; row k belongs to the cell
    with interior index k - 1 along the axis."""
    return compute_slopes(block(V, grid, axis), grid.spacing(axis), theta)


def traces_per_axis(V, grid, theta):
    """(minus, plus) traces of the whole grid per axis, each axis first."""
    return [
        limited_traces(block(V, grid, axis), grid.spacing(axis), theta, axis, 0)
        for axis in (AXIS_X, AXIS_Y)
    ]


class TestMinmod:
    def test_all_positive_takes_min(self):
        assert minmod(1.0, 2.0, 3.0) == 1.0

    def test_all_negative_takes_max(self):
        assert minmod(-2.0, -1.0, -3.0) == -1.0

    def test_mixed_signs_vanish(self):
        assert minmod(1.0, -1.0, 2.0) == 0.0

    def test_two_arguments(self):
        assert minmod(0.5, 2.0) == 0.5
        assert minmod(-0.5, 0.5) == 0.0

    def test_componentwise_on_arrays(self):
        a = np.array([1.0, -2.0, 1.0])
        b = np.array([2.0, -1.0, -1.0])
        assert np.array_equal(minmod(a, b), [1.0, -1.0, 0.0])

    def test_needs_two_arguments(self):
        with pytest.raises(ValueError):
            minmod(1.0)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(data=st.data(), count=st.sampled_from((2, 3)), size=st.integers(1, 8))
def test_minmod_out_may_be_any_argument(data, count, size):
    values = st.lists(
        st.floats(-1e3, 1e3, allow_nan=False) | st.just(0.0), min_size=size, max_size=size
    )
    zs = [np.array(data.draw(values)) for _ in range(count)]
    expected = minmod(*zs)
    for position in range(count):
        args = [z.copy() for z in zs]
        got = minmod(*args, out=args[position])
        assert got is args[position]
        assert np.array_equal(got, expected)


class TestSlopes:
    def test_linear_data_reproduced_exactly(self):
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0, bc_x="outflow", bc_y="outflow")
        V = field_from_function(grid, lambda x, y: 2.0 + 3.0 * x)
        sx = slopes_along(V, grid, AXIS_X, theta=1.3)
        sy = slopes_along(V, grid, AXIS_Y, theta=1.3)
        # cells touching the boundary see flattened (extrapolated) ghosts:
        # interior x cells 1 .. nx-2, every interior y cell
        assert np.allclose(sx[0, 2:grid.nx], 3.0, rtol=1e-13)
        assert np.allclose(sy[0, 1:grid.ny + 1, 1:grid.nx - 1], 0.0, atol=1e-13)

    def test_extremum_clips_to_zero(self):
        grid = GridSpec(5, 4, 0.0, 5.0, 0.0, 4.0, bc_x="outflow", bc_y="outflow")
        V = PrimitiveField.zeros(grid)
        V.rho[grid.interior] = np.array([1.0, 2.0, 5.0, 2.0, 1.0])[:, None]
        V.u[grid.interior] = 0.0
        V.p[grid.interior] = 1.0
        fill_ghosts(V, grid)
        slopes = slopes_along(V, grid, AXIS_X, theta=1.3)
        assert slopes[0, 3, 0] == 0.0  # local max in the middle cell (2, 0)

    def test_three_cell_hand_value(self):
        # cells (0, 1, 3), dx=1, theta=2: minmod(2, 1.5, 4) = 1.5 at the middle
        grid = GridSpec(3, 3, 0.0, 3.0, 0.0, 3.0, bc_x="outflow", bc_y="outflow")
        V = PrimitiveField.zeros(grid)
        V.rho[grid.interior] = np.array([0.0, 1.0, 3.0])[:, None]
        V.rho[grid.interior] += 1.0  # keep positive; slopes are shift invariant
        V.u[grid.interior] = 0.0
        V.p[grid.interior] = 1.0
        fill_ghosts(V, grid)
        slopes = slopes_along(V, grid, AXIS_X, theta=2.0)
        expected = minmod(2.0 * (1.0 - 0.0), (3.0 - 0.0) / 2.0, 2.0 * (3.0 - 1.0))
        assert expected == 1.5
        assert slopes[0, 2, 0] == pytest.approx(expected, rel=1e-14)  # cell (1, 0)


class TestInterfaces:
    def test_constant_field(self):
        grid = GridSpec(6, 6, 0.0, 1.0, 0.0, 1.0)
        V = field_from_function(grid, lambda x, y: np.full_like(x, 1.7))
        (xm, xp), (ym, yp) = traces_per_axis(V, grid, 1.3)
        assert np.allclose(xm[0], 1.7) and np.allclose(xp[0], 1.7)
        assert np.allclose(ym[0], 1.7) and np.allclose(yp[0], 1.7)

    def test_linear_field_exact_midpoints(self):
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0, bc_x="outflow", bc_y="outflow")
        V = field_from_function(grid, lambda x, y: 1.0 + 2.0 * x + 0.5 * y)
        (xm, xp), _ = traces_per_axis(V, grid, 1.3)
        xs = grid.x_lo + np.arange(grid.nx + 1) * grid.dx
        yc = grid.y_lo + (np.arange(grid.ny) + 0.5) * grid.dy
        exact = 1.0 + 2.0 * xs[:, None] + 0.5 * yc[None, :]
        inner = slice(2, -2)  # cells near the boundary see extrapolated ghosts
        assert np.allclose(xm[0][inner], exact[inner], rtol=1e-13)
        assert np.allclose(xp[0][inner], exact[inner], rtol=1e-13)

    def test_three_cell_hand_value(self):
        # trace left of the interface between cells with averages 1 and 3:
        # 1 + 0.5 * minmod(2, 1.5, 4) = 1.75
        grid = GridSpec(3, 3, 0.0, 3.0, 0.0, 3.0, bc_x="outflow", bc_y="outflow")
        V = PrimitiveField.zeros(grid)
        V.rho[grid.interior] = np.array([1.0, 2.0, 4.0])[:, None]  # (0,1,3) + 1
        V.u[grid.interior] = 0.0
        V.p[grid.interior] = 1.0
        fill_ghosts(V, grid)
        (xm, _), _ = traces_per_axis(V, grid, 2.0)
        assert xm[0][2, 0] == pytest.approx(2.0 + 0.5 * 1.5, rel=1e-14)

    def test_second_order_interface_accuracy(self):
        # max interface error on a smooth profile drops ~4x per mesh halving
        errors = []
        for n in (64, 128):
            grid = GridSpec(n, n, 0.0, 1.0, 0.0, 1.0)
            fn = lambda x, y: 2.0 + np.sin(2 * np.pi * x + 0.3) * np.cos(2 * np.pi * y)
            V = field_from_function(grid, fn)
            (xm, xp), (ym, yp) = traces_per_axis(V, grid, 1.3)
            xs = grid.x_lo + np.arange(grid.nx + 1) * grid.dx
            yc = grid.y_lo + (np.arange(grid.ny) + 0.5) * grid.dy
            exact_x = fn(xs[:, None], yc[None, :])
            xc = grid.x_lo + (np.arange(grid.nx) + 0.5) * grid.dx
            ys = grid.y_lo + np.arange(grid.ny + 1) * grid.dy
            exact_y = fn(xc[:, None], ys[None, :])
            err = max(
                np.abs(xm[0] - exact_x).max(),
                np.abs(xp[0] - exact_x).max(),
                np.abs(ym[0] - exact_y.T).max(),  # y traces come with the y axis first
                np.abs(yp[0] - exact_y.T).max(),
            )
            errors.append(err)
        ratio = errors[0] / errors[1]
        assert 3.4 <= ratio <= 4.6

    def test_local_boundedness(self):
        rng = np.random.default_rng(11)
        grid = GridSpec(12, 10, 0.0, 1.0, 0.0, 1.0)
        V = PrimitiveField(np.stack((
            0.5 + rng.random(grid.shape),
            rng.standard_normal(grid.shape),
            rng.standard_normal(grid.shape),
            0.5 + rng.random(grid.shape),
        )))
        fill_ghosts(V, grid)
        (xm, _), _ = traces_per_axis(V, grid, 2.0)
        Vs = V.array
        g = grid.ghost
        lo = np.minimum(
            np.minimum(Vs[:, g - 2:g + grid.nx - 1, g:-g], Vs[:, g - 1:g + grid.nx, g:-g]),
            Vs[:, g:g + grid.nx + 1, g:-g],
        )
        hi = np.maximum(
            np.maximum(Vs[:, g - 2:g + grid.nx - 1, g:-g], Vs[:, g - 1:g + grid.nx, g:-g]),
            Vs[:, g:g + grid.nx + 1, g:-g],
        )
        # trace owned by the left cell of each interface stays within the
        # envelope of that cell's slope stencil
        assert np.all(xm >= lo - 1e-12) and np.all(xm <= hi + 1e-12)

    def test_linearity_preservation_periodic_wrap_excluded(self):
        grid = GridSpec(6, 6, 0.0, 1.0, 0.0, 1.0, bc_x="outflow", bc_y="outflow")
        V = field_from_function(
            grid,
            lambda x, y: 1.0 + x + 2.0 * y,
            fn_p=lambda x, y: 4.0 - x - y,
        )
        (xm, xp), _ = traces_per_axis(V, grid, 1.3)
        inner = slice(2, -2)
        assert np.allclose(xm[3][inner], xp[3][inner], rtol=1e-13)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    nx=st.integers(3, 9),
    extra=st.integers(1, 5),
    lengths=st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
    bcs=st.tuples(st.sampled_from((PERIODIC, OUTFLOW)), st.sampled_from((PERIODIC, OUTFLOW))),
    theta=st.floats(1.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_traces_lie_between_neighbouring_averages(nx, extra, lengths, bcs, theta, seed):
    # For theta in [1, 2] a generalized-minmod trace cannot leave the range of
    # the two cell averages that share its interface; so positive averages
    # give positive density and pressure traces, up to round-off.
    ny = nx + extra
    lx, ly = lengths
    if abs(lx / nx - ly / ny) < 1e-3:
        ly *= 1.5
    grid = GridSpec(nx, ny, 0.0, lx, -0.5 * ly, 0.5 * ly, bc_x=bcs[0], bc_y=bcs[1])
    rng = np.random.default_rng(seed)

    def decades():  # magnitudes spread log-uniformly over [1e-3, 1e3]
        return 10.0 ** rng.uniform(-3.0, 3.0, (nx, ny))

    V = PrimitiveField.zeros(grid)
    core = grid.interior
    V.rho[core] = decades()
    V.u[core] = rng.choice((-1.0, 1.0), (nx, ny)) * decades()
    V.v[core] = rng.choice((-1.0, 1.0), (nx, ny)) * decades()
    V.p[core] = decades()
    fill_ghosts(V, grid)
    g = grid.ghost
    for axis, (minus, plus) in enumerate(traces_per_axis(V, grid, theta)):
        Vs = along(V.array, axis)
        a, b = Vs[:, g - 1:-g, g:-g], Vs[:, g:1 - g, g:-g]  # the two cells of each interface
        slack = 8.0 * np.spacing(np.maximum(np.abs(a), np.abs(b)))
        for t in (minus, plus):
            assert np.all(t >= np.minimum(a, b) - slack)
            assert np.all(t <= np.maximum(a, b) + slack)


class TestPositivity:
    def test_oversized_slopes_rejected(self, monkeypatch):
        import allmach.reconstruction as rec

        grid = GridSpec(4, 4, 0.0, 1.0, 0.0, 1.0)
        V = field_from_function(grid, lambda x, y: np.full_like(x, 0.1), fn_p=lambda x, y: 0.1)
        for comp, name in ((0, "density"), (3, "pressure")):
            slopes = slopes_along(V, grid, AXIS_X, theta=1.3)
            slopes[comp, 2, 1] = 100.0  # cell (1, 1): its left trace goes negative
            monkeypatch.setattr(rec, "compute_slopes", lambda Vs, h, theta, s=slopes: s)
            with pytest.raises(NonPhysicalState, match=rf"{name} .* along x at cell \(1, 1\)"):
                build_stage(V, grid, SolverConfig(epsilon=1.0))

    def test_round_off_zero_trace_rejected(self):
        # theta = 2 next to a 17-decade drop: the cell of average 1 gets the
        # slope minmod(-8, -2.5, 2 * (1e-17 - 1)) = -2 in floating point, so
        # the trace on its right face is 1 - 1 = 0 exactly.
        grid = GridSpec(5, 3, 0.0, 5.0, 0.0, 3.0, bc_x="outflow", bc_y="outflow")
        V = PrimitiveField.zeros(grid)
        V.rho[grid.interior] = np.array([9.0, 5.0, 1.0, 1e-17, 1e-17])[:, None]
        V.p[grid.interior] = 1.0
        fill_ghosts(V, grid)
        with pytest.raises(NonPhysicalState, match=r"density .* along x at cell \(2, 0\)"):
            build_stage(V, grid, SolverConfig(epsilon=1.0, theta=2.0))

    @pytest.mark.parametrize("strip", [1, 32])
    def test_failure_names_the_grid_cell_in_any_strip(self, monkeypatch, strip):
        # the drop above, along y in the middle column only: the strip of
        # width 1 that holds it starts at x index 1
        import allmach.integrator as integrator

        monkeypatch.setattr(integrator, "STRIP", strip)
        grid = GridSpec(3, 5, 0.0, 3.0, 0.0, 5.0, bc_x="outflow", bc_y="outflow")
        V = PrimitiveField.zeros(grid)
        V.rho[grid.interior] = 1.0
        V.rho[grid.interior][1] = [9.0, 5.0, 1.0, 1e-17, 1e-17]
        V.p[grid.interior] = 1.0
        fill_ghosts(V, grid)
        with pytest.raises(NonPhysicalState, match=r"density .* along y at cell \(1, 2\)"):
            build_stage(V, grid, SolverConfig(epsilon=1.0, theta=2.0))
