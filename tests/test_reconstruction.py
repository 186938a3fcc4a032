import numpy as np
import pytest

from allmach.errors import NonPhysicalState
from allmach.grid import AXIS_X, AXIS_Y, GridSpec, fill_ghosts
from allmach.reconstruction import (
    compute_slopes,
    limited_interfaces,
    minmod,
    reconstruct_interfaces,
)
from allmach.state import PrimitiveField


def field_from_function(grid, fn_rho, fn_u=None, fn_v=None, fn_p=None):
    X, Y = grid.cell_centers()
    V = PrimitiveField.zeros(grid)
    V.rho[grid.interior] = fn_rho(X, Y)
    V.u[grid.interior] = fn_u(X, Y) if fn_u else 0.0
    V.v[grid.interior] = fn_v(X, Y) if fn_v else 0.0
    V.p[grid.interior] = fn_p(X, Y) if fn_p else 1.0
    return fill_ghosts(V, grid)


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


class TestSlopes:
    def test_linear_data_reproduced_exactly(self):
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0, bc_x="outflow", bc_y="outflow")
        V = field_from_function(grid, lambda x, y: 2.0 + 3.0 * x)
        slopes = compute_slopes(V, grid, theta=1.3)
        g = grid.ghost
        # cells touching the boundary see flattened (extrapolated) ghosts
        inner = (slice(g + 1, g + grid.nx - 1), slice(g, g + grid.ny))
        assert np.allclose(slopes[AXIS_X, 0][inner], 3.0, rtol=1e-13)
        assert np.allclose(slopes[AXIS_Y, 0][inner], 0.0, atol=1e-13)

    def test_extremum_clips_to_zero(self):
        grid = GridSpec(5, 4, 0.0, 5.0, 0.0, 4.0, bc_x="outflow", bc_y="outflow")
        V = PrimitiveField.zeros(grid)
        V.rho[grid.interior] = np.array([1.0, 2.0, 5.0, 2.0, 1.0])[:, None]
        V.u[grid.interior] = 0.0
        V.p[grid.interior] = 1.0
        fill_ghosts(V, grid)
        slopes = compute_slopes(V, grid, theta=1.3)
        g = grid.ghost
        assert slopes[AXIS_X, 0, g + 2, g] == 0.0  # local max in the middle cell

    def test_three_cell_hand_value(self):
        # cells (0, 1, 3), dx=1, theta=2: minmod(2, 1.5, 4) = 1.5 at the middle
        grid = GridSpec(3, 3, 0.0, 3.0, 0.0, 3.0, bc_x="outflow", bc_y="outflow")
        V = PrimitiveField.zeros(grid)
        V.rho[grid.interior] = np.array([0.0, 1.0, 3.0])[:, None]
        V.rho[grid.interior] += 1.0  # keep positive; slopes are shift invariant
        V.u[grid.interior] = 0.0
        V.p[grid.interior] = 1.0
        fill_ghosts(V, grid)
        slopes = compute_slopes(V, grid, theta=2.0)
        expected = minmod(2.0 * (1.0 - 0.0), (3.0 - 0.0) / 2.0, 2.0 * (3.0 - 1.0))
        assert expected == 1.5
        g = grid.ghost
        assert slopes[AXIS_X, 0, g + 1, g] == pytest.approx(expected, rel=1e-14)


class TestInterfaces:
    def test_constant_field(self):
        grid = GridSpec(6, 6, 0.0, 1.0, 0.0, 1.0)
        V = field_from_function(grid, lambda x, y: np.full_like(x, 1.7))
        slopes = compute_slopes(V, grid, theta=1.3)
        (xm, xp), (ym, yp) = reconstruct_interfaces(V, slopes, grid)
        assert np.allclose(xm[0], 1.7) and np.allclose(xp[0], 1.7)
        assert np.allclose(ym[0], 1.7) and np.allclose(yp[0], 1.7)

    def test_linear_field_exact_midpoints(self):
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0, bc_x="outflow", bc_y="outflow")
        V = field_from_function(grid, lambda x, y: 1.0 + 2.0 * x + 0.5 * y)
        slopes = compute_slopes(V, grid, theta=1.3)
        (xm, xp), _ = reconstruct_interfaces(V, slopes, grid)
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
        slopes = compute_slopes(V, grid, theta=2.0)
        (xm, _), _ = reconstruct_interfaces(V, slopes, grid)
        assert xm[0][2, 0] == pytest.approx(2.0 + 0.5 * 1.5, rel=1e-14)

    def test_second_order_interface_accuracy(self):
        # max interface error on a smooth profile drops ~4x per mesh halving
        errors = []
        for n in (64, 128):
            grid = GridSpec(n, n, 0.0, 1.0, 0.0, 1.0)
            fn = lambda x, y: 2.0 + np.sin(2 * np.pi * x + 0.3) * np.cos(2 * np.pi * y)
            V = field_from_function(grid, fn)
            slopes = compute_slopes(V, grid, theta=1.3)
            (xm, xp), (ym, yp) = reconstruct_interfaces(V, slopes, grid)
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
        slopes = compute_slopes(V, grid, theta=2.0)
        (xm, _), _ = reconstruct_interfaces(V, slopes, grid)
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
        slopes = compute_slopes(V, grid, theta=1.3)
        (xm, xp), _ = reconstruct_interfaces(V, slopes, grid)
        inner = slice(2, -2)
        assert np.allclose(xm[3][inner], xp[3][inner], rtol=1e-13)


class TestPositivityFallback:
    def test_oversized_slopes_rejected(self):
        grid = GridSpec(4, 4, 0.0, 1.0, 0.0, 1.0)
        V = field_from_function(grid, lambda x, y: np.full_like(x, 0.1))
        slopes = compute_slopes(V, grid, theta=1.3)
        bad = slopes.copy()
        bad[AXIS_X, 0, grid.ghost + 1, grid.ghost + 1] = 100.0  # trace goes negative
        with pytest.raises(NonPhysicalState):
            reconstruct_interfaces(V, bad, grid)

    def test_fallback_is_noop_on_valid_data(self):
        rng = np.random.default_rng(5)
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0)
        V = PrimitiveField(np.stack((
            0.01 + rng.random(grid.shape),
            rng.standard_normal(grid.shape),
            rng.standard_normal(grid.shape),
            0.01 + rng.random(grid.shape),
        )))
        fill_ghosts(V, grid)
        traces = limited_interfaces(V, grid, theta=2.0)
        direct = reconstruct_interfaces(V, compute_slopes(V, grid, 2.0), grid)
        assert np.array_equal(traces[AXIS_X][0], direct[AXIS_X][0])
        assert np.array_equal(traces[AXIS_Y][1], direct[AXIS_Y][1])
        xm = traces[AXIS_X][0]
        assert np.all(xm[0] > 0.0) and np.all(xm[3] > 0.0)

    def test_fallback_repairs_oversized_slopes(self, monkeypatch):
        # Inflated slopes push density and pressure traces negative; the
        # fallback must repair those and leave the velocity traces alone.
        import allmach.reconstruction as rec

        grid = GridSpec(9, 7, 0.0, 1.0, 0.0, 2.0, bc_x="outflow", bc_y="periodic")
        V = PrimitiveField(0.2 + np.random.default_rng(3).random((4,) + grid.shape))
        fill_ghosts(V, grid)
        exact = rec.compute_slopes

        def inflated(Vf, grid, theta):
            return exact(Vf, grid, theta) * (30.0 if theta > 1.0 else 1.0)

        monkeypatch.setattr(rec, "compute_slopes", inflated)
        raw = rec._traces(V, inflated(V, grid, 1.3), grid)
        assert any((t[[0, 3]] <= 0.0).any() for pair in raw for t in pair)
        traces = limited_interfaces(V, grid, 1.3)
        for pair, raw_pair in zip(traces, raw):
            for t, r in zip(pair, raw_pair):
                assert np.all(t[[0, 3]] > 0.0)
                assert np.array_equal(t[1:3], r[1:3])
