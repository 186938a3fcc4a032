import numpy as np
import pytest

from allmach.grid import AXIS_X, AXIS_Y, GridSpec
from allmach.grid import padded as padded_copy
from allmach.nonstiff import SplitScalars
from allmach.state import SolverConfig
from allmach.stiff import central_difference, discrete_divergence, stiff_row

from builders import padded, uniform


def assemble_stiff(scalars, cfg, V, grid):
    """The stiff operator stacked from its rows, shape (4, nx, ny); the
    density row, which it does not reach, is zero."""
    L = np.zeros((4, grid.nx, grid.ny))
    for row in (1, 2, 3):
        L[row] = stiff_row(scalars, cfg, V, grid, row)
    return L


def gradient(p, grid):
    """The central differences of ``p`` along x and along y."""
    return central_difference(p, grid, AXIS_X), central_difference(p, grid, AXIS_Y)


class TestCentralGradient:
    def test_constant(self):
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0)
        px, py = gradient(padded(grid, lambda x, y: np.full_like(x, 2.0)), grid)
        assert np.allclose(px, 0.0) and np.allclose(py, 0.0)

    def test_linear_exact(self):
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0, bc_x="outflow", bc_y="outflow")
        px, py = gradient(padded(grid, lambda x, y: 3.0 * x - 2.0 * y), grid)
        assert np.allclose(px[1:-1, :], 3.0, rtol=1e-13)
        assert np.allclose(py[:, 1:-1], -2.0, rtol=1e-13)

    def test_second_order_on_sine(self):
        errors = []
        for n in (32, 64):
            grid = GridSpec(n, n, 0.0, 1.0, 0.0, 1.0)
            p = padded(grid, lambda x, y: np.sin(2 * np.pi * x))
            px = central_difference(p, grid, AXIS_X)
            X, _ = grid.cell_centers()
            errors.append(np.abs(px - 2 * np.pi * np.cos(2 * np.pi * X)).max())
        assert 3.5 <= errors[0] / errors[1] <= 4.5


class TestDiscreteDivergence:
    def test_rigid_rotation_exactly_divergence_free(self):
        grid = GridSpec(8, 8, -1.0, 1.0, -1.0, 1.0, bc_x="outflow", bc_y="outflow")
        u = padded(grid, lambda x, y: -y)
        v = padded(grid, lambda x, y: x)
        div = discrete_divergence(u, v, grid)
        assert np.allclose(div[1:-1, 1:-1], 0.0, atol=1e-14)

    def test_linear_expansion(self):
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0, bc_x="outflow", bc_y="outflow")
        u = padded(grid, lambda x, y: x)
        v = padded(grid, lambda x, y: y)
        div = discrete_divergence(u, v, grid)
        assert np.allclose(div[1:-1, 1:-1], 2.0, rtol=1e-13)

    def test_matched_wavenumber_field_exactly_divergence_free(self):
        # equal x/y wavenumbers: both terms carry the same sinc factor and
        # cancel exactly, not just to O(dx^2)
        grid = GridSpec(32, 32, 0.0, 1.0, 0.0, 1.0)
        tp = 2 * np.pi
        u = padded(grid, lambda x, y: np.sin(tp * x) * np.cos(tp * y))
        v = padded(grid, lambda x, y: -np.cos(tp * x) * np.sin(tp * y))
        assert np.abs(discrete_divergence(u, v, grid)).max() < 1e-12

    def test_second_order_on_solenoidal_field(self):
        # stream-function field with distinct wavenumbers: analytically
        # divergence free, discretely O(dx^2)
        errors = []
        for n in (32, 64):
            grid = GridSpec(n, n, 0.0, 1.0, 0.0, 1.0)
            tp = 2 * np.pi
            u = padded(grid, lambda x, y: 2 * tp * np.sin(tp * x) * np.cos(2 * tp * y))
            v = padded(grid, lambda x, y: -tp * np.cos(tp * x) * np.sin(2 * tp * y))
            errors.append(np.abs(discrete_divergence(u, v, grid)).max())
        assert errors[1] < errors[0]
        assert 3.5 <= errors[0] / errors[1] <= 4.5


class TestStiffOperator:
    def test_constant_fields_annihilated(self):
        grid = GridSpec(6, 6, 0.0, 1.0, 0.0, 1.0)
        V = uniform(grid, u=0.7, v=-0.7, p=2.0)
        cfg = SolverConfig(epsilon=0.3, gamma=1.4)
        L = assemble_stiff(SplitScalars(1.5, 1.0), cfg, V, grid)
        assert np.allclose(L, 0.0, atol=1e-14)

    def test_pressure_gradient_scaling_hand_value(self):
        # p = x, eps = 0.1, rho_max = 2: u-row = 1/(0.01 * 2) = 50
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0, bc_x="outflow", bc_y="outflow")
        X, _ = grid.cell_centers()
        V = uniform(grid, p=X)
        cfg = SolverConfig(epsilon=0.1, gamma=1.4)
        L = assemble_stiff(SplitScalars(2.0, 0.5), cfg, V, grid)
        expected = 1.0 / (0.1**2 * 2.0)
        assert expected == pytest.approx(50.0, rel=1e-14)
        assert np.allclose(L[1][1:-1, :], expected, rtol=1e-12)
        assert np.allclose(L[2][1:-1, 1:-1], 0.0, atol=1e-12)

    def test_dilatation_hand_value(self):
        # u = x, v = y, gamma = 1.4, p_min = 1: p-row = 2.8
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0, bc_x="outflow", bc_y="outflow")
        X, Y = grid.cell_centers()
        V = uniform(grid, u=X, v=Y)
        cfg = SolverConfig(epsilon=1.0, gamma=1.4)
        L = assemble_stiff(SplitScalars(2.0, 1.0), cfg, V, grid)
        assert np.allclose(L[3][1:-1, 1:-1], 1.4 * 1.0 * 2.0, rtol=1e-12)

    def test_coefficient_and_field_stages_do_not_commute(self):
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0)
        X, Y = grid.cell_centers()
        Va = uniform(grid, p=2.0 + np.sin(2 * np.pi * X))
        Vb = uniform(grid, p=2.0 + np.cos(2 * np.pi * Y))
        cfg = SolverConfig(epsilon=0.2, gamma=1.4)
        sa = SplitScalars(rho_max=1.0, p_min=1.0)
        sb = SplitScalars(rho_max=3.0, p_min=0.5)
        L_ab = assemble_stiff(sa, cfg, Vb, grid)
        L_ba = assemble_stiff(sb, cfg, Va, grid)
        assert not np.allclose(L_ab, L_ba)
        # same fields, different coefficient stage: scales by rho_max ratio
        L_bb = assemble_stiff(sb, cfg, Vb, grid)
        assert np.allclose(L_ab[1] / 3.0, L_bb[1], rtol=1e-12)


class TestLaplacianComposition:
    def wide_laplacian(self, p, grid):
        g, nx, ny = grid.ghost, grid.nx, grid.ny
        return (
            (p[g + 2:g + nx + 2, g:g + ny] - 2 * p[g:g + nx, g:g + ny] + p[g - 2:g + nx - 2, g:g + ny])
            / (4 * grid.dx**2)
            + (p[g:g + nx, g + 2:g + ny + 2] - 2 * p[g:g + nx, g:g + ny] + p[g:g + nx, g - 2:g + ny - 2])
            / (4 * grid.dy**2)
        )

    def test_divergence_of_gradient_is_wide_stencil(self):
        rng = np.random.default_rng(4)
        grid = GridSpec(10, 8, 0.0, 1.0, 0.0, 1.0)
        p = padded_copy(rng.random((10, 8)), grid)
        px, py = gradient(p, grid)
        composed = discrete_divergence(padded_copy(px, grid), padded_copy(py, grid), grid)
        assert np.allclose(composed, self.wide_laplacian(p, grid), rtol=1e-12, atol=1e-12)

    def test_wide_and_compact_agree_on_quadratics(self):
        from allmach.elliptic import compact_laplacian

        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0, bc_x="outflow", bc_y="outflow")
        p = padded(grid, lambda x, y: x**2 + y**2)
        inner = (slice(2, -2), slice(2, -2))
        assert np.allclose(self.wide_laplacian(p, grid)[inner], 4.0, rtol=1e-12)
        assert np.allclose(compact_laplacian(p, grid)[inner], 4.0, rtol=1e-12)

    def test_wide_and_compact_differ_on_checkerboard(self):
        from allmach.elliptic import compact_laplacian

        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0)
        j = np.arange(8)
        p = padded_copy(((-1.0) ** j)[:, None] * np.ones(8)[None, :], grid)
        wide = self.wide_laplacian(p, grid)
        compact = compact_laplacian(p, grid)
        assert np.allclose(wide, 0.0, atol=1e-12)  # +-2 stencil misses the mode
        assert np.abs(compact).max() > 1.0
