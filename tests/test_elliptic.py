import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allmach.elliptic import (
    HelmholtzSystem,
    compact_laplacian,
    pressure_system,
    solve_helmholtz,
)
from allmach.errors import NoConvergence
from allmach.grid import OUTFLOW, PERIODIC, GridSpec, fill_ghost_array, fill_ghosts
from allmach.grid import padded as padded_copy
from allmach.nonstiff import SplitScalars
from allmach.state import PrimitiveField, SolverConfig
from allmach.stiff import discrete_divergence


def padded(grid, fn):
    X, Y = grid.cell_centers()
    a = grid.zeros()
    a[grid.interior] = fn(X, Y)
    return fill_ghost_array(a, grid)


def uniform_state(grid, rho=1.0, u=0.0, v=0.0, p=1.0):
    V = PrimitiveField.zeros(grid)
    V.rho[:] = rho
    V.u[:] = u
    V.v[:] = v
    V.p[:] = p
    return V


class TestCompactLaplacian:
    def test_constant(self):
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0)
        assert np.allclose(compact_laplacian(padded(grid, lambda x, y: np.full_like(x, 3.0)), grid), 0.0)

    def test_exact_on_quadratic(self):
        grid = GridSpec(10, 10, 0.0, 1.0, 0.0, 1.0, bc_x="outflow", bc_y="outflow")
        lap = compact_laplacian(padded(grid, lambda x, y: x**2 + y**2), grid)
        assert np.allclose(lap[1:-1, 1:-1], 4.0, rtol=1e-11)

    def test_second_order_on_product_of_sines(self):
        errors = []
        tp = 2 * np.pi
        for n in (32, 64):
            grid = GridSpec(n, n, 0.0, 1.0, 0.0, 1.0)
            lap = compact_laplacian(padded(grid, lambda x, y: np.sin(tp * x) * np.sin(tp * y)), grid)
            X, Y = grid.cell_centers()
            exact = -2.0 * tp**2 * np.sin(tp * X) * np.sin(tp * Y)
            errors.append(np.abs(lap - exact).max())
        assert 3.5 <= errors[0] / errors[1] <= 4.5


def random_state(grid, rng):
    """Ghost-filled state with positive density and pressure."""
    V = PrimitiveField(np.stack((
        0.5 + rng.random(grid.shape),
        rng.standard_normal(grid.shape),
        rng.standard_normal(grid.shape),
        0.5 + rng.random(grid.shape),
    )))
    return fill_ghosts(V, grid)


class TestPressureSystem:
    @pytest.mark.parametrize("p, scalars, dt", [
        (2.5, SplitScalars(1.0016, 2.4984), 0.01),
        (1.7, SplitScalars(1.0, 1.69), 0.02),
    ], ids=["p2.5", "p1.7"])
    def test_constant_static_state_fixed_point(self, p, scalars, dt):
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0)
        cfg = SolverConfig(epsilon=0.2, gamma=1.4)
        sys = pressure_system(uniform_state(grid, p=p), scalars, dt, cfg, grid)
        assert np.allclose(sys.rhs, p, rtol=1e-14)
        q, _, _ = solve_helmholtz(sys)
        assert np.allclose(q, p, rtol=1e-13)

    @pytest.mark.parametrize("eps, scalars, dt, sigma", [
        (0.1, SplitScalars(2.0, 1.0), 0.01, 7e-3),
        (0.5, SplitScalars(3.0, 0.7), 0.02, 0.02**2 * 1.4 * 0.7 / (0.25 * 3.0)),
    ], ids=["eps0.1", "eps0.5"])
    def test_shift_hand_value(self, eps, scalars, dt, sigma):
        # dt^2 gamma p_min / (eps^2 rho_max), gamma = 1.4
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0)
        cfg = SolverConfig(epsilon=eps, gamma=1.4)
        sys = pressure_system(uniform_state(grid), scalars, dt, cfg, grid)
        assert sys.sigma == pytest.approx(sigma, rel=1e-14)

    def test_rhs_polynomial_in_dt(self):
        # affine in dt for a fixed prediction: rhs(dt) = p* + a dt; pin via two samples
        rng = np.random.default_rng(6)
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0)
        cfg = SolverConfig(epsilon=0.5, gamma=1.4)
        V = random_state(grid, rng)
        s = SplitScalars(3.0, 0.1)
        r1 = pressure_system(V, s, 0.01, cfg, grid).rhs
        r2 = pressure_system(V, s, 0.02, cfg, grid).rhs
        r3 = pressure_system(V, s, 0.03, cfg, grid).rhs
        p0 = V.p[grid.interior]
        a = (r2 - r1) / 0.01
        assert np.allclose(2.0 * r1 - r2, p0, rtol=1e-12, atol=1e-12)
        assert np.allclose(p0 + 0.03 * a, r3, rtol=1e-9, atol=1e-12)


def bracket_system(Vn, brackets, scalars, dt, cfg, grid):
    """The system written with the explicit brackets E kept apart from Vn:
    each enters through its pressure component and, with a plus, through
    the divergence of its ghost-padded velocity components."""
    gp = cfg.gamma * scalars.p_min
    sigma = dt**2 * gp / (cfg.epsilon**2 * scalars.rho_max)
    rhs = Vn.p[grid.interior].copy()
    for E in brackets:
        rhs -= dt * E[3]
    rhs -= dt * gp * discrete_divergence(Vn.u, Vn.v, grid)
    for E in brackets:
        rhs += dt**2 * gp * discrete_divergence(padded_copy(E[1], grid), padded_copy(E[2], grid), grid)
    return sigma, rhs


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    nx=st.integers(3, 20),
    ny=st.integers(3, 20),
    bcs=st.tuples(st.sampled_from((PERIODIC, OUTFLOW)), st.sampled_from((PERIODIC, OUTFLOW))),
    n_brackets=st.integers(1, 2),
    eps=st.floats(0.01, 1.0),
    dt=st.floats(1e-4, 0.1),
    rho_max=st.floats(0.5, 4.0),
    p_min=st.floats(0.05, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_prediction_system_matches_bracket_form(nx, ny, bcs, n_brackets, eps, dt, rho_max, p_min, seed):
    # Ghost filling is linear under both boundary rules, so the system of
    # the ghost-filled prediction Vn - dt * sum(E) is the bracket form.
    grid = GridSpec(nx, ny, 0.0, 1.0, 0.0, 1.7, bc_x=bcs[0], bc_y=bcs[1])
    cfg = SolverConfig(epsilon=eps)
    rng = np.random.default_rng(seed)
    Vn = random_state(grid, rng)
    brackets = [rng.standard_normal((4, nx, ny)) for _ in range(n_brackets)]
    scalars = SplitScalars(rho_max, p_min)
    Vstar = Vn.copy()
    Vstar.array[grid.interior] -= dt * sum(brackets)
    sys = pressure_system(fill_ghosts(Vstar, grid), scalars, dt, cfg, grid)
    sigma, rhs = bracket_system(Vn, brackets, scalars, dt, cfg, grid)
    assert sys.sigma == sigma
    assert np.abs(sys.rhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


class TestHelmholtzSolver:
    def test_constant_rhs(self):
        grid = GridSpec(16, 16, 0.0, 1.0, 0.0, 1.0)
        sys = HelmholtzSystem(0.37, np.full((16, 16), 4.2), grid)
        q, iters, res = solve_helmholtz(sys)
        assert np.allclose(q, 4.2, rtol=1e-14)
        assert iters == 0

    def test_exact_discrete_pair(self):
        # rhs built by applying the discrete operator: solver must invert it
        grid = GridSpec(32, 32, 0.0, 1.0, 0.0, 1.0)
        tp = 2 * np.pi
        q_exact = padded(grid, lambda x, y: np.sin(tp * x) * np.sin(tp * y))
        sigma = 0.05
        rhs = q_exact[grid.interior] - sigma * compact_laplacian(q_exact, grid)
        q, _, res = solve_helmholtz(HelmholtzSystem(sigma, rhs, grid))
        assert np.abs(q - q_exact[grid.interior]).max() < 1e-10

    @pytest.mark.parametrize("bc", ["periodic", "outflow"])
    def test_manufactured_second_order(self, bc):
        tp = 2 * np.pi
        sigma = 0.02
        errors = []
        for n in (32, 64):
            grid = GridSpec(n, n, 0.0, 1.0, 0.0, 1.0, bc_x=bc, bc_y=bc)
            X, Y = grid.cell_centers()
            exact = np.cos(tp * X) * np.cos(tp * Y)  # Neumann-compatible
            rhs = (1.0 + 2.0 * sigma * tp**2) * exact
            q, _, _ = solve_helmholtz(HelmholtzSystem(sigma, rhs, grid))
            errors.append(np.abs(q - exact).max())
        assert 3.2 <= errors[0] / errors[1] <= 4.8

    def test_spd_property_sampled(self):
        rng = np.random.default_rng(8)
        grid = GridSpec(12, 10, 0.0, 1.0, 0.0, 1.0)
        sigma = 0.3
        work = grid.zeros()
        for _ in range(20):
            w = rng.standard_normal((12, 10))
            work[grid.interior] = w
            fill_ghost_array(work, grid)
            aw = w - sigma * compact_laplacian(work, grid)
            assert (w * aw).sum() > 0.0

    def test_mean_preservation_periodic(self):
        rng = np.random.default_rng(3)
        grid = GridSpec(16, 16, 0.0, 1.0, 0.0, 1.0)
        rhs = 1.0 + 0.2 * rng.standard_normal((16, 16))
        q, _, _ = solve_helmholtz(HelmholtzSystem(0.7, rhs, grid))
        assert q.mean() == pytest.approx(rhs.mean(), rel=1e-12)

    def test_residual_contract(self):
        rng = np.random.default_rng(14)
        grid = GridSpec(24, 24, 0.0, 1.0, 0.0, 1.0)
        rhs = 1.0 + rng.standard_normal((24, 24))
        tol = 1e-10
        sys = HelmholtzSystem(0.9, rhs, grid)
        q, iters, res = solve_helmholtz(sys)
        work = grid.zeros()
        work[grid.interior] = q
        fill_ghost_array(work, grid)
        recomputed = rhs - (q - sys.sigma * compact_laplacian(work, grid))
        assert np.linalg.norm(recomputed) <= tol * np.linalg.norm(rhs)
        assert res <= tol * np.linalg.norm(rhs)

    @pytest.mark.parametrize("bc_x", ["periodic", "outflow"])
    @pytest.mark.parametrize("bc_y", ["periodic", "outflow"])
    # the negative shift is -0.4 / lambda_max(-Lap_h), inside the guard
    @pytest.mark.parametrize("sigma", [0.03, -0.4 / (4.0 * 12**2 + 4.0 * 4.5**2)])
    def test_dense_oracle(self, bc_x, bc_y, sigma):
        # the operator assembled column by column from the ghost rule and the
        # 5-point stencil, on a non-square grid with dx != dy
        grid = GridSpec(12, 9, 0.0, 1.0, 0.0, 2.0, bc_x=bc_x, bc_y=bc_y)
        n = grid.nx * grid.ny
        work = grid.zeros()
        A = np.empty((n, n))
        for k in range(n):
            e = np.zeros(n)
            e[k] = 1.0
            work[grid.interior] = e.reshape(grid.nx, grid.ny)
            fill_ghost_array(work, grid)
            A[:, k] = e - sigma * compact_laplacian(work, grid).ravel()
        rhs = 1.0 + np.random.default_rng(21).standard_normal((grid.nx, grid.ny))
        q, _, _ = solve_helmholtz(HelmholtzSystem(sigma, rhs, grid))
        dense = np.linalg.solve(A, rhs.ravel()).reshape(grid.nx, grid.ny)
        assert np.abs(q - dense).max() <= 1e-13

    def test_indefinite_negative_shift_rejected(self):
        grid = GridSpec(16, 16, 0.0, 1.0, 0.0, 1.0)
        rhs = np.ones((16, 16))
        lam_max = 8.0 * 16**2
        with pytest.raises(NoConvergence):
            solve_helmholtz(HelmholtzSystem(-2.0 / lam_max, rhs, grid))

    def test_small_negative_shift_tolerated(self):
        # stays positive definite while |sigma| lambda_max < 1
        grid = GridSpec(16, 16, 0.0, 1.0, 0.0, 1.0)
        rng = np.random.default_rng(7)
        rhs = 1.0 + 0.1 * rng.standard_normal((16, 16))
        lam_max = 8.0 * 16**2
        sigma = -0.1 / lam_max
        q, _, res = solve_helmholtz(HelmholtzSystem(sigma, rhs, grid))
        assert res <= 1e-11 * np.linalg.norm(rhs)
