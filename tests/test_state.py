import numpy as np
import pytest

from allmach.errors import NonPhysicalState
from allmach.grid import GridSpec, fill_ghost_array, fill_ghosts
from allmach.state import (
    ConservativeField,
    PrimitiveField,
    SolverConfig,
    cons_to_prim,
    prim_to_cons,
)


def conservative(V, cfg):
    return ConservativeField(prim_to_cons(V.array, cfg))


def uniform_primitive(grid, rho, u, v, p):
    V = PrimitiveField.zeros(grid)
    V.rho[:] = rho
    V.u[:] = u
    V.v[:] = v
    V.p[:] = p
    return V


@pytest.fixture
def grid():
    return GridSpec(4, 4, 0.0, 1.0, 0.0, 1.0)


class TestTransforms:
    def test_energy_with_kinetic_term(self, grid):
        # straight-line equation of state: p/(gamma-1) + eps^2/2 rho (u^2+v^2)
        cfg = SolverConfig(epsilon=0.1, gamma=2.0)
        expected_E = 1.0 / (2.0 - 1.0) + 0.5 * 0.1**2 * 1.0 * (1.0 + 1.0)
        assert expected_E == 1.01
        U = conservative(uniform_primitive(grid, 1.0, 1.0, 1.0, 1.0), cfg)
        assert np.allclose(U.E, expected_E, rtol=0, atol=1e-15)
        assert np.allclose(U.mx, 1.0) and np.allclose(U.my, 1.0)

    def test_static_state(self, grid):
        cfg = SolverConfig(epsilon=0.7, gamma=1.4)
        U = conservative(uniform_primitive(grid, 1.0, 0.0, 0.0, 1.0), cfg)
        assert np.allclose(U.E, 2.5)

    def test_explosion_ambient_state(self, grid):
        cfg = SolverConfig(epsilon=1.0, gamma=1.4)
        U = conservative(uniform_primitive(grid, 0.125, 0.0, 0.0, 0.1), cfg)
        assert np.allclose(U.E, 0.25)

    def test_inverse_of_known_state(self, grid):
        cfg = SolverConfig(epsilon=0.1, gamma=2.0)
        U = ConservativeField.zeros(grid)
        U.rho[:] = 1.0
        U.mx[:] = 1.0
        U.my[:] = 1.0
        U.E[:] = 1.01
        V = cons_to_prim(U, cfg)
        for a, want in zip(V.components(), (1.0, 1.0, 1.0, 1.0)):
            assert np.allclose(a, want, rtol=1e-14)

    def test_zero_velocity_inverse(self, grid):
        cfg = SolverConfig(epsilon=0.3, gamma=1.4)
        U = ConservativeField.zeros(grid)
        U.rho[:] = 1.0
        U.E[:] = 2.5
        V = cons_to_prim(U, cfg)
        assert np.allclose(V.p, 1.0)
        assert np.allclose(V.u, 0.0)

    @pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-6])
    def test_round_trip(self, eps):
        grid = GridSpec(8, 6, -1.0, 1.0, 0.0, 3.0)
        rng = np.random.default_rng(7)
        V = PrimitiveField(np.stack((
            0.5 + rng.random(grid.shape),
            rng.standard_normal(grid.shape),
            rng.standard_normal(grid.shape),
            0.5 + rng.random(grid.shape),
        )))
        cfg = SolverConfig(epsilon=eps, gamma=1.4)
        W = cons_to_prim(conservative(V, cfg), cfg)
        for a, b in zip(V.components(), W.components()):
            assert np.allclose(a, b, rtol=1e-13)

    def test_energy_continuous_in_mach_number(self, grid):
        # E -> p/(gamma-1) as eps -> 0
        V = uniform_primitive(grid, 1.3, 0.7, -0.4, 2.1)
        cfg = SolverConfig(epsilon=1e-8, gamma=1.4)
        U = conservative(V, cfg)
        assert np.allclose(U.E, 2.1 / 0.4, rtol=1e-12)


class TestGhostFilling:
    def test_periodic_wrap_indices(self):
        grid = GridSpec(4, 4, 0.0, 1.0, 0.0, 1.0)
        a = grid.zeros()
        g = grid.ghost
        a[g:g + 4, :] = np.arange(4.0)[:, None]  # f(x_j) = j
        fill_ghost_array(a, grid)
        assert list(a[:g, g]) == [2.0, 3.0]
        assert list(a[-g:, g]) == [0.0, 1.0]

    def test_outflow_constant_everywhere(self):
        grid = GridSpec(4, 4, 0.0, 1.0, 0.0, 1.0, bc_x="outflow", bc_y="outflow")
        a = grid.zeros()
        a[grid.interior] = 3.5
        fill_ghost_array(a, grid)
        assert np.all(a == 3.5)

    def test_idempotent(self):
        for bc in ("periodic", "outflow"):
            grid = GridSpec(5, 4, 0.0, 1.0, 0.0, 1.0, bc_x=bc, bc_y=bc)
            rng = np.random.default_rng(3)
            a = grid.zeros()
            a[grid.interior] = rng.random((5, 4))
            once = fill_ghost_array(a.copy(), grid)
            twice = fill_ghost_array(once.copy(), grid)
            assert np.array_equal(once, twice)

    def test_field_level_fill(self):
        grid = GridSpec(4, 4, 0.0, 1.0, 0.0, 1.0)
        V = PrimitiveField.zeros(grid)
        V.rho[grid.interior] = 1.0
        V.p[grid.interior] = 2.0
        fill_ghosts(V, grid)
        assert np.all(V.rho == 1.0) and np.all(V.p == 2.0)


class TestConfig:
    def test_defaults_match_reference_setup(self):
        cfg = SolverConfig(epsilon=0.5)
        assert cfg.theta == 1.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": 1.5},
            {"epsilon": 0.5, "theta": 2.5},
            {"epsilon": 0.5, "order": 3},
            {"epsilon": 0.5, "k_cfl": 0.0},
            {"epsilon": 0.5, "k_cfl": -0.5},
            {"epsilon": 0.5, "dt_override": (-1, 1e-3)},
            {"epsilon": 0.5, "dt_override": (3, 0.0)},
            {"epsilon": 0.5, "dt_override": (3, -1e-3)},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestValidation:
    def test_negative_pressure_detected(self, grid):
        V = uniform_primitive(grid, 1.0, 0.0, 0.0, 1.0)
        V.p[grid.ghost + 1, grid.ghost + 1] = -0.1
        with pytest.raises(NonPhysicalState):
            V.validate(grid)

    def test_ghost_values_not_validated(self, grid):
        V = uniform_primitive(grid, 1.0, 0.0, 0.0, 1.0)
        V.rho[0, 0] = -1.0  # ghost corner: ignored
        V.validate(grid)

    def test_nan_detected(self, grid):
        V = uniform_primitive(grid, 1.0, 0.0, 0.0, 1.0)
        V.u[grid.ghost, grid.ghost] = np.nan
        with pytest.raises(NonPhysicalState):
            V.validate(grid)


class TestConservativeValidation:
    @pytest.fixture
    def cfg(self):
        return SolverConfig(epsilon=1.0, gamma=1.4)

    @pytest.fixture
    def U(self, grid, cfg):
        # kinetic energy 0.25 per cell, internal energy 2.5
        return conservative(uniform_primitive(grid, 1.0, 0.5, -0.5, 1.0), cfg)

    def test_valid_state_returns_itself(self, grid, cfg, U):
        assert U.validate(grid, cfg) is U

    def test_non_positive_density_rejected(self, grid, cfg, U):
        U.rho[grid.ghost + 1, grid.ghost + 2] = 0.0
        with pytest.raises(NonPhysicalState, match="non-positive density"):
            U.validate(grid, cfg)

    def test_non_positive_internal_energy_rejected(self, grid, cfg, U):
        U.E[grid.ghost + 2, grid.ghost + 1] = 0.2  # below the kinetic energy
        with pytest.raises(NonPhysicalState, match="non-positive internal energy"):
            U.validate(grid, cfg)

    def test_non_finite_momentum_rejected(self, grid, cfg, U):
        U.mx[grid.ghost, grid.ghost + 3] = np.inf
        with pytest.raises(NonPhysicalState, match="non-finite mx"):
            U.validate(grid, cfg)
