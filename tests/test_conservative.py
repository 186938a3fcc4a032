import numpy as np
import pytest

from allmach.conservative import conservative_speeds, cu_flux_conservative, flux_from_primitive
from allmach.grid import AXIS_X, AXIS_Y, GridSpec, along, fill_ghosts
from allmach.integrator import build_stage
from allmach.nonstiff import DELTA
from allmach.reconstruction import limited_traces
from allmach.state import PrimitiveField, SolverConfig, prim_to_cons


def exact_flux(V, cfg, axis):
    return flux_from_primitive(V, prim_to_cons(V, cfg), cfg, axis)


class TestFlux:
    def test_static_state_pressure_only(self):
        cfg = SolverConfig(epsilon=1.0, gamma=1.4)
        V = np.array([1.0, 0.0, 0.0, 1.0])  # rho=1, p=1
        assert np.allclose(exact_flux(V, cfg, AXIS_X), [0.0, 1.0, 0.0, 0.0])

    def test_moving_state_hand_value(self):
        cfg = SolverConfig(epsilon=1.0, gamma=1.4)
        # (rho,u,v,p) = (1,2,1,1): E = 2.5 + 0.5*5 = 5
        V = np.array([1.0, 2.0, 1.0, 1.0])
        U = prim_to_cons(V, cfg)
        assert U[3] == pytest.approx(5.0)
        F = flux_from_primitive(V, U, cfg, AXIS_X)
        assert np.allclose(F, [2.0, 5.0, 2.0, 12.0], rtol=1e-14)

    def test_mach_scaling_of_pressure_flux(self):
        cfg = SolverConfig(epsilon=0.5, gamma=1.4)
        V = np.array([1.0, 2.0, 1.0, 1.0])
        U = prim_to_cons(V, cfg)
        E = 2.5 + (0.25 / 2.0) * 5.0
        assert U[3] == pytest.approx(E)
        F = flux_from_primitive(V, U, cfg, AXIS_X)
        assert np.allclose(F, [2.0, 4.0 + 1.0 / 0.25, 2.0, 2.0 * (E + 1.0)], rtol=1e-14)
        assert F[1] == pytest.approx(8.0)


class TestSpeeds:
    def make_traces(self, rho, u, p):
        one = np.ones((1, 1))
        st = np.stack((rho * one, u * one, u * one, p * one))
        return st, st.copy()

    def test_static_sonic(self):
        cfg = SolverConfig(epsilon=1.0, gamma=1.4)
        tr = self.make_traces(1.4, 0.0, 1.0)  # c = sqrt(1.4/1.4) = 1
        a_minus, a_plus = conservative_speeds(tr, cfg, AXIS_X)
        assert a_minus[0, 0] == pytest.approx(-1.0)
        assert a_plus[0, 0] == pytest.approx(1.0)

    def test_low_mach_speeds_scale_inversely(self):
        cfg = SolverConfig(epsilon=0.1, gamma=1.4)
        tr = self.make_traces(1.4, 0.0, 1.0)
        a_minus, _ = conservative_speeds(tr, cfg, AXIS_X)
        _, b_plus = conservative_speeds(tr, cfg, AXIS_Y)
        assert a_minus[0, 0] == pytest.approx(-10.0)
        assert b_plus[0, 0] == pytest.approx(10.0)

    def test_supersonic_floor(self):
        cfg = SolverConfig(epsilon=1.0, gamma=1.4)
        tr = self.make_traces(1.4, 5.0, 1.0)  # c = 1
        a_minus, a_plus = conservative_speeds(tr, cfg, AXIS_X)
        assert a_minus[0, 0] == -DELTA
        assert a_plus[0, 0] == pytest.approx(6.0)


class TestAssembledOperator:
    def test_constant_state_vanishes(self):
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0)
        V = PrimitiveField.zeros(grid)
        V.rho[:] = 1.0
        V.u[:] = 0.3
        V.v[:] = -0.4
        V.p[:] = 2.0
        cfg = SolverConfig(epsilon=0.5, gamma=1.4)
        D = build_stage(V, grid, cfg).cons_rhs
        assert np.allclose(D, 0.0, atol=1e-12)

    def test_periodic_telescoping_sum(self):
        rng = np.random.default_rng(10)
        grid = GridSpec(12, 12, 0.0, 1.0, 0.0, 1.0)
        V = PrimitiveField(np.stack((
            0.5 + rng.random(grid.shape),
            rng.standard_normal(grid.shape),
            rng.standard_normal(grid.shape),
            0.5 + rng.random(grid.shape),
        )))
        fill_ghosts(V, grid)
        cfg = SolverConfig(epsilon=0.8, gamma=1.4)
        D = build_stage(V, grid, cfg).cons_rhs
        sums = np.abs(D.sum(axis=(1, 2)))
        scale = np.abs(D).sum(axis=(1, 2)) + 1e-30
        assert np.all(sums / scale < 1e-12)

    def test_second_order_against_finite_difference_oracle(self):
        # independent oracle: differentiate the analytic fluxes of a smooth
        # field with tiny-step central differences
        cfg = SolverConfig(epsilon=1.0, gamma=1.4)
        tp = 2.0 * np.pi

        def prim(x, y):
            return np.stack((
                1.0 + 0.2 * np.sin(tp * x) * np.cos(tp * y),
                1.0 + 0.1 * np.cos(tp * x) * np.sin(tp * y),
                0.5 + 0.1 * np.sin(tp * x + 1.0) * np.sin(tp * y),
                2.0 + 0.2 * np.cos(tp * x + 0.5) * np.cos(tp * y + 1.0),
            ))

        def oracle(x, y, h=1e-6):
            fx = (exact_flux(prim(x + h, y), cfg, AXIS_X)
                  - exact_flux(prim(x - h, y), cfg, AXIS_X)) / (2 * h)
            gy = (exact_flux(prim(x, y + h), cfg, AXIS_Y)
                  - exact_flux(prim(x, y - h), cfg, AXIS_Y)) / (2 * h)
            return -(fx + gy)

        errors = []
        for n in (64, 128):
            grid = GridSpec(n, n, 0.0, 1.0, 0.0, 1.0)
            X, Y = grid.cell_centers()
            V = PrimitiveField.zeros(grid)
            for dst, src in zip(V.components(), prim(X, Y)):
                dst[grid.interior] = src
            fill_ghosts(V, grid)
            D = build_stage(V, grid, cfg).cons_rhs
            errors.append(np.abs(D - oracle(X, Y)).mean(axis=(1, 2)))
        ratios = errors[0] / errors[1]
        assert np.all(ratios >= 3.2) and np.all(ratios <= 4.8)

    def test_interface_flux_consistency(self):
        # equal one-sided states: the numerical flux is the exact flux
        grid = GridSpec(6, 6, 0.0, 1.0, 0.0, 1.0)
        V = PrimitiveField.zeros(grid)
        V.rho[:] = 1.2
        V.u[:] = 0.5
        V.v[:] = -0.3
        V.p[:] = 1.5
        cfg = SolverConfig(epsilon=0.9, gamma=1.4)
        state = np.array([1.2, 0.5, -0.3, 1.5])
        g = grid.ghost
        for axis in (AXIS_X, AXIS_Y):
            block = along(V.array, axis)[..., g:-g]
            traces = limited_traces(block, grid.spacing(axis), cfg.theta, axis, 0)
            f = cu_flux_conservative(traces, cfg, axis)
            exact = exact_flux(state, cfg, axis)
            assert np.allclose(f, exact[:, None, None], rtol=1e-13)
