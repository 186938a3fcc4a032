import numpy as np
import pytest

from allmach.conservative import flux_divergence, flux_from_primitive, sound_speed
from allmach.grid import AXIS_X, AXIS_Y, GridSpec, along
from allmach.nonstiff import DELTA, one_sided_speeds
from allmach.state import SolverConfig, prim_to_cons

from builders import random_state, stage_operators, traces_along, uniform


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
    def make_traces(self, u):
        # normal and tangential velocity u along both axes
        st = np.array([1.0, u, u, 1.0])[:, None, None]
        return st, st.copy()

    def test_sound_speed_hand_values(self):
        assert sound_speed(1.4, 1.0, SolverConfig(epsilon=1.0, gamma=1.4)) == 1.0
        assert sound_speed(1.4, 1.0, SolverConfig(epsilon=0.1, gamma=1.4)) == pytest.approx(10.0, rel=1e-15)
        # sqrt(1.4 * 2.0 / 0.7) / 0.5 = 4
        assert sound_speed(0.7, 2.0, SolverConfig(epsilon=0.5, gamma=1.4)) == pytest.approx(4.0, rel=1e-15)

    def test_static_sonic(self):
        a_minus, a_plus = one_sided_speeds(*self.make_traces(0.0), 1.0, 1.0, AXIS_X)
        assert a_minus[0, 0] == -1.0
        assert a_plus[0, 0] == 1.0

    def test_low_mach_speeds_scale_inversely(self):
        # c = 10 at eps = 0.1, along either axis
        a_minus, _ = one_sided_speeds(*self.make_traces(0.0), 10.0, 10.0, AXIS_X)
        _, b_plus = one_sided_speeds(*self.make_traces(0.0), 10.0, 10.0, AXIS_Y)
        assert a_minus[0, 0] == -10.0
        assert b_plus[0, 0] == 10.0

    def test_supersonic_floor(self):
        a_minus, a_plus = one_sided_speeds(*self.make_traces(5.0), 1.0, 1.0, AXIS_X)
        assert a_minus[0, 0] == -DELTA
        assert a_plus[0, 0] == 6.0


class TestAssembledOperator:
    def test_constant_state_vanishes(self):
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0)
        V = uniform(grid, u=0.3, v=-0.4, p=2.0)
        _, D, _ = stage_operators(V, grid, SolverConfig(epsilon=0.5, gamma=1.4))
        assert np.allclose(D, 0.0, atol=1e-12)

    def test_periodic_telescoping_sum(self):
        grid = GridSpec(12, 12, 0.0, 1.0, 0.0, 1.0)
        V = random_state(grid, np.random.default_rng(10))
        _, D, _ = stage_operators(V, grid, SolverConfig(epsilon=0.8, gamma=1.4))
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
            _, D, _ = stage_operators(uniform(grid, *prim(X, Y)), grid, cfg)
            errors.append(np.abs(D - oracle(X, Y)).mean(axis=(1, 2)))
        ratios = errors[0] / errors[1]
        assert np.all(ratios >= 3.2) and np.all(ratios <= 4.8)

    def test_interface_flux_consistency(self):
        # equal one-sided states give one flux at every interface, so the
        # divergence vanishes; the same uniform moving state as
        # test_nonstiff's TestNonconservativeTerms
        grid = GridSpec(6, 5, 0.0, 1.0, 0.0, 2.0)
        V = uniform(grid, 1.2, 0.5, -0.3, 1.5)
        cfg = SolverConfig(epsilon=0.5, gamma=1.4)
        for axis in (AXIS_X, AXIS_Y):
            traces = traces_along(V, grid, axis, cfg.theta)
            div = flux_divergence(traces, cfg, axis, grid.spacing(axis))
            assert div.shape == (4,) + along(V.rho[grid.interior], axis).shape
            assert np.all(div == 0.0)
