import math

import numpy as np
import pytest

from allmach.errors import NonPhysicalState
from allmach.grid import AXIS_X, AXIS_Y, GridSpec, along, fill_ghosts
from allmach.integrator import build_stage
from allmach.nonstiff import (
    DELTA,
    SplitScalars,
    antidiffusion,
    cu_flux,
    modified_sound_speed,
    nonconservative_terms,
    nonstiff_flux,
    nonstiff_speeds,
    split_scalars,
)
from allmach.reconstruction import limited_traces
from allmach.state import PrimitiveField, SolverConfig


def smooth_field(grid):
    X, Y = grid.cell_centers()
    tp = 2.0 * np.pi
    V = PrimitiveField.zeros(grid)
    V.rho[grid.interior] = 1.0 + 0.3 * np.sin(tp * X) * np.cos(tp * Y)
    V.u[grid.interior] = 1.0 + 0.2 * np.cos(tp * X) * np.sin(tp * Y)
    V.v[grid.interior] = 0.5 + 0.2 * np.sin(tp * X + 1.0) * np.sin(tp * Y)
    V.p[grid.interior] = 2.0 + 0.4 * np.cos(tp * X + 0.5) * np.cos(tp * Y + 1.0)
    return fill_ghosts(V, grid)


def traces_along(V, grid, axis, theta):
    """(minus, plus) traces along ``axis`` of the whole grid, axis first."""
    g = grid.ghost
    return limited_traces(along(V.array, axis)[..., g:-g], grid.spacing(axis), theta, axis, 0)


class TestSplitScalars:
    def test_constant_field_shifted_extrema(self):
        grid = GridSpec(4, 4, 0.0, 1.0, 0.0, 1.0)
        V = PrimitiveField.zeros(grid)
        V.rho[:] = 1.0
        V.p[:] = 1.0
        s = split_scalars(V, grid, eps=0.1)
        assert s.rho_max == pytest.approx(1.0 + 1e-4, rel=0, abs=1e-18)
        assert s.p_min == pytest.approx(1.0 - 1e-4, rel=0, abs=1e-18)

    def test_zero_mach_shift_vanishes(self):
        grid = GridSpec(4, 4, 0.0, 1.0, 0.0, 1.0)
        V = PrimitiveField.zeros(grid)
        V.rho[:] = 2.0
        V.p[:] = 3.0
        s = split_scalars(V, grid, eps=0.0)
        assert (s.rho_max, s.p_min) == (2.0, 3.0)

    def test_unit_mach_number_shift(self):
        grid = GridSpec(4, 4, 0.0, 2.0, 0.0, 2.0)
        V = PrimitiveField.zeros(grid)
        V.rho[grid.interior] = 1.0
        V.rho[grid.ghost, grid.ghost] = 2.0
        V.p[grid.interior] = 2.0
        V.p[grid.ghost + 1, grid.ghost] = 1.0
        s = split_scalars(V, grid, eps=1.0)
        assert (s.rho_max, s.p_min) == (3.0, 0.0)

    def test_extrema_over_interior_only(self):
        grid = GridSpec(4, 4, 0.0, 1.0, 0.0, 1.0)
        V = PrimitiveField.zeros(grid)
        V.rho[:] = 1.0
        V.p[:] = 1.0
        V.rho[0, 0] = 99.0  # ghost: must not count
        s = split_scalars(V, grid, eps=0.0)
        assert s.rho_max == 1.0


class TestModifiedSoundSpeed:
    def test_vanishes_at_density_maximum(self):
        s = SplitScalars(rho_max=1.0, p_min=0.5)
        assert modified_sound_speed(1.0, 1.0, s, eps=0.5, gamma=1.4) == 0.0

    def test_hand_value_unit_mach(self):
        s = SplitScalars(rho_max=2.0, p_min=1.0)
        expected = math.sqrt(1.4 * (2.0 - 1.0) * (2.0 - 1.0) / (1.0 * 2.0))
        assert expected == pytest.approx(0.8366600265340756, rel=1e-12)
        assert modified_sound_speed(1.0, 2.0, s, 1.0, 1.4) == pytest.approx(expected, rel=1e-14)

    def test_hand_value_low_mach(self):
        # well-prepared pressure gap of 0.01 * eps^2 at eps = 0.1
        s = SplitScalars(rho_max=2.0, p_min=1.0)
        got = modified_sound_speed(1.0, 1.0 + 1e-4, s, 0.1, 1.4)
        expected = 10.0 * math.sqrt(1.4 * 1.0 * 1e-4 / 2.0)
        assert expected == pytest.approx(0.08366600265340757, rel=1e-12)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_stale_scalars_rejected(self):
        s = SplitScalars(rho_max=0.5, p_min=0.0)  # rho exceeds the recorded max
        with pytest.raises(NonPhysicalState):
            modified_sound_speed(1.0, 1.0, s, 1.0, 1.4)

    def test_bounded_as_mach_vanishes(self):
        # the split speed must not blow up like 1/eps for well-prepared data
        from allmach.benchmarks import CASES

        case = CASES["gresho"]
        maxima = {}
        for eps in (1e-2, 1e-6):
            grid = case.make_grid(32, 32, eps)
            V = case.initial_state(grid, eps)
            s = split_scalars(V, grid, eps)
            core = grid.interior
            c = modified_sound_speed(V.rho[core], V.p[core], s, eps, 1.4)
            maxima[eps] = float(np.asarray(c).max())
        assert maxima[1e-6] <= 2.0 * maxima[1e-2]


class TestSpeeds:
    def make_traces(self, u_minus, u_plus, axis):
        # normal velocity u_minus/u_plus, zero tangential velocity
        one = np.ones((1, 1))
        minus = np.stack((one, 0.0 * one, 0.0 * one, one))
        plus = minus.copy()
        minus[1 + axis] = u_minus
        plus[1 + axis] = u_plus
        return minus, plus

    def test_static_state_floors(self):
        cfg = SolverConfig(epsilon=1.0, gamma=1.4)
        s = SplitScalars(rho_max=1.0, p_min=1.0)  # c_tilde = 0
        for axis in (AXIS_X, AXIS_Y):
            a_minus, a_plus = nonstiff_speeds(self.make_traces(0.0, 0.0, axis), s, cfg, axis)
            assert a_minus[0, 0] == -DELTA
            assert a_plus[0, 0] == DELTA

    def test_symmetric_states(self):
        # u-=-1, u+=1, scalars tuned so c=0.5 on both sides
        cfg = SolverConfig(epsilon=1.0, gamma=1.4)
        p_min = 1.0 - 0.25 * 2.0 / 1.4  # gamma (rho_max-1)(1-p_min)/rho_max = 0.25
        s = SplitScalars(rho_max=2.0, p_min=p_min)
        for axis in (AXIS_X, AXIS_Y):
            a_minus, a_plus = nonstiff_speeds(self.make_traces(-1.0, 1.0, axis), s, cfg, axis)
            assert a_minus[0, 0] == pytest.approx(min(-1.0 - 0.5, 1.0 - 0.5, -1e-15), rel=1e-12)
            assert a_plus[0, 0] == pytest.approx(max(-1.0 + 0.5, 1.0 + 0.5, 1e-15), rel=1e-12)

    def test_supersonic_one_sided(self):
        cfg = SolverConfig(epsilon=1.0, gamma=1.4)
        p_min = 1.0 - 2.0 / 1.4  # tuned so c = 1 at rho = p = 1
        s = SplitScalars(rho_max=2.0, p_min=p_min)
        for axis in (AXIS_X, AXIS_Y):
            a_minus, a_plus = nonstiff_speeds(self.make_traces(2.0, 2.0, axis), s, cfg, axis)
            assert a_minus[0, 0] == -DELTA
            assert a_plus[0, 0] == pytest.approx(3.0, rel=1e-12)

    def test_admissibility_on_random_fields(self):
        rng = np.random.default_rng(2)
        grid = GridSpec(10, 9, 0.0, 1.0, 0.0, 1.0)
        V = PrimitiveField(np.stack((
            0.5 + rng.random(grid.shape),
            rng.standard_normal(grid.shape),
            rng.standard_normal(grid.shape),
            0.5 + rng.random(grid.shape),
        )))
        fill_ghosts(V, grid)
        cfg = SolverConfig(epsilon=0.3, gamma=1.4)
        s = split_scalars(V, grid, cfg.epsilon)
        for axis in (AXIS_X, AXIS_Y):
            s_minus, s_plus = nonstiff_speeds(traces_along(V, grid, axis, cfg.theta), s, cfg, axis)
            assert np.all(s_minus <= -DELTA) and np.all(s_plus >= DELTA)


class TestFluxes:
    def test_x_flux_hand_value(self):
        state = np.array([2.0, 3.0, 1.0, 5.0])
        assert np.allclose(nonstiff_flux(state, AXIS_X), [6.0, 4.5, 0.0, 0.0])

    def test_flux_vanishes_with_velocity(self):
        state = np.array([2.0, 0.0, 0.0, 5.0])
        assert np.allclose(nonstiff_flux(state, AXIS_X), 0.0)

    def test_y_flux_hand_value(self):
        state = np.array([2.0, 3.0, 1.0, 5.0])
        assert np.allclose(nonstiff_flux(state, AXIS_Y), [2.0, 0.0, 0.5, 0.0])

    def test_cu_flux_consistency(self):
        v = np.array([1.2, 0.7, -0.3, 2.0])
        f = nonstiff_flux(v, AXIS_X)
        got = cu_flux(v, v, f, f, np.float64(-0.9), np.float64(1.1))
        assert np.allclose(got, f, rtol=1e-14)

    def test_cu_flux_lax_friedrichs_reduction(self):
        # symmetric speeds, zero anti-diffusion: (f- + f+)/2 - a/2 (v+ - v-)
        v_minus, v_plus = 1.0, 2.0
        f_minus, f_plus = 0.0, 0.0
        got = cu_flux(v_minus, v_plus, f_minus, f_plus, -2.0, 2.0)
        v_int = (2.0 * 2.0 + 2.0 * 1.0 - 0.0) / 4.0  # = 1.5, inside [1,2]
        dv = min(v_int - v_minus, v_plus - v_int)
        expected = 0.5 * (f_minus + f_plus) - 1.0 * (v_plus - v_minus - dv)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_cu_flux_scalar_hand_value(self):
        # a+=2, a-=-1, f-=3, f+=6, v-=1, v+=2 with anti-diffusion forced to 0:
        # (2*3 - (-1)*6)/3 + (2*(-1)/3)*(2-1) = 4 - 2/3 = 10/3
        # v_int = (2*2 + 1*1 - 6 + 3)/3 = 2/3 lies outside [1, 2] so dv = 0
        got = cu_flux(1.0, 2.0, 3.0, 6.0, -1.0, 2.0)
        assert got == pytest.approx(10.0 / 3.0, rel=1e-14)

    def test_antidiffusion_equal_states(self):
        assert antidiffusion(1.0, 1.0, 0.3, 0.3, -1.0, 1.0) == 0.0

    def test_antidiffusion_outside_bracket(self):
        # intermediate state outside [v-, v+] gives zero correction
        assert antidiffusion(1.0, 2.0, 3.0, 6.0, -1.0, 2.0) == 0.0

    def test_antidiffusion_hand_value(self):
        # a+-=+-1, v-=0, v+=2, f identical: v_int = 1, minmod(1, 1) = 1
        assert antidiffusion(0.0, 2.0, 0.0, 0.0, -1.0, 1.0) == 1.0

    def test_antidiffusion_bounded_by_jump(self):
        rng = np.random.default_rng(9)
        vm = rng.standard_normal(200)
        vp = rng.standard_normal(200)
        fm = rng.standard_normal(200)
        fp = rng.standard_normal(200)
        sm = -0.1 - rng.random(200)
        sp = 0.1 + rng.random(200)
        dv = antidiffusion(vm, vp, fm, fp, sm, sp)
        jump = vp - vm
        assert np.all(dv * jump >= -1e-15)
        assert np.all(np.abs(dv) <= np.abs(jump) + 1e-15)


class TestNonconservativeTerms:
    def test_constant_state_vanishes(self):
        grid = GridSpec(6, 5, 0.0, 1.0, 0.0, 1.0)
        V = PrimitiveField.zeros(grid)
        V.rho[:] = 1.0
        V.u[:] = 0.4
        V.v[:] = -0.2
        V.p[:] = 2.0
        cfg = SolverConfig(epsilon=0.5, gamma=1.4)
        s = split_scalars(V, grid, cfg.epsilon)
        Vbar = V.array[grid.interior]
        for axis in (AXIS_X, AXIS_Y):
            traces = traces_along(V, grid, axis, cfg.theta)
            for term in nonconservative_terms(traces, along(Vbar, axis), s, cfg, axis):
                assert np.allclose(term, 0.0, atol=1e-15)

    def test_pressure_jump_drives_velocity_row(self):
        # x-fluctuation u-component: -(rho_max - rho_m)/(eps^2 rho_m rho_max) * dp
        from allmach.nonstiff import _bmat_apply

        cfg = SolverConfig(epsilon=1.0, gamma=1.4)
        s = SplitScalars(rho_max=2.0, p_min=0.0)
        mid = np.array([1.0, 0.3, 0.3, 1.05])  # path midpoint, rho_m = 1
        jump = np.array([0.0, 0.0, 0.0, 0.1])
        got = _bmat_apply(mid, jump, s, cfg, AXIS_X)
        expected_u = -((2.0 - 1.0) / (1.0 * 1.0 * 2.0)) * 0.1
        assert expected_u == -0.05
        assert got[1] == pytest.approx(expected_u, rel=1e-14)
        assert got[0] == 0.0

    def test_transverse_velocity_jump_drives_pressure_row(self):
        # y-fluctuation p-component: -gamma (p_m - p_min) * dv
        from allmach.nonstiff import _bmat_apply

        cfg = SolverConfig(epsilon=1.0, gamma=1.4)
        s = SplitScalars(rho_max=2.0, p_min=1.0)
        mid = np.array([1.0, 0.0, 0.0, 1.01])  # p_m - p_min = 0.01
        jump = np.array([0.0, 0.0, 0.2, 0.0])
        got = _bmat_apply(mid, jump, s, cfg, AXIS_Y)
        assert got[3] == pytest.approx(-1.4 * 0.01 * 0.2, rel=1e-14)
        assert got[3] == pytest.approx(-2.8e-3, rel=1e-12)
        # a u-jump in y leaves the pressure row untouched
        jump_u = np.array([0.0, 0.2, 0.0, 0.0])
        assert _bmat_apply(mid, jump_u, s, cfg, AXIS_Y)[3] == 0.0


def analytic_operator(grid, eps, gamma, rho_max, p_min):
    X, Y = grid.cell_centers()
    tp = 2.0 * np.pi
    rho = 1.0 + 0.3 * np.sin(tp * X) * np.cos(tp * Y)
    u = 1.0 + 0.2 * np.cos(tp * X) * np.sin(tp * Y)
    v = 0.5 + 0.2 * np.sin(tp * X + 1.0) * np.sin(tp * Y)
    p = 2.0 + 0.4 * np.cos(tp * X + 0.5) * np.cos(tp * Y + 1.0)
    rho_x = 0.3 * tp * np.cos(tp * X) * np.cos(tp * Y)
    rho_y = -0.3 * tp * np.sin(tp * X) * np.sin(tp * Y)
    u_x = -0.2 * tp * np.sin(tp * X) * np.sin(tp * Y)
    u_y = 0.2 * tp * np.cos(tp * X) * np.cos(tp * Y)
    v_x = 0.2 * tp * np.cos(tp * X + 1.0) * np.sin(tp * Y)
    v_y = 0.2 * tp * np.sin(tp * X + 1.0) * np.cos(tp * Y)
    p_x = -0.4 * tp * np.sin(tp * X + 0.5) * np.cos(tp * Y + 1.0)
    p_y = -0.4 * tp * np.cos(tp * X + 0.5) * np.sin(tp * Y + 1.0)
    q = (rho_max - rho) / (eps**2 * rho * rho_max)
    return np.stack((
        rho_x * u + rho * u_x + rho_y * v + rho * v_y,
        u * u_x + v * u_y + q * p_x,
        u * v_x + v * v_y + q * p_y,
        u * p_x + v * p_y + gamma * (p - p_min) * (u_x + v_y),
    ))


class TestAssembledOperator:
    def test_constant_static_state_is_annihilated(self):
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0)
        V = PrimitiveField.zeros(grid)
        V.rho[:] = 1.2
        V.p[:] = 0.9
        cfg = SolverConfig(epsilon=0.4, gamma=1.4)
        s = split_scalars(V, grid, cfg.epsilon)
        R = build_stage(V, grid, cfg).nonstiff
        assert np.allclose(R, 0.0, atol=1e-14)

    def test_second_order_consistency(self):
        cfg_kwargs = dict(epsilon=1.0, gamma=1.4)
        errors = []
        for n in (64, 128):
            grid = GridSpec(n, n, 0.0, 1.0, 0.0, 1.0)
            V = smooth_field(grid)
            cfg = SolverConfig(**cfg_kwargs)
            s = split_scalars(V, grid, cfg.epsilon)
            R = build_stage(V, grid, cfg).nonstiff
            Ra = analytic_operator(grid, cfg.epsilon, cfg.gamma, s.rho_max, s.p_min)
            errors.append(np.abs(R - Ra).mean(axis=(1, 2)))
        ratios = errors[0] / errors[1]
        assert np.all(ratios >= 3.2) and np.all(ratios <= 4.8)

    def test_density_advection_of_translating_profile(self):
        # V = (rho(x), c, 0, const): density component approximates c * rho'(x)
        errors = []
        c = 0.7
        for n in (32, 64):
            grid = GridSpec(n, n, 0.0, 1.0, 0.0, 1.0)
            X, _ = grid.cell_centers()
            V = PrimitiveField.zeros(grid)
            V.rho[grid.interior] = 2.0 + 0.5 * np.sin(2 * np.pi * X)
            V.u[:] = c
            V.p[:] = 1.0
            fill_ghosts(V, grid)
            cfg = SolverConfig(epsilon=1.0, gamma=1.4)
            s = split_scalars(V, grid, cfg.epsilon)
            R = build_stage(V, grid, cfg).nonstiff
            exact = c * np.pi * np.cos(2 * np.pi * X)
            errors.append(np.abs(R[0] - exact).mean())
        assert 3.2 <= errors[0] / errors[1] <= 4.8

    def test_rigid_translation_pressure_row(self):
        # uniform velocity, constant pressure: the analytic p-row vanishes and
        # the discrete one does too (constant fields have zero jumps), which
        # is within the O(dx^2) the contract asks for
        grid = GridSpec(32, 32, 0.0, 1.0, 0.0, 1.0)
        X, Y = grid.cell_centers()
        V = PrimitiveField.zeros(grid)
        V.rho[grid.interior] = 1.0 + 0.2 * np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y)
        V.u[:] = 1.0
        V.v[:] = 1.0
        V.p[:] = 2.0
        fill_ghosts(V, grid)
        cfg = SolverConfig(epsilon=1.0, gamma=1.4)
        s = split_scalars(V, grid, cfg.epsilon)
        R = build_stage(V, grid, cfg).nonstiff
        assert np.abs(R[3]).max() <= 1e-13
        # the velocity rows see only the density-weighted pressure gradient,
        # which also vanishes here
        assert np.abs(R[1]).max() <= 1e-13
