import math

import numpy as np
import pytest
import hypothesis
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from allmach.conservative import flux_from_primitive, sound_speed
from allmach.errors import NonPhysicalState
from allmach.grid import AXIS_X, AXIS_Y, GridSpec, along
from allmach.nonstiff import (
    DELTA,
    SplitScalars,
    cu_flux,
    modified_sound_speed,
    nonstiff_flux,
    nonstiff_rate,
    one_sided_speeds,
    split_scalars,
)
from allmach.state import SolverConfig, prim_to_cons

from builders import random_state, stage_operators, traces_along, uniform


def smooth_field(grid):
    X, Y = grid.cell_centers()
    tp = 2.0 * np.pi
    return uniform(
        grid,
        rho=1.0 + 0.3 * np.sin(tp * X) * np.cos(tp * Y),
        u=1.0 + 0.2 * np.cos(tp * X) * np.sin(tp * Y),
        v=0.5 + 0.2 * np.sin(tp * X + 1.0) * np.sin(tp * Y),
        p=2.0 + 0.4 * np.cos(tp * X + 0.5) * np.cos(tp * Y + 1.0),
    )


class TestSplitScalars:
    def test_constant_field_shifted_extrema(self):
        grid = GridSpec(4, 4, 0.0, 1.0, 0.0, 1.0)
        s = split_scalars(uniform(grid), grid, eps=0.1)
        assert s.rho_max == pytest.approx(1.0 + 1e-4, rel=0, abs=1e-18)
        assert s.p_min == pytest.approx(1.0 - 1e-4, rel=0, abs=1e-18)

    def test_zero_mach_shift_vanishes(self):
        grid = GridSpec(4, 4, 0.0, 1.0, 0.0, 1.0)
        s = split_scalars(uniform(grid, rho=2.0, p=3.0), grid, eps=0.0)
        assert (s.rho_max, s.p_min) == (2.0, 3.0)

    def test_unit_mach_number_shift(self):
        grid = GridSpec(4, 4, 0.0, 2.0, 0.0, 2.0)
        V = uniform(grid, p=2.0)
        V.rho[grid.ghost, grid.ghost] = 2.0
        V.p[grid.ghost + 1, grid.ghost] = 1.0
        s = split_scalars(V, grid, eps=1.0)
        assert (s.rho_max, s.p_min) == (3.0, 0.0)

    def test_extrema_over_interior_only(self):
        grid = GridSpec(4, 4, 0.0, 1.0, 0.0, 1.0)
        V = uniform(grid)
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
        # c_tilde vanishes at the density maximum
        for axis in (AXIS_X, AXIS_Y):
            a_minus, a_plus = one_sided_speeds(*self.make_traces(0.0, 0.0, axis), 0.0, 0.0, axis)
            assert a_minus[0, 0] == -DELTA
            assert a_plus[0, 0] == DELTA

    def test_symmetric_states(self):
        for axis in (AXIS_X, AXIS_Y):
            a_minus, a_plus = one_sided_speeds(*self.make_traces(-1.0, 1.0, axis), 0.5, 0.5, axis)
            assert a_minus[0, 0] == -1.5
            assert a_plus[0, 0] == 1.5

    def test_supersonic_one_sided(self):
        for axis in (AXIS_X, AXIS_Y):
            a_minus, a_plus = one_sided_speeds(*self.make_traces(2.0, 2.0, axis), 1.0, 1.0, axis)
            assert a_minus[0, 0] == -DELTA
            assert a_plus[0, 0] == 3.0

    def test_admissibility_on_random_fields(self):
        # both one-sided speeds bound every wave u_n +- c of both traces
        rng = np.random.default_rng(2)
        minus, plus = rng.standard_normal((2, 4, 11, 9))
        c_minus, c_plus = rng.random((2, 11, 9))
        for axis in (AXIS_X, AXIS_Y):
            s_minus, s_plus = one_sided_speeds(minus, plus, c_minus, c_plus, axis)
            assert np.all(s_minus <= -DELTA) and np.all(s_plus >= DELTA)
            for un, c in ((minus[1 + axis], c_minus), (plus[1 + axis], c_plus)):
                assert np.all(s_minus <= un - c) and np.all(s_plus >= un + c)


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
        # no jump, no anti-diffusion: the exact flux, bit for bit
        assert cu_flux(1.0, 1.0, 0.3, 0.3, -1.0, 1.0) == 0.3

    def test_antidiffusion_outside_bracket(self):
        # v_int = 2/3 lies outside [1, 2], so the oracle's anti-diffusion is
        # zero and the flux is the two-term flux without it (10/3 above)
        assert textbook_antidiffusion(1.0, 2.0, 3.0, 6.0, -1.0, 2.0) == 0.0
        diffusive = (2.0 * 3.0 + 1.0 * 6.0) / 3.0 - 2.0 / 3.0 * (2.0 - 1.0)
        assert cu_flux(1.0, 2.0, 3.0, 6.0, -1.0, 2.0) == pytest.approx(diffusive, rel=1e-14)

    def test_antidiffusion_hand_value(self):
        # s+- = +-1, v- = 0, v+ = 2, f identical: v_int = 1, minmod(1, 1) = 1,
        # so the flux is 0 - 1/2 (2 - 0 - 1) instead of the diffusive -1
        assert textbook_antidiffusion(0.0, 2.0, 0.0, 0.0, -1.0, 1.0) == 1.0
        assert cu_flux(0.0, 2.0, 0.0, 0.0, -1.0, 1.0) == -0.5

    def test_antidiffusion_bounded_by_jump(self):
        # the anti-diffusion lies between 0 and the jump, so the flux lies
        # between its values for dv = 0 and dv = v+ - v-
        rng = np.random.default_rng(9)
        vm, vp, fm, fp = rng.standard_normal((4, 200))
        sm = -0.1 - rng.random(200)
        sp = 0.1 + rng.random(200)
        got = cu_flux(vm, vp, fm, fp, sm, sp)
        central = (sp * fm - sm * fp) / (sp - sm)
        diffusive = central + sp * sm / (sp - sm) * (vp - vm)
        slack = 1e-14 * (np.abs(fm) + np.abs(fp) + np.maximum(sp, -sm) * (np.abs(vm) + np.abs(vp)))
        assert np.all(got >= np.minimum(central, diffusive) - slack)
        assert np.all(got <= np.maximum(central, diffusive) + slack)
        dv = textbook_antidiffusion(vm, vp, fm, fp, sm, sp)
        jump = vp - vm
        assert np.all(dv * jump >= 0.0) and np.all(np.abs(dv) <= np.abs(jump) + 1e-15)


def textbook_antidiffusion(v_minus, v_plus, f_minus, f_plus, s_minus, s_plus):
    """Kurganov & Lin's anti-diffusion dv: the minmod of the jumps from the
    intermediate state v_int to the two one-sided states, written out."""
    v_int = (s_plus * v_plus - s_minus * v_minus - (f_plus - f_minus)) / (s_plus - s_minus)
    left, right = v_int - v_minus, v_plus - v_int
    same_sign = np.sign(left) == np.sign(right)
    return np.where(same_sign, np.sign(left) * np.minimum(np.abs(left), np.abs(right)), 0.0)


def textbook_cu_flux(v_minus, v_plus, f_minus, f_plus, s_minus, s_plus):
    """The central-upwind flux in its two-term textbook form."""
    dv = textbook_antidiffusion(v_minus, v_plus, f_minus, f_plus, s_minus, s_plus)
    width = s_plus - s_minus
    return (s_plus * f_minus - s_minus * f_plus) / width + s_plus * s_minus / width * (v_plus - v_minus - dv)


def draw_flux_arguments(data, shape):
    """Traces and fluxes of ``shape`` in [-1e3, 1e3] and one-sided speeds of
    its shape without the component axis, from +-DELTA to +-1e150."""
    speeds = shape[1:] if len(shape) == 3 else shape

    def draw(shape, lo, hi):  # the bounds themselves are drawn often
        return data.draw(hnp.arrays(np.float64, shape, elements=st.floats(lo, hi) | st.sampled_from((lo, hi))))

    return [draw(shape, -1e3, 1e3) for _ in range(4)] + [draw(speeds, -1e150, -DELTA), draw(speeds, DELTA, 1e150)]


@pytest.mark.parametrize("shape", [(), (7,), (4, 5, 3)])
@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@hypothesis.seed(20261020)
@given(data=st.data())
def test_cu_flux_matches_the_textbook_flux(shape, data):
    v_minus, v_plus, f_minus, f_plus, s_minus, s_plus = args = draw_flux_arguments(data, shape)
    expected = textbook_cu_flux(*args)
    got = cu_flux(*args)
    scale = np.abs(f_minus) + np.abs(f_plus) + np.maximum(s_plus, -s_minus) * (np.abs(v_minus) + np.abs(v_plus))
    assert np.all(np.abs(got - expected) <= 1e-14 * scale)


@pytest.mark.parametrize("shape", [(), (7,), (4, 5, 3)])
@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@hypothesis.seed(20261019)
@given(data=st.data())
def test_in_place_kernels_leave_their_arguments_unchanged(shape, data):
    # cu_flux works in place, on scratch arrays of its own or on the
    # caller's, of which the fourth may be f_plus
    args = draw_flux_arguments(data, shape)
    before = [a.tobytes() for a in args]
    expected = cu_flux(*args).tobytes() if shape else cu_flux(*args)
    assert [a.tobytes() for a in args] == before
    if shape:
        f_plus = args[3]
        work = [np.empty(shape) for _ in range(3)] + [f_plus] + [np.empty(args[4].shape) for _ in range(3)]
        assert cu_flux(*args, work).tobytes() == expected
        assert [a.tobytes() for i, a in enumerate(args) if i != 3] == before[:3] + before[4:]


def test_speed_differences_are_inverted_once_and_shared():
    # cu_flux leaves v+ - v-, a = s+/(s+ - s-) and b = s-/(s+ - s-) in its
    # work arrays, and nonstiff_rate keeps a and b in its first two
    # one-component buffers for the psi weights
    rng = np.random.default_rng(30)
    v_minus, v_plus, f_minus, f_plus = rng.standard_normal((4, 4, 9, 5))
    s_minus, s_plus = -0.1 - rng.random((9, 5)), 0.1 + rng.random((9, 5))

    def weights(s_minus, s_plus):
        inv = np.divide(1.0, s_plus - s_minus)
        return (s_plus * inv).tobytes(), (s_minus * inv).tobytes()

    work = [np.empty((4, 9, 5)) for _ in range(4)] + [np.empty((9, 5)) for _ in range(3)]
    cu_flux(v_minus, v_plus, f_minus, f_plus, s_minus, s_plus, work)
    assert work[0].tobytes() == (v_plus - v_minus).tobytes()
    assert (work[4].tobytes(), work[5].tobytes()) == weights(s_minus, s_plus)

    grid = GridSpec(12, 7, 0.0, 1.0, 0.0, 0.8)
    V = random_state(grid, rng)
    cfg = SolverConfig(epsilon=0.3)
    s = split_scalars(V, grid, cfg.epsilon)
    for axis in (AXIS_X, AXIS_Y):
        minus, plus = traces_along(V, grid, axis, cfg.theta)
        speeds = [modified_sound_speed(t[0], t[3], s, cfg.epsilon, cfg.gamma) for t in (minus, plus)]
        s_minus, s_plus = one_sided_speeds(minus, plus, *speeds, axis)
        work = [np.empty(minus.size) for _ in range(5)], [np.empty(minus[0].size) for _ in range(5)]
        Vbar = along(V.array[grid.interior], axis)
        nonstiff_rate(Vbar, (minus, plus), s, cfg, axis, grid.spacing(axis), work)
        assert (work[1][0].tobytes(), work[1][1].tobytes()) == weights(s_minus, s_plus), axis


def test_folded_constants_stay_finite_at_the_smallest_eps():
    # At eps 1e-154, 1/eps^2 is 1e308: a kernel that took 1/eps^2 inside a
    # square root or into a product with an O(1) factor before dividing
    # would overflow where the direct formulas below stay finite.
    from allmach.nonstiff import _bmat_apply

    eps, gamma = 1e-154, 1.4
    cfg = SolverConfig(epsilon=eps, gamma=gamma)
    rng = np.random.default_rng(154)
    rho, u, v, p = 0.5 + 1.5 * rng.random((4, 400))
    rho[:2], p[:2] = (0.5, 2.0), (2.0, 0.5)
    s = SplitScalars(rho_max=float(rho.max()), p_min=float(p.min()))
    Vs, w = np.stack((rho, u, v, p)), rng.uniform(-1.0, 1.0, (4, 400))
    with np.errstate(over="ignore"):  # an overflow shows as inf below
        cases = [
            (modified_sound_speed(rho, p, s, eps, gamma),
             np.sqrt((s.rho_max - rho) * gamma * (p - s.p_min) / (rho * s.rho_max)) / eps),
            (sound_speed(rho, p, cfg), np.sqrt(gamma * p / rho) / eps),
            (_bmat_apply(Vs, w, s, cfg, AXIS_X)[1], (rho - s.rho_max) / (eps**2 * rho * s.rho_max) * w[3]),
            # p / eps^2 itself overflows for p above 1.8
            (flux_from_primitive(Vs, prim_to_cons(Vs, cfg), cfg, AXIS_X)[1], rho * u * u + p / eps**2),
        ]
    for i, (got, direct) in enumerate(cases):
        finite = np.isfinite(direct)
        assert finite.all() if i < 3 else finite.any() and not finite.all(), i
        assert np.isfinite(got[finite]).all(), i
        assert np.allclose(got[finite], direct[finite], rtol=1e-13, atol=0.0), i


class TestNonconservativeTerms:
    def test_constant_state_vanishes(self):
        # the same uniform moving state as test_conservative's flux check
        grid = GridSpec(6, 5, 0.0, 1.0, 0.0, 2.0)
        V = uniform(grid, 1.2, 0.5, -0.3, 1.5)
        cfg = SolverConfig(epsilon=0.5, gamma=1.4)
        s = split_scalars(V, grid, cfg.epsilon)
        for axis in (AXIS_X, AXIS_Y):
            Vbar = along(V.array[grid.interior], axis)
            rate = nonstiff_rate(Vbar, traces_along(V, grid, axis, cfg.theta), s, cfg, axis, grid.spacing(axis))
            assert rate.shape == Vbar.shape
            assert np.all(rate == 0.0)

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
        R, _, _ = stage_operators(uniform(grid, rho=1.2, p=0.9), grid, SolverConfig(epsilon=0.4, gamma=1.4))
        assert np.allclose(R, 0.0, atol=1e-14)

    def test_second_order_consistency(self):
        cfg_kwargs = dict(epsilon=1.0, gamma=1.4)
        errors = []
        for n in (64, 128):
            grid = GridSpec(n, n, 0.0, 1.0, 0.0, 1.0)
            cfg = SolverConfig(**cfg_kwargs)
            R, _, s = stage_operators(smooth_field(grid), grid, cfg)
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
            V = uniform(grid, rho=2.0 + 0.5 * np.sin(2 * np.pi * X), u=c)
            R, _, _ = stage_operators(V, grid, SolverConfig(epsilon=1.0, gamma=1.4))
            exact = c * np.pi * np.cos(2 * np.pi * X)
            errors.append(np.abs(R[0] - exact).mean())
        assert 3.2 <= errors[0] / errors[1] <= 4.8

    def test_rigid_translation_pressure_row(self):
        # uniform velocity, constant pressure: the analytic p-row vanishes and
        # the discrete one does too (constant fields have zero jumps), which
        # is within the O(dx^2) the contract asks for
        grid = GridSpec(32, 32, 0.0, 1.0, 0.0, 1.0)
        X, Y = grid.cell_centers()
        rho = 1.0 + 0.2 * np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y)
        V = uniform(grid, rho, 1.0, 1.0, 2.0)
        R, _, _ = stage_operators(V, grid, SolverConfig(epsilon=1.0, gamma=1.4))
        assert np.abs(R[3]).max() <= 1e-13
        # the velocity rows see only the density-weighted pressure gradient,
        # which also vanishes here
        assert np.abs(R[1]).max() <= 1e-13
