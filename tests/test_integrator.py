import ctypes
import hashlib
import tracemalloc

import numpy as np
import pytest
import hypothesis
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import allmach.integrator as integrator
from allmach.benchmarks import CASES, run_case
from allmach.conservative import flux_divergence
from allmach.elliptic import HelmholtzSystem, solve_helmholtz
from allmach.errors import NoConvergence, NonPhysicalState
from allmach.grid import AXIS_X, AXIS_Y, OUTFLOW, PERIODIC, GridSpec, along, fill_ghost_array
from allmach.integrator import (
    EPS0,
    EPS1,
    DualState,
    RunReport,
    build_stage,
    compute_dt,
    post_process,
    run,
    si_dec_step,
    switching_weight,
)
from allmach.nonstiff import DELTA, SplitScalars, nonstiff_rate, split_scalars
from allmach.state import ConservativeField, PrimitiveField, SolverConfig, prim_to_cons

from builders import primitive_of, random_state, stage_operators, traces_along, uniform


def traced_peak(call):
    """Bytes by which tracemalloc's peak during ``call()`` exceeds the
    memory traced before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestTimeStep:
    def test_hand_value(self):
        # dx=dy=0.1, max(|u|+c)=2, max(|v|+c)=4, K=0.475: c is zeroed by
        # choosing scalars with rho at its recorded maximum
        grid = GridSpec(10, 10, 0.0, 1.0, 0.0, 1.0)
        V = uniform(grid, u=np.linspace(0.0, 2.0, 10)[:, None], v=np.linspace(0.0, 4.0, 10)[:, None])
        cfg = SolverConfig(epsilon=1.0, gamma=1.4, k_cfl=0.475)
        dt = compute_dt(V, SplitScalars(rho_max=1.0, p_min=0.5), grid, cfg)
        expected = 0.475 * min(0.1 / 2.0, 0.1 / 4.0)
        assert expected == pytest.approx(0.011875, rel=1e-14)
        assert dt == pytest.approx(expected, rel=1e-14)

    def test_hand_value_with_unequal_spacing(self):
        # dx=0.1, dy=0.4, max(|u|+c)=2, max(|v|+c)=4: the x limit 0.1/2 binds,
        # where a swapped spacing or axis would give 0.1/4
        grid = GridSpec(10, 5, 0.0, 1.0, 0.0, 2.0)
        V = uniform(grid, u=np.linspace(0.0, 2.0, 10)[:, None], v=np.linspace(0.0, 4.0, 5)[None, :])
        cfg = SolverConfig(epsilon=1.0, gamma=1.4, k_cfl=0.475)
        dt = compute_dt(V, SplitScalars(rho_max=1.0, p_min=0.5), grid, cfg)
        assert dt == pytest.approx(0.475 * 0.1 / 2.0, rel=1e-14)

    def test_static_state_speed_is_floored_by_delta(self):
        grid = GridSpec(10, 10, 0.0, 1.0, 0.0, 1.0)
        cfg = SolverConfig(epsilon=1.0, gamma=1.4)
        s = SplitScalars(rho_max=1.0, p_min=1.0)  # c = 0, so the floor rules
        dt_free = compute_dt(uniform(grid), s, grid, cfg)
        assert dt_free == pytest.approx(0.475 * 0.1 / DELTA, rel=1e-12)


class TestSwitchingWeight:
    def test_unit_mach_gives_conservative_branch(self):
        assert switching_weight(1.0) == 0.0

    def test_low_branch_hand_value(self):
        assert switching_weight(0.15) == pytest.approx(1.0 - 0.15**14, rel=0, abs=1e-16)

    def test_high_branch_hand_value(self):
        assert switching_weight(0.5) == pytest.approx(0.5**14, rel=1e-13)
        assert switching_weight(0.5) == pytest.approx(6.103515625e-5, rel=1e-12)

    @pytest.mark.parametrize("eps, expected", [(0.2, 0.9592214379471374), (0.3, 0.5701199608224566)])
    def test_band_hand_value(self, eps, expected):
        # s = ((eps - EPS0) / (EPS1 - EPS0))^2, bump exp(1 - 1/(1 - s)) between
        # the outer branches' edge values 1 - 0.15^14 and 0.6^14
        s = ((eps - 0.15) / (0.4 - 0.15)) ** 2
        lo = 0.6**14
        by_hand = np.exp(1.0 - 1.0 / (1.0 - s)) * ((1.0 - 0.15**14) - lo) + lo
        assert by_hand == pytest.approx(expected, rel=1e-12)
        assert switching_weight(eps) == pytest.approx(expected, rel=1e-12)

    def test_continuity_at_branch_edges(self):
        for edge in (EPS0, EPS1):
            below = switching_weight(edge - 1e-9)
            above = switching_weight(edge + 1e-9)
            assert below == pytest.approx(above, abs=1e-6)

    def test_band_meets_the_outer_branches(self):
        inside_lo, inside_hi = float(np.nextafter(EPS0, 1.0)), float(np.nextafter(EPS1, 0.0))
        assert switching_weight(inside_lo) == pytest.approx(1.0 - EPS0**14, rel=0, abs=1e-12)
        assert switching_weight(inside_hi) == pytest.approx((1.0 - EPS1) ** 14, rel=0, abs=1e-12)

    def test_monotone_decreasing(self):
        eps = np.linspace(1e-3, 1.0, 200)
        vals = [switching_weight(float(e)) for e in eps]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            switching_weight(0.0)


class TestPostProcess:
    def make_pair(self, grid, cfg):
        rng = np.random.default_rng(13)
        V, W = random_state(grid, rng), random_state(grid, rng)
        return V, ConservativeField(fill_ghost_array(prim_to_cons(W.array, cfg), grid))

    def test_unit_mach_takes_conservative_branch_exactly(self):
        grid = GridSpec(6, 6, 0.0, 1.0, 0.0, 1.0)
        cfg = SolverConfig(epsilon=1.0, gamma=1.4)
        V_raw, U = self.make_pair(grid, cfg)
        U_before = U.array.copy()
        V_raw.array[:] = np.nan  # at weight 0 the primitive copy's values are not read
        out = post_process(V_raw, U, grid, cfg)
        assert out is V_raw  # the transform is written into V_raw's own buffer
        assert U.array.tobytes() == U_before.tobytes()
        assert out.array.tobytes() == primitive_of(U, cfg).array.tobytes()

    def test_vanishing_mach_keeps_primitive_branch_exactly(self):
        grid = GridSpec(6, 6, 0.0, 1.0, 0.0, 1.0)
        cfg = SolverConfig(epsilon=1e-6, gamma=1.4)
        V_raw, U = self.make_pair(grid, cfg)
        assert switching_weight(cfg.epsilon) == 1.0  # 1 - 1e-84 rounds to 1
        out = post_process(V_raw, U, grid, cfg)
        for a, b in zip(out.array, V_raw.array):
            assert np.array_equal(a, b)

    def test_agreeing_branches_are_a_fixed_point(self):
        grid = GridSpec(6, 6, 0.0, 1.0, 0.0, 1.0)
        cfg = SolverConfig(epsilon=0.3, gamma=1.4)  # genuinely blended regime
        V = random_state(grid, np.random.default_rng(4))
        U = ConservativeField(fill_ghost_array(prim_to_cons(V.array, cfg), grid))
        before = V.array.copy()  # the blend consumes V
        out = post_process(V, U, grid, cfg)
        for a, b in zip(out.array, before):
            assert np.allclose(a, b, rtol=1e-13)

    def test_conservative_copy_untouched(self):
        grid = GridSpec(6, 6, 0.0, 1.0, 0.0, 1.0)
        cfg = SolverConfig(epsilon=0.3, gamma=1.4)
        V_raw, U = self.make_pair(grid, cfg)
        U_before, V_before = ConservativeField(U.array.copy()), V_raw.array.copy()
        out = post_process(V_raw, U, grid, cfg)
        assert U.array.tobytes() == U_before.array.tobytes()
        assert out is V_raw  # blended in V_raw's own buffer
        # the in-place blend keeps the two-product form's rounding
        s = switching_weight(cfg.epsilon)
        want = (1.0 - s) * primitive_of(U_before, cfg).array + s * V_before
        assert out.array.tobytes() == want.tobytes()

    @pytest.mark.parametrize("eps", [0.3, 1.0])
    def test_conservative_copy_validated_where_it_counts(self, eps):
        grid = GridSpec(6, 6, 0.0, 1.0, 0.0, 1.0)
        cfg = SolverConfig(epsilon=eps, gamma=1.4)
        V_raw, U = self.make_pair(grid, cfg)
        U.E[grid.ghost + 2, grid.ghost + 3] = -1.0
        with pytest.raises(NonPhysicalState, match="non-positive internal energy"):
            post_process(V_raw, U, grid, cfg)

    def test_conservative_copy_unchecked_at_vanishing_mach(self):
        grid = GridSpec(6, 6, 0.0, 1.0, 0.0, 1.0)
        cfg = SolverConfig(epsilon=1e-6, gamma=1.4)
        V_raw, U = self.make_pair(grid, cfg)
        U.E[grid.ghost + 2, grid.ghost + 3] = -1.0
        assert post_process(V_raw, U, grid, cfg) is V_raw


class TestStep:
    @pytest.mark.parametrize("eps", [1.0, 0.3, 1e-2])
    def test_uniform_state_is_fixed_point(self, eps):
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0)
        cfg = SolverConfig(epsilon=eps, gamma=1.4)
        state = DualState.from_primitive(uniform(grid, rho=1.1, p=2.3), grid, cfg)
        new, rep = si_dec_step(state, grid, cfg, dt=0.01)
        assert np.abs(new.V.rho - 1.1).max() < 1e-13
        assert np.abs(new.V.p - 2.3).max() < 1e-13
        assert np.abs(new.V.u).max() < 1e-13
        assert new.t == pytest.approx(0.01)

    @pytest.mark.parametrize("eps", [1e-3, 0.3])
    def test_conservative_copies_built_per_step(self, monkeypatch, eps):
        # both stages advance U, whatever the blend weight
        made = []

        class Counted(ConservativeField):
            def __init__(self, array):
                made.append(1)
                super().__init__(array)

        grid, cfg, state = CASES["gresho"].start(eps, 16, 16)
        monkeypatch.setattr(integrator, "ConservativeField", Counted)
        new, _ = si_dec_step(state, grid, cfg)
        assert len(made) == 2
        assert isinstance(new.U, Counted)

    def test_oversized_step_trips_definiteness_guard(self):
        # explosion at unit Mach: the shifted pressure operator loses
        # definiteness when dt far exceeds the CFL step
        grid, cfg, state = CASES["explosion"].start(1.0, 16, 16)
        with pytest.raises(NoConvergence):
            for _ in range(10):
                state, _ = si_dec_step(state, grid, cfg, dt=0.5)

    def test_step_holds_few_full_grid_arrays(self):
        # tracemalloc peak of one step after a warm-up step, in state arrays:
        # the two new solution copies, the step's one operator pair, and the
        # transients of each stage; at 128^2 measured 5.11, where the
        # corrector's strip workspace sets the peak.  At unit Mach the blend
        # writes the transform of U into the stage's primitive buffer, so
        # 200^2 at eps 1 holds the peak of eps 0.9, measured 4.45
        for eps, n, bound in ((0.9, 128, 5.36), (1.0, 200, 4.70)):
            unit = 4 * (n + 4) ** 2 * 8
            grid, cfg, state = CASES["explosion"].start(eps, n, n)
            state, _ = si_dec_step(state, grid, cfg)
            assert state.V.array.nbytes == unit
            peak = traced_peak(lambda: si_dec_step(state, grid, cfg))
            assert peak <= bound * unit, (eps, n, peak / unit)

    def test_blowup_raises(self):
        # advective blow-up with a positive shift: density goes negative
        grid, cfg, state = CASES["gresho"].start(0.3, 16, 16)
        with pytest.raises(NonPhysicalState):
            for _ in range(10):
                state, _ = si_dec_step(state, grid, cfg, dt=0.5)


class TestRun:
    def test_zero_interval_is_identity(self):
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0)
        cfg = SolverConfig(epsilon=0.5, gamma=1.4)
        state = DualState.from_primitive(uniform(grid), grid, cfg)
        out, report = run(state, grid, cfg, t_final=0.0)
        assert report.steps == 0 and out is state

    def test_final_time_hit_exactly(self):
        grid, cfg, state = CASES["gresho"].start(0.1, 16, 16)
        out, report = run(state, grid, cfg, t_final=0.05)
        assert out.t == pytest.approx(0.05, abs=1e-13)

    def test_cfl_step_is_clipped_to_the_final_time(self):
        # eps^4-shifted split scalars give a static state a CFL step of about
        # 4e7, so the whole interval is one clipped step
        grid = GridSpec(10, 10, 0.0, 1.0, 0.0, 1.0)
        cfg = SolverConfig(epsilon=1e-3, gamma=1.4)
        state = DualState.from_primitive(uniform(grid), grid, cfg)
        assert compute_dt(state.V, split_scalars(state.V, grid, 1e-3), grid, cfg) > 1e7
        out, report = run(state, grid, cfg, t_final=0.5)
        assert [r.dt for r in report.reports] == [0.5]
        assert out.t == 0.5

    def test_dt_override_then_cfl(self):
        grid, cfg, state = CASES["gresho"].start(0.1, 16, 16, dt_override=(3, 1e-4))
        out, report = run(state, grid, cfg, t_final=0.02)
        dts = [r.dt for r in report.reports]
        assert dts[:3] == pytest.approx([1e-4, 1e-4, 1e-4])
        assert dts[3] > 1e-3

    def test_failed_cfl_step_is_retried_at_half_the_step(self):
        # the explosion at eps=0.3 has no hand-tuned start: its first CFL step
        # fails and is taken again at half the step
        grid, state, report, _ = run_case(CASES["explosion"], 0.3, 24, 24)
        assert state.t == pytest.approx(0.08, abs=1e-13)
        assert report.steps == 10 and report.rejections == 1
        V = state.V.array[grid.interior]
        assert np.abs(V[[0, 2, 1, 3]].swapaxes(1, 2) - V).max() <= 1e-14

    @pytest.mark.parametrize("error", [NonPhysicalState, NoConvergence])
    def test_retries_are_bounded(self, monkeypatch, error):
        case = CASES["gresho"]
        grid, cfg, state = case.start(0.1, 16, 16)
        dt = min(case.initial_dt(16, 0.1), 0.05)
        attempts = []

        def failing(state, grid, cfg, dt):
            attempts.append(dt)
            raise error("boom")

        monkeypatch.setattr(integrator, "si_dec_step", failing)
        with pytest.raises(error, match="^step 0, t=0: boom$"):
            run(state, grid, cfg, t_final=0.05)
        assert attempts == [dt, dt / 2, dt / 4, dt / 8]

    def test_forced_step_is_not_retried(self, monkeypatch):
        grid, cfg, state = CASES["gresho"].start(0.1, 16, 16, dt_override=(3, 1e-3))
        attempts = []

        def failing(state, grid, cfg, dt):
            attempts.append(dt)
            raise NonPhysicalState("boom")

        monkeypatch.setattr(integrator, "si_dec_step", failing)
        with pytest.raises(NonPhysicalState, match="^step 0, t=0: boom$"):
            run(state, grid, cfg, t_final=0.05)
        assert attempts == [1e-3]

    def test_chained_runs_count_as_one_run(self, monkeypatch):
        # two runs on one report: the forced steps carry over from the first
        # into the second, whose errors name the step of the whole run
        grid, cfg, state = CASES["gresho"].start(0.1, 16, 16, dt_override=(4, 1e-3))
        report = RunReport()
        mid, _ = run(state, grid, cfg, t_final=0.0025, report=report)
        assert mid.t == pytest.approx(0.0025, abs=1e-15) and report.steps == 3

        def failing(state, grid, cfg, dt):
            raise NonPhysicalState("boom")

        with monkeypatch.context() as m:
            m.setattr(integrator, "si_dec_step", failing)
            with pytest.raises(NonPhysicalState, match="^step 3, t=0.0025: boom$"):
                run(mid, grid, cfg, t_final=0.02, report=report)
        assert report.steps == 3 and report.rejections == 0

        out, same = run(mid, grid, cfg, t_final=0.02, report=report)
        assert same is report and out.t == 0.02
        dts = [r.dt for r in report.reports]
        assert dts[:4] == pytest.approx([1e-3, 1e-3, 5e-4, 1e-3], rel=1e-12)
        assert dts[4] > 1e-3

    def test_callback_can_stop(self):
        grid, cfg, state = CASES["gresho"].start(0.1, 16, 16)
        out, report = run(state, grid, cfg, t_final=1.0, callback=lambda t, s, r: False)
        assert report.steps == 1

    def test_conservation_over_many_steps(self):
        grid, cfg, state = CASES["gresho"].start(1e-2, 24, 24)
        core = grid.interior
        sums0 = np.array([a[core].sum() for a in state.U.array])
        scale = np.array([np.abs(a[core]).sum() for a in state.U.array])
        for _ in range(20):
            state, _ = si_dec_step(state, grid, cfg)
        sums1 = np.array([a[core].sum() for a in state.U.array])
        assert np.all(np.abs(sums1 - sums0) <= 1e-12 * np.maximum(scale, 1.0))


def pad(interior, grid):
    """Ghost-padded copy of interior values (..., nx, ny): np.pad along x,
    then y, wrapping periodic axes and repeating the edge cell of outflow
    ones."""
    g = grid.ghost
    for axis, bc in ((-2, grid.bc_x), (-1, grid.bc_y)):
        width = [(0, 0)] * interior.ndim
        width[axis] = (g, g)
        interior = np.pad(interior, width, mode="wrap" if bc == PERIODIC else "edge")
    return interior


def ddx(a, grid):
    """Central difference along x of a padded field, on interior cells."""
    g, nx, ny = grid.ghost, grid.nx, grid.ny
    return (a[g + 1:g + 1 + nx, g:g + ny] - a[g - 1:g - 1 + nx, g:g + ny]) / (2.0 * grid.dx)


def ddy(a, grid):
    """Central difference along y of a padded field, on interior cells."""
    g, nx, ny = grid.ghost, grid.nx, grid.ny
    return (a[g:g + nx, g + 1:g + 1 + ny] - a[g:g + nx, g - 1:g - 1 + ny]) / (2.0 * grid.dy)


def reference_step(state, grid, cfg):
    """The two-stage step written out stage by stage (predictor, then
    trapezoidal corrector), with the stiff operator, the explicit prediction
    and its pressure right-hand side inline, and ghosts and differences of
    its own.  Oracle for ``si_dec_step`` to the last bit."""
    Vn, Un = state.V, state.U
    core = grid.interior
    eps2 = cfg.epsilon**2

    def stiff(scalars, Vf):
        L = np.zeros((4, grid.nx, grid.ny))
        L[1] = 1.0 / (eps2 * scalars.rho_max) * ddx(Vf.p, grid)
        L[2] = 1.0 / (eps2 * scalars.rho_max) * ddy(Vf.p, grid)
        L[3] = cfg.gamma * scalars.p_min * (ddx(Vf.u, grid) + ddy(Vf.v, grid))
        return L

    def stage(E, cons_rate, scalars, dt):
        # prediction V* = Vn - dt E, then p from
        # (I - sigma Lap_h) p = p* - dt gamma p_min div u*
        V = PrimitiveField(pad(Vn.array[core] - dt * E, grid))
        gp = cfg.gamma * scalars.p_min
        sigma = dt**2 * gp / (eps2 * scalars.rho_max)
        rhs = V.p[core] - dt * gp * (ddx(V.u, grid) + ddy(V.v, grid))
        p, _, res = solve_helmholtz(HelmholtzSystem(sigma, rhs, grid))
        V.p[core] = p
        p = pad(p, grid)
        coef = 1.0 / (eps2 * scalars.rho_max)
        V.u[core] -= dt * coef * ddx(p, grid)
        V.v[core] -= dt * coef * ddy(p, grid)
        U = ConservativeField(pad(Un.array[core] + dt * cons_rate, grid))
        V = PrimitiveField(pad(V.array[core], grid))
        return DualState(post_process(V, U, grid, cfg), U, state.t + dt), res

    R, D, n = stage_operators(Vn, grid, cfg)
    dt = compute_dt(Vn, n, grid, cfg)
    star, res1 = stage(R, D, n, dt)

    # the corrector's stage adds into the predictor's operator pair
    s = build_stage(star.V, grid, cfg, R, D)
    Lnn, Lss = stiff(n, Vn), stiff(s, star.V)
    E = 0.5 * (R + (Lnn - Lss))
    new, res2 = stage(E, 0.5 * D, s, dt)
    return new, dt, (res1, res2)


class TestReferenceStep:
    @pytest.mark.parametrize("name,eps,n", [
        ("explosion", 0.9, 24),
        ("double_shear", 0.3, 32),
        ("gresho", 1e-3, 32),
        ("gresho", 1e-6, 24),
    ])
    def test_step_matches_stage_by_stage_reference(self, name, eps, n):
        self.check_steps(*CASES[name].start(eps, n, n))

    @pytest.mark.parametrize("eps", [1e-3, 0.3])  # weight 1, blended
    def test_non_square_grid_with_unequal_spacing(self, eps):
        # a smooth state, periodic along x and outflow along y, dx != dy
        grid = GridSpec(12, 9, 0.0, 1.0, 0.0, 2.0, bc_x=PERIODIC, bc_y=OUTFLOW)
        X, Y = grid.cell_centers()
        V = uniform(
            grid,
            rho=1.0 + 0.2 * np.sin(2.0 * np.pi * X) * np.cos(0.5 * np.pi * Y),
            u=0.3 + 0.2 * np.cos(2.0 * np.pi * X) * np.sin(0.5 * np.pi * Y),
            v=-0.1 + 0.3 * np.sin(2.0 * np.pi * X) * Y * (2.0 - Y),
            p=1.0 + eps**2 * np.cos(2.0 * np.pi * X) * np.cos(0.5 * np.pi * Y),
        )
        cfg = SolverConfig(epsilon=eps)
        self.check_steps(grid, cfg, DualState.from_primitive(V, grid, cfg))

    @staticmethod
    def check_steps(grid, cfg, state):
        ref = state
        for _ in range(5):
            state, rep = si_dec_step(state, grid, cfg)
            ref, dt, residuals = reference_step(ref, grid, cfg)
            assert state.V.array.tobytes() == ref.V.array.tobytes()
            assert state.U.array.tobytes() == ref.U.array.tobytes()
            assert state.t == ref.t and rep.dt == dt
            assert rep.solve_residuals == residuals
            core = grid.interior
            div = ddx(ref.V.u, grid) + ddy(ref.V.v, grid)
            assert rep.max_divergence == float(np.abs(div).max())
            assert rep.pressure_fluctuation == float(ref.V.p[core].max() - ref.V.p[core].min())


# build_stage digests of the two inputs of TestStageGolden.
EXPLOSION_STAGE_DIGEST = "a60eaeb66a41a9d6869ce288e577558a8dd04ed6c70b7c4152ad2bab498afdd5"
RANDOM_STAGE_DIGEST = "63ed312a7e935265d4eeffca8f0aa8522be40248f3db96f0fe7dd0b7cf26527c"


def stage_digest(Vf, grid, cfg):
    """sha256 over one stage's explicit operators and split scalars."""
    R, D, s = stage_operators(Vf, grid, cfg)
    scalars = np.array([s.rho_max, s.p_min])
    h = hashlib.sha256()
    for a in (R, D, scalars):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.golden
class TestStageGolden:
    """The explicit stage pinned to the last bit.  Only elementwise IEEE
    operations and min/max reductions feed these digests (no step runs, so
    no pressure solve), so they do not depend on the BLAS build."""

    def test_explosion_outflow(self):
        grid, cfg, state = CASES["explosion"].start(0.9, 72, 72)
        assert stage_digest(state.V, grid, cfg) == EXPLOSION_STAGE_DIGEST

    def test_random_periodic_non_square(self):
        grid = GridSpec(70, 40, 0.0, 1.0, 0.0, 1.0)
        rng = np.random.default_rng(20261018)
        V = PrimitiveField.zeros(grid)
        core = grid.interior
        V.rho[core] = 0.5 + rng.random((70, 40))
        V.u[core] = rng.standard_normal((70, 40))
        V.v[core] = rng.standard_normal((70, 40))
        V.p[core] = 0.5 + rng.random((70, 40))
        fill_ghost_array(V.array, grid)
        assert stage_digest(V, grid, SolverConfig(epsilon=0.3)) == RANDOM_STAGE_DIGEST


def whole_grid_operators(Vf, grid, cfg):
    """Reference for build_stage: each axis's kernels run once on the whole
    grid, the cell averages sliced from the interior rather than the block."""
    scalars = split_scalars(Vf, grid, cfg.epsilon)
    Vbar = Vf.array[grid.interior]
    R, D = np.zeros_like(Vbar), np.zeros_like(Vbar)
    for axis in (AXIS_X, AXIS_Y):
        h = grid.spacing(axis)
        traces = traces_along(Vf, grid, axis, cfg.theta)
        along(R, axis)[...] += nonstiff_rate(along(Vbar, axis), traces, scalars, cfg, axis, h)
        along(D, axis)[...] -= flux_divergence(traces, cfg, axis, h)
    return R, D


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@hypothesis.seed(20261019)
@given(
    nx=st.integers(3, 40),
    extra=st.integers(1, 30),
    transpose=st.booleans(),
    bcs=st.tuples(st.sampled_from((PERIODIC, OUTFLOW)), st.sampled_from((PERIODIC, OUTFLOW))),
    theta=st.floats(1.0, 2.0),
    eps=st.sampled_from((1.0, 0.5, 0.1, 1e-3)),
    odd=st.integers(2, 31),
    seed=st.integers(0, 2**32 - 1),
)
def test_strips_do_not_change_the_stage(nx, extra, transpose, bcs, theta, eps, odd, seed):
    # Strip widths: one cell, one that divides neither grid size, the
    # default, and one wider than the grid.
    ny = nx + extra
    if transpose:
        nx, ny = ny, nx
    assume(nx % odd and ny % odd)
    grid = GridSpec(nx, ny, 0.0, 1.0, 0.0, 1.3, bc_x=bcs[0], bc_y=bcs[1])
    rng = np.random.default_rng(seed)
    V = PrimitiveField.zeros(grid)
    core = grid.interior
    V.rho[core] = 0.5 + rng.random((nx, ny))
    V.u[core] = rng.standard_normal((nx, ny))
    V.v[core] = rng.standard_normal((nx, ny))
    V.p[core] = 0.5 + rng.random((nx, ny))
    fill_ghost_array(V.array, grid)
    cfg = SolverConfig(epsilon=eps, theta=theta)
    R, D = whole_grid_operators(V, grid, cfg)
    for width in (1, odd, 32, max(nx, ny) + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrator, "STRIP", width)
            Rs, Ds = np.zeros((2, 4, nx, ny))
            build_stage(V, grid, cfg, Rs, Ds)
        assert np.array_equal(Rs, R), width
        assert np.array_equal(Ds, D), width


def test_strips_work_in_one_aligned_workspace(monkeypatch):
    # build_stage's own tracemalloc peak after a warm-up call, in state
    # arrays: its workspace for strips of 32 of the 200 cells (1.28) and
    # numpy's transients, measured 1.39 (1.59 when every strip array was
    # allocated anew)
    grid, cfg, state = CASES["explosion"].start(0.9, 200, 200)
    R, D, _ = stage_operators(state.V, grid, cfg)
    peak = traced_peak(lambda: build_stage(state.V, grid, cfg, R, D))
    assert peak <= 1.50 * state.V.array.nbytes, peak / state.V.array.nbytes

    # each kernel call's workspace buffers and the arrays it returns
    calls = {name: [] for name in ("limited_traces", "nonstiff_rate", "flux_divergence")}
    for name, record in calls.items():
        def recording(*args, kernel=getattr(integrator, name), record=record):
            record.append((args[-1], kernel(*args)))
            return record[-1][1]

        monkeypatch.setattr(integrator, name, recording)
    stage_operators(state.V, grid, cfg)

    def buffers(strips):  # the workspace buffers of the calls in slice ``strips``, by id
        found = {}
        for work, _ in calls["limited_traces"][strips]:
            found.update((id(b), b) for b in work)
        for name in ("nonstiff_rate", "flux_divergence"):
            for (quads, ones), _ in calls[name][strips]:
                found.update((id(b), b) for b in quads + ones)
        return found

    shared = buffers(slice(0, 1))
    assert buffers(slice(None)).keys() == shared.keys(), "a strip made a buffer of its own"
    assert all(b.ctypes.data % 64 == 0 for b in shared.values())

    def starts(strip):  # the strip's traces, rate and difference quotient
        minus, plus = calls["limited_traces"][strip][1]
        arrays = (minus, plus, calls["nonstiff_rate"][strip][1], calls["flux_divergence"][strip][1])
        assert all(a.flags.c_contiguous for a in arrays)
        return [a.ctypes.data for a in arrays]

    # along x, six strips of 32 cells and a last one of 8
    assert calls["limited_traces"][6][1][0].shape == (4, 201, 8)
    assert starts(6) == starts(0)
    assert set(starts(0)) <= {b.ctypes.data for b in shared.values()}


@pytest.mark.parametrize("fill", [np.nan, 1e300])
@pytest.mark.parametrize("case, eps, nx, ny", [
    ("explosion", 0.9, 72, 40),  # the last strips are 8 cells wide
    ("gresho", 1e-3, 40, 72),
    ("double_shear", 0.3, 33, 65),  # the last strips are one cell wide
    ("vortex", 1.0, 64, 64),
])
def test_poisoned_workspace_changes_nothing(monkeypatch, case, eps, nx, ny, fill):
    # np.empty hands the workspace whatever memory it gets, so a kernel that
    # reads a buffer before writing it shows only on poisoned buffers: NaN
    # spreads into the result, and 1e300 overflows into a RuntimeWarning
    def digest():
        grid, cfg, state = CASES[case].start(eps, nx, ny)
        R, D, _ = stage_operators(state.V, grid, cfg)
        new, report = si_dec_step(state, grid, cfg)
        h = hashlib.sha256()
        for a in (R, D, new.V.array, new.U.array, np.array([report.dt, *report.solve_residuals])):
            h.update(a.tobytes())
        return h.hexdigest()

    clean = digest()
    aligned = integrator._aligned

    def poisoned(size):
        buffer = aligned(size)
        buffer.fill(fill)
        return buffer

    monkeypatch.setattr(integrator, "_aligned", poisoned)
    assert digest() == clean


def test_aligned_buffers_start_on_a_cache_line():
    for size in range(1, 201):
        buffer = integrator._aligned(size)
        assert buffer.shape == (size,) and buffer.dtype == np.float64
        assert ctypes.addressof(ctypes.c_char.from_buffer(buffer)) % 64 == 0, size
