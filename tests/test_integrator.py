import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import allmach.integrator as integrator
from allmach.benchmarks import CASES, run_case
from allmach.conservative import flux_divergence
from allmach.elliptic import HelmholtzSystem, solve_helmholtz
from allmach.errors import NoConvergence, NonPhysicalState
from allmach.grid import AXIS_X, AXIS_Y, OUTFLOW, PERIODIC, GridSpec, along, fill_ghosts
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
from allmach.reconstruction import limited_traces
from allmach.state import (
    ConservativeField,
    PrimitiveField,
    SolverConfig,
    cons_to_prim,
    prim_to_cons,
)


def uniform_state(grid, cfg, rho=1.0, u=0.0, v=0.0, p=1.0):
    V = PrimitiveField.zeros(grid)
    V.rho[:] = rho
    V.u[:] = u
    V.v[:] = v
    V.p[:] = p
    return DualState.from_primitive(V, grid, cfg)


class TestTimeStep:
    def test_hand_value(self):
        # dx=dy=0.1, max(|u|+c)=2, max(|v|+c)=4, K=0.475: c is zeroed by
        # choosing scalars with rho at its recorded maximum
        grid = GridSpec(10, 10, 0.0, 1.0, 0.0, 1.0)
        V = PrimitiveField.zeros(grid)
        V.rho[:] = 1.0
        V.p[:] = 1.0
        V.u[grid.interior] = np.linspace(0.0, 2.0, 10)[:, None]
        V.v[grid.interior] = np.linspace(0.0, 4.0, 10)[:, None]
        cfg = SolverConfig(epsilon=1.0, gamma=1.4, k_cfl=0.475)
        dt = compute_dt(V, SplitScalars(rho_max=1.0, p_min=0.5), grid, cfg)
        expected = 0.475 * min(0.1 / 2.0, 0.1 / 4.0)
        assert expected == pytest.approx(0.011875, rel=1e-14)
        assert dt == pytest.approx(expected, rel=1e-14)

    def test_hand_value_with_unequal_spacing(self):
        # dx=0.1, dy=0.4, max(|u|+c)=2, max(|v|+c)=4: the x limit 0.1/2 binds,
        # where a swapped spacing or axis would give 0.1/4
        grid = GridSpec(10, 5, 0.0, 1.0, 0.0, 2.0)
        V = PrimitiveField.zeros(grid)
        V.rho[:] = 1.0
        V.p[:] = 1.0
        V.u[grid.interior] = np.linspace(0.0, 2.0, 10)[:, None]
        V.v[grid.interior] = np.linspace(0.0, 4.0, 5)[None, :]
        cfg = SolverConfig(epsilon=1.0, gamma=1.4, k_cfl=0.475)
        dt = compute_dt(V, SplitScalars(rho_max=1.0, p_min=0.5), grid, cfg)
        assert dt == pytest.approx(0.475 * 0.1 / 2.0, rel=1e-14)

    def test_static_state_speed_is_floored_by_delta(self):
        grid = GridSpec(10, 10, 0.0, 1.0, 0.0, 1.0)
        V = PrimitiveField.zeros(grid)
        V.rho[:] = 1.0
        V.p[:] = 1.0
        cfg = SolverConfig(epsilon=1.0, gamma=1.4)
        s = SplitScalars(rho_max=1.0, p_min=1.0)  # c = 0, so the floor rules
        dt_free = compute_dt(V, s, grid, cfg)
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
        V = PrimitiveField(np.stack((
            0.5 + rng.random(grid.shape),
            rng.standard_normal(grid.shape),
            rng.standard_normal(grid.shape),
            0.5 + rng.random(grid.shape),
        )))
        fill_ghosts(V, grid)
        W = PrimitiveField(np.stack((
            0.5 + rng.random(grid.shape),
            rng.standard_normal(grid.shape),
            rng.standard_normal(grid.shape),
            0.5 + rng.random(grid.shape),
        )))
        fill_ghosts(W, grid)
        return V, fill_ghosts(ConservativeField(prim_to_cons(W.array, cfg)), grid)

    def test_unit_mach_takes_conservative_branch_exactly(self):
        grid = GridSpec(6, 6, 0.0, 1.0, 0.0, 1.0)
        cfg = SolverConfig(epsilon=1.0, gamma=1.4)
        V_raw, U = self.make_pair(grid, cfg)
        out = post_process(V_raw, U, grid, cfg)
        want = cons_to_prim(U, cfg)
        for a, b in zip(out.components(), want.components()):
            assert np.array_equal(a, b)

    def test_vanishing_mach_keeps_primitive_branch_exactly(self):
        grid = GridSpec(6, 6, 0.0, 1.0, 0.0, 1.0)
        cfg = SolverConfig(epsilon=1e-6, gamma=1.4)
        V_raw, U = self.make_pair(grid, cfg)
        assert switching_weight(cfg.epsilon) == 1.0  # 1 - 1e-84 rounds to 1
        out = post_process(V_raw, U, grid, cfg)
        for a, b in zip(out.components(), V_raw.components()):
            assert np.array_equal(a, b)

    def test_agreeing_branches_are_a_fixed_point(self):
        grid = GridSpec(6, 6, 0.0, 1.0, 0.0, 1.0)
        cfg = SolverConfig(epsilon=0.3, gamma=1.4)  # genuinely blended regime
        rng = np.random.default_rng(4)
        V = PrimitiveField(np.stack((
            0.5 + rng.random(grid.shape),
            rng.standard_normal(grid.shape),
            rng.standard_normal(grid.shape),
            0.5 + rng.random(grid.shape),
        )))
        fill_ghosts(V, grid)
        U = fill_ghosts(ConservativeField(prim_to_cons(V.array, cfg)), grid)
        out = post_process(V, U, grid, cfg)
        for a, b in zip(out.components(), V.components()):
            assert np.allclose(a, b, rtol=1e-13)

    def test_conservative_copy_untouched(self):
        grid = GridSpec(6, 6, 0.0, 1.0, 0.0, 1.0)
        cfg = SolverConfig(epsilon=0.3, gamma=1.4)
        V_raw, U = self.make_pair(grid, cfg)
        before = [a.copy() for a in U.components()]
        V_before = V_raw.array.copy()
        out = post_process(V_raw, U, grid, cfg)
        for a, b in zip(U.components(), before):
            assert np.array_equal(a, b)
        assert V_raw.array.tobytes() == V_before.tobytes()
        # the in-place blend keeps the two-product form's rounding
        s = switching_weight(cfg.epsilon)
        want = (1.0 - s) * cons_to_prim(U, cfg).array + s * V_raw.array
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
        state = uniform_state(grid, cfg, rho=1.1, p=2.3)
        new, rep = si_dec_step(state, grid, cfg, dt=0.01)
        assert np.abs(new.V.rho - 1.1).max() < 1e-13
        assert np.abs(new.V.p - 2.3).max() < 1e-13
        assert np.abs(new.V.u).max() < 1e-13
        assert new.t == pytest.approx(0.01)

    @pytest.mark.parametrize("eps, order, built", [(1e-3, 2, 2), (0.3, 2, 2), (1e-3, 1, 1)])
    def test_conservative_copies_built_per_step(self, monkeypatch, eps, order, built):
        # every stage advances U, whatever the blend weight
        made = []

        class Counted(ConservativeField):
            def __init__(self, array):
                made.append(1)
                super().__init__(array)

        grid, cfg, state = CASES["gresho"].start(eps, 16, 16, order=order)
        monkeypatch.setattr(integrator, "ConservativeField", Counted)
        new, _ = si_dec_step(state, grid, cfg)
        assert len(made) == built
        assert isinstance(new.U, Counted)

    def test_first_order_mode_runs_single_stage(self):
        grid, cfg1, s1 = CASES["gresho"].start(0.1, 16, 16, order=1)
        _, cfg2, s2 = CASES["gresho"].start(0.1, 16, 16, order=2)
        n1, rep1 = si_dec_step(s1, grid, cfg1, dt=1e-3)
        n2, rep2 = si_dec_step(s2, grid, cfg2, dt=1e-3)
        assert len(rep1.solve_residuals) == 1
        assert len(rep2.solve_residuals) == 2
        assert not np.allclose(n1.V.u, n2.V.u)

    def test_oversized_step_trips_definiteness_guard(self):
        # explosion at unit Mach: the shifted pressure operator loses
        # definiteness when dt far exceeds the CFL step
        grid, cfg, state = CASES["explosion"].start(1.0, 16, 16)
        with pytest.raises(NoConvergence):
            for _ in range(10):
                state, _ = si_dec_step(state, grid, cfg, dt=0.5)

    def test_step_holds_few_full_grid_arrays(self):
        # tracemalloc peak of one order-2 step after a warm-up step, in state
        # arrays: the two new solution copies, the step's one operator pair,
        # and the transients of each stage
        n = 128
        grid, cfg, state = CASES["explosion"].start(0.9, n, n, order=2)
        state, _ = si_dec_step(state, grid, cfg)
        unit = 4 * (n + 4) ** 2 * 8
        assert state.V.array.nbytes == unit
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            si_dec_step(state, grid, cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 6.5 * unit, peak / unit

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
        state = uniform_state(grid, cfg)
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
        state = uniform_state(grid, cfg)
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
        sums0 = np.array([a[core].sum() for a in state.U.components()])
        scale = np.array([np.abs(a[core]).sum() for a in state.U.components()])
        for _ in range(20):
            state, _ = si_dec_step(state, grid, cfg)
        sums1 = np.array([a[core].sum() for a in state.U.components()])
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

    R, D = np.zeros((2, 4, grid.nx, grid.ny))
    n = build_stage(Vn, grid, cfg, R, D)
    dt = compute_dt(Vn, n, grid, cfg)
    star, res1 = stage(R, D, n, dt)
    if cfg.order == 1:
        return star, dt, (res1,)

    # the corrector's stage adds into the predictor's operator pair
    s = build_stage(star.V, grid, cfg, R, D)
    Lnn, Lss = stiff(n, Vn), stiff(s, star.V)
    E = 0.5 * (R + (Lnn - Lss))
    new, res2 = stage(E, 0.5 * D, s, dt)
    return new, dt, (res1, res2)


class TestReferenceStep:
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("name,eps,n", [
        ("explosion", 0.9, 24),
        ("double_shear", 0.3, 32),
        ("gresho", 1e-3, 32),
        ("gresho", 1e-6, 24),
    ])
    def test_step_matches_stage_by_stage_reference(self, name, eps, n, order):
        self.check_steps(*CASES[name].start(eps, n, n, order=order))

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("eps", [1e-3, 0.3])  # weight 1, blended
    def test_non_square_grid_with_unequal_spacing(self, eps, order):
        # a smooth state, periodic along x and outflow along y, dx != dy
        grid = GridSpec(12, 9, 0.0, 1.0, 0.0, 2.0, bc_x=PERIODIC, bc_y=OUTFLOW)
        X, Y = grid.cell_centers()
        V = PrimitiveField.zeros(grid)
        core = grid.interior
        V.rho[core] = 1.0 + 0.2 * np.sin(2.0 * np.pi * X) * np.cos(0.5 * np.pi * Y)
        V.u[core] = 0.3 + 0.2 * np.cos(2.0 * np.pi * X) * np.sin(0.5 * np.pi * Y)
        V.v[core] = -0.1 + 0.3 * np.sin(2.0 * np.pi * X) * Y * (2.0 - Y)
        V.p[core] = 1.0 + eps**2 * np.cos(2.0 * np.pi * X) * np.cos(0.5 * np.pi * Y)
        cfg = SolverConfig(epsilon=eps, order=order)
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
EXPLOSION_STAGE_DIGEST = "761dec61b2a9e45e6c07ac5ca061438c02b9229f3cdc2289eff162793b776580"
RANDOM_STAGE_DIGEST = "181b8d2cb1d46533408ebebb053ec27c870ff4149ee9c1e67602a07dace85437"


def stage_digest(Vf, grid, cfg):
    """sha256 over one stage's explicit operators and split scalars."""
    R, D = np.zeros((2, 4, grid.nx, grid.ny))
    s = build_stage(Vf, grid, cfg, R, D)
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
        fill_ghosts(V, grid)
        assert stage_digest(V, grid, SolverConfig(epsilon=0.3)) == RANDOM_STAGE_DIGEST


def whole_grid_operators(Vf, grid, cfg):
    """Reference for build_stage: each axis's kernels run once on the whole
    grid, the cell averages sliced from the interior rather than the block."""
    g = grid.ghost
    scalars = split_scalars(Vf, grid, cfg.epsilon)
    Vbar = Vf.array[grid.interior]
    R, D = np.zeros_like(Vbar), np.zeros_like(Vbar)
    for axis in (AXIS_X, AXIS_Y):
        h = grid.spacing(axis)
        traces = limited_traces(along(Vf.array, axis)[..., g:-g], h, cfg.theta, axis, 0)
        along(R, axis)[...] += nonstiff_rate(along(Vbar, axis), traces, scalars, cfg, axis, h)
        along(D, axis)[...] -= flux_divergence(traces, cfg, axis, h)
    return R, D


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
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
    fill_ghosts(V, grid)
    cfg = SolverConfig(epsilon=eps, theta=theta)
    R, D = whole_grid_operators(V, grid, cfg)
    for width in (1, odd, 32, max(nx, ny) + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrator, "STRIP", width)
            Rs, Ds = np.zeros((2, 4, nx, ny))
            build_stage(V, grid, cfg, Rs, Ds)
        assert np.array_equal(Rs, R), width
        assert np.array_equal(Ds, D), width
