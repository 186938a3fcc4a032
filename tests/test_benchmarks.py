import math
from functools import partial

import numpy as np
import pytest

from allmach.benchmarks import (
    CASES,
    ErrorRow,
    ErrorTable,
    convergence_study,
    l1_error,
    local_mach,
    observed_rate,
    run_case,
    vorticity,
)
from allmach.errors import NonPhysicalState
from allmach.grid import GridSpec, fill_ghosts
from allmach.integrator import run
from allmach.state import PrimitiveField


class TestVortexCase:
    def test_density_dip_hand_value(self):
        fn = partial(CASES["vortex"].state_at, 1.0, 0.0)
        rho, u, v, p = fn(np.array([1.0]), np.array([0.0]))  # |x_r| = 1
        expected = 1.0 - math.exp(1.0 - 1.0) / (16.0 * math.pi**2)
        assert expected == pytest.approx(0.9936674260223539, rel=1e-12)
        assert rho[0] == pytest.approx(expected, rel=1e-14)

    def test_center_velocity(self):
        fn = partial(CASES["vortex"].state_at, 1.0, 0.0)
        rho, u, v, p = fn(np.array([0.0]), np.array([0.0]))
        assert u[0] == 1.0 and v[0] == 1.0

    def test_incompressible_limit(self):
        fn = partial(CASES["vortex"].state_at, 1e-8, 0.0)
        x = np.linspace(-3.0, 3.0, 7)
        rho, u, v, p = fn(x, x)
        assert np.allclose(rho, 1.0, atol=1e-12)
        assert np.allclose(u, 1.0, atol=1e-8)
        assert np.allclose(p, 1.0, atol=1e-12)

    def test_exact_solution_translates_periodically(self):
        case = CASES["vortex"]
        grid = case.make_grid(32, 32, 0.5)
        one_period = case.exact_state(grid, 0.5, 20.0)  # translates by the domain length
        initial = case.initial_state(grid, 0.5)
        for a, b in zip(one_period.components(), initial.components()):
            assert np.allclose(a, b, atol=1e-12)


class TestGreshoCase:
    def test_far_field_pressure_hand_value(self):
        fn = partial(CASES["gresho"].state_at, 0.1, 0.0)
        rho, u, v, p = fn(np.array([0.95]), np.array([0.5]))  # r = 0.45
        expected = 1.0 + 0.01 * (4.0 * math.log(2.0) - 2.0)
        assert expected == pytest.approx(1.0077258872223978, rel=1e-12)
        assert p[0] == pytest.approx(expected, rel=1e-14)

    def test_pressure_continuous_at_inner_ring(self):
        eps = 0.3
        inner = 1.0 + 12.5 * eps**2 * 0.2**2
        outer = 1.0 + eps**2 * (4.0 * math.log(5.0 * 0.2) + 4.0 - 20.0 * 0.2 + 12.5 * 0.2**2)
        assert inner == pytest.approx(1.0 + 0.5 * eps**2, rel=1e-14)
        assert outer == pytest.approx(inner, rel=1e-14)

    def test_peak_speed_at_inner_ring(self):
        fn = partial(CASES["gresho"].state_at, 0.1, 0.0)
        rho, u, v, p = fn(np.array([0.7]), np.array([0.5]))  # r = 0.2
        assert math.hypot(u[0], v[0]) == pytest.approx(1.0, rel=1e-13)

    def test_center_is_regular(self):
        grid = CASES["gresho"].make_grid(16, 16, 0.1)
        V = CASES["gresho"].initial_state(grid, 0.1)
        assert np.isfinite(V.u).all() and np.isfinite(V.v).all()

    def test_overflowing_conservative_copy_is_reported(self):
        # at weight 1 the result never reads U, but U's fluxes overflow by
        # eps = 1e-130; the run must stop rather than carry inf and nan
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonPhysicalState, match=r"non-finite (rho|mx|my|E) at cell"):
                run_case(CASES["gresho"], 1e-140, 8, 8, t_final=1e-3)
            _, state, report, _ = run_case(CASES["gresho"], 1e-100, 8, 8, t_final=1e-3)
        assert report.steps >= 1 and np.isfinite(state.U.array).all()


class TestBaroclinicCase:
    def test_domain_scales_with_mach_number(self):
        assert CASES["baroclinic"].domain(0.05) == (-20.0, 20.0, 0.0, 8.0)

    def test_velocity_crest_hand_value(self):
        fn = partial(CASES["baroclinic"].state_at, 0.05, 0.0)
        rho, u, v, p = fn(np.array([0.0]), np.array([1.0]))  # cos = 1
        assert u[0] == pytest.approx(math.sqrt(1.4), rel=1e-14)
        assert v[0] == 0.0

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_mach_number_checked_before_the_domain_uses_it(self, eps):
        case = CASES["baroclinic"]
        with pytest.raises(ValueError, match="epsilon must lie in"):
            run_case(case, eps, 8, 8)
        with pytest.raises(ValueError, match="epsilon must lie in"):
            case.initial_dt(8, eps)

    def test_pressure_trough_is_unity(self):
        fn = partial(CASES["baroclinic"].state_at, 0.05, 0.0)
        rho, u, v, p = fn(np.array([20.0]), np.array([1.0]))  # cos = -1
        assert p[0] == pytest.approx(1.0, rel=1e-14)

    def test_density_layer_jump(self):
        fn = partial(CASES["baroclinic"].state_at, 0.05, 0.0)
        below = fn(np.array([0.0]), np.array([3.99]))[0][0]
        above = fn(np.array([0.0]), np.array([4.01]))[0][0]
        assert below - above == pytest.approx(1.8, abs=0.01)


class TestDoubleShearCase:
    def test_lower_layer_hand_value(self):
        fn = partial(CASES["double_shear"].state_at, 0.1, 0.0)
        rho, u, v, p = fn(np.array([0.0]), np.array([math.pi / 4.0]))
        assert u[0] == pytest.approx(math.tanh(-3.75), rel=1e-14)
        assert math.tanh(-3.75) == pytest.approx(-0.9988944427261528, rel=1e-12)

    def test_interface_hand_value(self):
        fn = partial(CASES["double_shear"].state_at, 0.1, 0.0)
        rho, u, v, p = fn(np.array([0.0]), np.array([math.pi]))
        assert u[0] == pytest.approx(math.tanh(7.5), rel=1e-14)

    def test_background_state(self):
        fn = partial(CASES["double_shear"].state_at, 0.1, 0.0)
        rho, u, v, p = fn(np.array([1.0]), np.array([1.0]))
        assert rho[0] == pytest.approx(math.pi / 15.0, rel=1e-14)
        assert p[0] == pytest.approx(1.0 / 1.4, rel=1e-14)

    def test_vorticity_of_sinusoidal_transverse_velocity(self):
        case = CASES["double_shear"]
        grid = case.make_grid(64, 64, 0.1)
        X, _ = grid.cell_centers()
        V = PrimitiveField.zeros(grid)
        V.rho[:] = 1.0
        V.p[:] = 1.0
        V.v[grid.interior] = 0.05 * np.sin(X)
        fill_ghosts(V, grid)
        w = vorticity(V, grid)
        assert np.abs(w - 0.05 * np.cos(X)).max() <= 0.05 * grid.dx**2


class TestExplosionCase:
    def test_inside_and_outside_states(self):
        fn = partial(CASES["explosion"].state_at, 1.0, 0.0)
        rho, u, v, p = fn(np.array([0.0, 0.9]), np.array([0.0, 0.9]))
        assert (rho[0], p[0]) == (1.0, 1.0)
        assert (rho[1], p[1]) == (0.125, 0.1)

    def test_boundary_radius_belongs_outside(self):
        # a cell center exactly on r = 0.4 takes the ambient branch
        grid = CASES["explosion"].make_grid(5, 5, 1.0)
        V = CASES["explosion"].initial_state(grid, 1.0)
        g = grid.ghost
        assert V.rho[g + 3, g + 2] == 0.125  # center (0.4, 0.0)
        assert V.rho[g + 2, g + 2] == 1.0  # center (0, 0)

    def test_final_times_follow_mach_number(self):
        case = CASES["explosion"]
        assert case.final_time(1.0) == 0.25
        assert case.final_time(0.3) == 0.08

    def test_has_no_exact_solution(self):
        case = CASES["explosion"]
        with pytest.raises(ValueError, match="'explosion' has no exact solution"):
            case.exact_state(case.make_grid(8, 8, 1.0), 1.0, 0.0)


class TestErrorMachinery:
    def test_identical_fields(self):
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0)
        V = CASES["gresho"].initial_state(grid, 0.1)
        assert np.allclose(l1_error(V, V, grid), 0.0)

    def test_constant_offset_on_unit_domain(self):
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0)
        V = PrimitiveField.zeros(grid)
        V.rho[:] = 1.0
        V.p[:] = 1.0
        W = V.copy()
        W.rho += 0.25
        assert l1_error(V, W, grid)[0] == pytest.approx(0.25, rel=1e-13)

    def test_constant_offset_scales_with_area(self):
        grid = GridSpec(8, 8, -10.0, 10.0, -10.0, 10.0)
        V = PrimitiveField.zeros(grid)
        V.rho[:] = 1.0
        V.p[:] = 1.0
        W = V.copy()
        W.rho += 0.25
        assert l1_error(V, W, grid)[0] == pytest.approx(400.0 * 0.25, rel=1e-13)

    def test_rate_formula(self):
        rates = observed_rate(np.array([4e-2]), np.array([1e-2]))
        assert rates[0] == pytest.approx(2.0, rel=1e-13)

    def test_study_rows_and_rates(self):
        table = convergence_study(CASES["vortex"], [1.0], [16, 32], t_final=0.01)
        assert len(table.rows) == 2
        assert table.rows[0].rates is None
        assert table.rows[1].rates is not None
        text = table.format_text()
        assert "L1(rho)" in text and str(16) in text
        machine = table.format_delimited()
        assert machine.startswith("n eps")

    def test_failed_row_does_not_stop_study(self, monkeypatch):
        import allmach.benchmarks as benchmarks
        from allmach.errors import NonPhysicalState

        calls = []

        def first_row_blows_up(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise NonPhysicalState("non-positive density")
            return run(*args, **kwargs)

        monkeypatch.setattr(benchmarks, "run", first_row_blows_up)
        table = convergence_study(CASES["vortex"], [0.5, 1.0], [16], t_final=0.01)
        assert table.rows[0].failed == "non-positive density"
        assert not table.rows[1].failed
        text = table.format_text().splitlines()
        assert text[1].endswith("FAILED: non-positive density")
        assert "FAILED" not in text[2]
        machine = table.format_delimited().splitlines()
        assert len(machine) == 2 and machine[1].startswith("16 1 ")

    def test_uniform_steps_split_the_interval_at_or_below_the_cfl_step(self, monkeypatch):
        import allmach.benchmarks as benchmarks

        forced = []

        def recording_run(state, grid, cfg, t_final, **kwargs):
            forced.append(cfg.dt_override)
            return run(state, grid, cfg, t_final, **kwargs)

        monkeypatch.setattr(benchmarks, "run", recording_run)
        case = CASES["gresho"]
        table = convergence_study(case, [0.1], [8, 16], t_final=0.1, uniform_steps=True)
        assert not any(row.failed for row in table.rows)
        for n, (k, dt) in zip([8, 16], forced, strict=True):
            dt0 = case.initial_dt(n, 0.1)
            assert k >= 2 and k * dt == pytest.approx(0.1, rel=1e-14)
            assert dt <= dt0 < 0.1 / (k - 1)  # the fewest equal steps within the CFL step

    def test_config_error_is_not_a_failed_row(self):
        with pytest.raises(ValueError):
            convergence_study(CASES["vortex"], [2.0, 1.0], [16], t_final=0.01)

    def test_study_requires_exact_solution(self):
        with pytest.raises(ValueError):
            convergence_study(CASES["explosion"], [1.0], [16])

    @pytest.mark.parametrize(
        "eps_list, n_list, name", [([], [16], "eps_list"), ([1.0], [], "n_list")]
    )
    def test_empty_sweep_is_config_error(self, eps_list, n_list, name):
        with pytest.raises(ValueError, match=f"^{name} is empty"):
            convergence_study(CASES["vortex"], eps_list, n_list, t_final=0.01)


class TestDiagnostics:
    def test_local_mach_of_known_state(self):
        grid = GridSpec(8, 8, 0.0, 1.0, 0.0, 1.0)
        V = PrimitiveField.zeros(grid)
        V.rho[:] = 1.0
        V.p[:] = 1.0
        V.u[:] = 0.3
        V.v[:] = 0.4
        m = local_mach(V, 1.4, grid)
        assert np.allclose(m, 0.5 / math.sqrt(1.4), rtol=1e-13)

    def test_gresho_mach_peak(self):
        case = CASES["gresho"]
        grid = case.make_grid(64, 64, 0.1)
        V = case.initial_state(grid, 0.1)
        m = local_mach(V, 1.4, grid)
        assert m.max() == pytest.approx(1.0 / math.sqrt(1.4), rel=0.02)
