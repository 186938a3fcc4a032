"""The paper's headline claim, a scheme uniformly accurate and stable across
all Mach numbers, as one sweep over eps on gresho, the cheapest case with an
exact solution.

A cell runs gresho at 32^2 to t = 1 and passes when it gets there without a
rejected step and with an L1(u) within BOUND times the eps = 1e-6 cell's.
A cell that fails today is a strict xfail naming the ROADMAP item that owns
it, so a fix must flip its marker and a regression elsewhere fails.
"""

import functools

import pytest

from allmach.benchmarks import CASES, l1_error, run_case

REFERENCE_EPS = 1e-6
BOUND = 3.5


def owned_by(item: str):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP {item}")


@functools.cache
def gresho_cell(eps: float) -> tuple[float, int, float]:
    """End time, rejected steps and L1(u) against the steady vortex."""
    case = CASES["gresho"]
    grid, state, report, _ = run_case(case, eps, 32, 32)
    return state.t, report.rejections, l1_error(state.V, case.exact_state(grid, eps, state.t), grid)[1]


@pytest.mark.parametrize("eps", [
    pytest.param(1e-8, marks=owned_by("item 7")),
    1e-6,
    1e-4,
    1e-2,
    0.05,
    pytest.param(0.08, marks=owned_by("item 4")),
    pytest.param(0.1, marks=owned_by("item 4")),
    pytest.param(0.15, marks=owned_by("item 4")),
    pytest.param(0.2, marks=owned_by("items 2 and 4")),
    pytest.param(0.3, marks=owned_by("item 2")),
    pytest.param(0.5, marks=owned_by("item 2")),
    pytest.param(0.7, marks=owned_by("item 2")),
    0.9,
    1.0,
])
def test_gresho_is_uniform_in_mach_number(eps):
    t, rejections, error = gresho_cell(eps)
    reference = gresho_cell(REFERENCE_EPS)[2]
    assert t == pytest.approx(1.0, abs=1e-12)
    assert rejections == 0
    assert error <= BOUND * reference, f"L1(u) {error:.4g} against {reference:.4g} at eps 1e-6"
