import math
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_banded

from heathsym import expr as ex
from heathsym import solutions as so
from heathsym import solver as sv
from heathsym.model import HeatSourceModel

PI = math.pi
HEAT0 = HeatSourceModel(ex.parse("0*u"))
SIN_EXACT = f"exp(-({PI})^2*tau)*sin({PI}*x)"


def sin_init(x):
    return math.sin(PI * x)


def test_grid_invariants():
    g = sv.GridSpec(0.0, 1.0, 64, 0.0, 0.1, 100)
    assert abs(g.h - 1.0 / 65) < 1e-15
    assert abs(g.k - 0.001) < 1e-15
    assert g.nodes().size == 66
    for bad in (
        dict(x_lo=0.0, x_hi=1.0, nx=4, tau0=0.0, tau1=1.0, ntau=10),
        dict(x_lo=0.0, x_hi=1.0, nx=16, tau0=0.0, tau1=1.0, ntau=2),
        dict(x_lo=1.0, x_hi=0.0, nx=16, tau0=0.0, tau1=1.0, ntau=10),
        dict(x_lo=0.0, x_hi=1.0, nx=16, tau0=1.0, tau1=0.0, ntau=10),
    ):
        with pytest.raises(ValueError):
            sv.GridSpec(**bad)


def test_snapshot_finite_and_positivity():
    with pytest.raises(ValueError):
        sv.FieldSnapshot(0.0, np.array([1.0, float("nan")]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a snapshot validates; the march warns
        sv.FieldSnapshot(0.0, np.array([1.0, -0.5]))
    snap = sv.FieldSnapshot(0.0, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        snap.phi[0] = 9.0  # frozen


def _sinking_run():
    # positive at level 0; a constant sink drives the interior below zero
    g = sv.GridSpec(0.0, 1.0, 16, 0.0, 0.1, 20)
    scheme = sv.SchemeConfig(boundary=sv.BOUNDARY_STATIC)
    return sv.solve(HeatSourceModel(ex.parse("-50 + 0*u")), lambda x: 1.0, g, scheme)


def test_positivity_warned_once_per_run():
    with pytest.warns(sv.PositivityWarning, match="min phi = ") as record:
        snaps = _sinking_run()
    assert float(snaps[0].phi.min()) > 0.0
    low = min(float(s.phi.min()) for s in snaps)
    assert low < 0.0
    assert len(record) == 1
    assert f"{low:.6g}" in str(record[0].message)


def test_positivity_warning_names_the_caller():
    # the warning points at the line that called solve, not into the solver
    with pytest.warns(sv.PositivityWarning) as record:
        _sinking_run()
    assert record[0].filename == __file__


def test_stability_guard():
    g = sv.GridSpec(0.0, 1.0, 128, 0.0, 0.1, 100)
    with pytest.raises(ValueError) as ei:
        sv.SchemeConfig(scheme=sv.EXPLICIT).validate(g)
    assert "h^2/2" in str(ei.value)
    sv.SchemeConfig(scheme=sv.CN_IMEX).validate(g)  # no guard for CN


def test_pure_heat_benchmark_cn():
    g = sv.GridSpec(0.0, 1.0, 128, 0.0, 0.1, 200)
    snaps = sv.solve(HEAT0, sin_init, g, sv.SchemeConfig(), boundary=SIN_EXACT)
    assert len(snaps) == 201
    norms = sv.error_norms(snaps, SIN_EXACT, g)
    assert norms[-1]["Linf"] < 1e-3


def test_pure_heat_benchmark_explicit():
    g = sv.GridSpec(0.0, 1.0, 32, 0.0, 0.05, 200)
    scheme = sv.SchemeConfig(scheme=sv.EXPLICIT)
    scheme.validate(g)
    snaps = sv.solve(HEAT0, sin_init, g, scheme, boundary=SIN_EXACT)
    assert sv.error_norms(snaps, SIN_EXACT, g)[-1]["Linf"] < 1e-3


def test_explicit_maximum_principle():
    # zero source, static Dirichlet: the field stays inside the initial and
    # boundary bounds under the stability guard
    g = sv.GridSpec(0.0, 1.0, 32, 0.0, 0.05, 200)
    scheme = sv.SchemeConfig(scheme=sv.EXPLICIT, boundary=sv.BOUNDARY_STATIC)
    snaps = sv.solve(HEAT0, lambda x: 0.5 + 0.4 * math.sin(3 * x), g, scheme)
    lo = min(float(s.phi.min()) for s in snaps)
    hi = max(float(s.phi.max()) for s in snaps)
    assert lo >= 0.5 - 1e-12
    assert hi <= 0.9 + 1e-12


def test_instability_reported():
    g = sv.GridSpec(0.0, 1.0, 16, 0.0, 5.0, 50)
    with pytest.raises(sv.InstabilityError):
        sv.solve(
            HeatSourceModel(ex.parse("100*u")),
            lambda x: 1.0,
            g,
            sv.SchemeConfig(boundary=sv.BOUNDARY_STATIC),
        )


def test_error_norms_trivia():
    g = sv.GridSpec(0.0, 1.0, 16, 0.0, 0.1, 10)
    snaps = sv.solve(HEAT0, sin_init, g, sv.SchemeConfig(), boundary=SIN_EXACT)
    same = sv.error_norms(snaps[:1], SIN_EXACT, g)
    assert same[0]["Linf"] < 1e-15
    off = sv.error_norms(snaps[:1], f"({SIN_EXACT}) + 0.25", g)
    assert abs(off[0]["Linf"] - 0.25) < 1e-12


def test_single_cn_step_local_error():
    # starting from the exact field, one CN step has a tiny local error
    g = sv.GridSpec(0.0, 1.0, 128, 0.0, 0.002, 4)
    snaps = sv.solve(HEAT0, sin_init, g, sv.SchemeConfig(), boundary=SIN_EXACT)
    err = sv.error_norms(snaps[:2], SIN_EXACT, g)[1]["Linf"]
    assert err < 1e-6


def test_convergence_pure_heat_cn():
    case = sv.ConvergenceCase(
        HEAT0, SIN_EXACT, sv.GridSpec(0.0, 1.0, 16, 0.0, 0.1, 40), sv.SchemeConfig()
    )
    rep = sv.convergence_study(case, [16, 32, 64, 128])
    assert 1.8 <= rep["order"] <= 2.2
    assert rep["monotone"]


def test_convergence_pure_heat_explicit():
    case = sv.ConvergenceCase(
        HEAT0, SIN_EXACT, sv.GridSpec(0.0, 1.0, 16, 0.0, 0.05, 60),
        sv.SchemeConfig(scheme=sv.EXPLICIT),
    )
    rep = sv.convergence_study(case, [16, 32, 64])
    assert 1.8 <= rep["order"] <= 2.2


def test_convergence_reports_min_phi_and_lambda():
    # a constant offset keeps the wave exact and puts phi = -0.5 on the
    # left boundary; k is proportional to h, so lambda = k/h^2 doubles
    case = sv.ConvergenceCase(
        HEAT0, SIN_EXACT + " - 0.5", sv.GridSpec(0.0, 1.0, 16, 0.0, 0.1, 40),
        sv.SchemeConfig(),
    )
    with pytest.warns(sv.PositivityWarning):
        rep = sv.convergence_study(case, [16, 33, 67])
    assert rep["min_phi"] == [-0.5, -0.5, -0.5]
    assert rep["lam"] == pytest.approx([0.7225, 1.445, 2.89], rel=1e-12)


def test_convergence_needs_three_levels():
    case = sv.ConvergenceCase(
        HEAT0, SIN_EXACT, sv.GridSpec(0.0, 1.0, 16, 0.0, 0.1, 40), sv.SchemeConfig()
    )
    with pytest.raises(ValueError, match="3 levels"):
        sv.convergence_study(case, [16, 32])


def _barrier_case(K=1.0):
    bs = so.barrier_solution(1.0, 1.0, 0.05, 0.9, K, 1.0, 1.0)
    ref = ex.rename(bs.heat.u, {"tau": "t"})
    return bs, ref


def test_manufactured_interior_order():
    # log-linear source with quadratic space profile, fixed strip, exact
    # Dirichlet data from the closed form
    phif = so.terminal_phi_form(1.0, 1.0, 1.0)
    grid = sv.GridSpec(-1.0, 1.0, 32, -0.5, -0.35, 60)
    case = sv.ConvergenceCase(
        HeatSourceModel(phif.model.fhat),
        ex.rename(phif.u, {"tau": "t"}),
        grid,
        sv.SchemeConfig(),
    )
    rep = sv.convergence_study(case, [16, 32, 64, 128])
    assert rep["order"] >= 1.8


def test_barrier_run_accuracy():
    bs, ref = _barrier_case()
    grid = sv.GridSpec(0.3, 2.5, 256, -0.5, 0.0, 400)
    snaps = sv.solve_barrier(bs.heat.model, bs.spec, grid, sv.SchemeConfig(), ref)
    norms = sv.error_norms(
        snaps, ref, grid, mask=lambda tau: sv.barrier_mask(bs.spec, grid, tau)
    )
    assert norms[-1]["Linf"] < 1e-2


def test_barrier_moving_order():
    # criterion 7's barrier, and one where taking the first node from the
    # previous level's value gave order 0.86
    for alpha, beta, A in ((0.05, 0.9, 1.0), (0.0635, 0.919, 0.886)):
        bs = so.barrier_solution(1.0, 1.0, alpha, beta, 1.0, 1.0, A)
        case = sv.ConvergenceCase(
            bs.heat.model, ex.rename(bs.heat.u, {"tau": "t"}),
            sv.GridSpec(0.3, 2.5, 32, -0.5, 0.0, 60), sv.SchemeConfig(), barrier=bs.spec,
        )
        rep = sv.convergence_study(case, [32, 64, 128])
        assert rep["order"] >= 1.0, (alpha, beta, A, rep["errors"])


def test_barrier_exits_grid():
    bs, ref = _barrier_case()
    grid = sv.GridSpec(0.95, 2.5, 32, -0.5, 0.0, 60)
    with pytest.raises(sv.BarrierExitsGridError, match="barrier exits grid"):
        sv.solve_barrier(bs.heat.model, bs.spec, grid, sv.SchemeConfig(), ref)


def test_map_back_to_original_picture():
    bs, ref = _barrier_case()
    grid = sv.GridSpec(0.3, 2.5, 128, -0.5, 0.0, 200)
    snaps = sv.solve_barrier(bs.heat.model, bs.spec, grid, sv.SchemeConfig(), ref)
    mask = lambda tau: sv.barrier_mask(bs.spec, grid, tau)
    mapped = sv.map_to_heath(snaps, grid, 1.0, 1.0, mask=mask)
    tv, xs, us = mapped[-1]
    worst = max(
        abs(us[i] - bs.heath.evaluate(float(xs[i]), tv)) for i in range(xs.size)
    )
    assert worst < 1e-2


def test_csv_rows_deterministic_order():
    g = sv.GridSpec(0.0, 1.0, 16, 0.0, 0.1, 10)
    snaps = sv.solve(HEAT0, sin_init, g, sv.SchemeConfig(), boundary=SIN_EXACT)
    rows = sv.csv_rows(snaps, g, stride=5)
    assert len(rows) == 3 * 18  # 3 snapshots, 18 nodes
    taus = [r[0] for r in rows]
    assert taus == sorted(taus)


@pytest.mark.parametrize("nx", [8, 64, 512])
@pytest.mark.parametrize("lam", [0.1, 1.0, 50.0])
def test_factored_cn_solve_matches_solve_banded(nx, lam):
    rhs = np.random.default_rng(nx).standard_normal(nx) * 10
    for fold in (0.0, 0.3):
        ab = np.zeros((3, nx))
        ab[0, 1:] = ab[2, :-1] = -lam / 2.0
        ab[1] = 1.0 + lam
        ab[1, 0] -= (lam / 2.0) * fold
        want = solve_banded((1, 1), ab, rhs)
        got = sv._cn_solve(sv._cn_factor(nx, lam, fold), rhs.copy())
        assert np.array_equal(got, want)  # bit for bit


def test_undefined_source_names_the_subexpression():
    g = sv.GridSpec(0.0, 1.0, 16, 0.0, 0.1, 10)
    model = HeatSourceModel(ex.parse("ln(x - 0.5)*u"))
    with pytest.raises(ex.DomainError, match="ln of non-positive") as info:
        sv.solve(model, sin_init, g, sv.SchemeConfig(), boundary=SIN_EXACT)
    assert info.value.subexpr == "ln(-1/2 + x)"


def test_boundary_error_at_its_level():
    # the boundary data is computed before the march, but its first
    # undefined level still raises only when the march gets there
    g = sv.GridSpec(0.0, 1.0, 16, 0.0, 5.0, 50)
    growth = HeatSourceModel(ex.parse("100*u"))
    with pytest.raises(ex.DomainError) as info:
        sv.solve(growth, lambda x: 1.0, g, sv.SchemeConfig(), boundary="1 + ln(0.15 - tau)")
    assert info.value.subexpr == "ln(3/20 - t)"
    with pytest.raises(sv.InstabilityError):  # blows up before tau = 3
        sv.solve(growth, lambda x: 1.0, g, sv.SchemeConfig(), boundary="1 + ln(3 - tau)")
