import math

import numpy as np
import pytest

from heathsym import expr as ex
from heathsym import solutions as so
from heathsym.lie import solution_invariance_residual
from heathsym.model import heath_to_heat, pde_residual

A_, B_, T_ = 1.0, 1.0, 1.0  # a, b, T used throughout


def test_terminal_solution_residual_and_datum():
    ts = so.terminal_solution(A_, B_, T_)
    assert ts.residual() < 1e-7
    for xv in np.linspace(-1, 1, 9):
        assert abs(ts.evaluate(float(xv), T_) - 1.0) < 1e-9


def test_terminal_singular_time():
    ts = so.terminal_solution(A_, B_, T_)
    sing = ts.boundary["singular_time"]
    assert abs(sing - (T_ - 2 * math.log(2.0) / B_**2)) < 1e-14
    # the box stays on the safe side of the singular time
    assert ts.box["t"][0] > sing


def test_terminal_guard_rejects_singular_sample():
    ts = so.terminal_solution(A_, B_, T_)
    sing = ts.boundary["singular_time"]
    with pytest.raises(so.SampleDomainError):
        ts.residual([(0.0, sing)])


def test_reduced_profile_solves_displayed_ode():
    F = so.terminal_reduction_F(A_, B_, T_)
    Tp = -B_ * B_ * T_ / 2.0
    taus = np.linspace(Tp, Tp + 0.2, 9)
    assert so.terminal_ode_residual(F, A_, B_, T_, taus) < 1e-9


def test_phi_form_solves_heat_picture_and_terminal_datum():
    phif = so.terminal_phi_form(A_, B_, T_)
    assert phif.residual() < 1e-9
    Tp = -B_ * B_ * T_ / 2.0
    for xv in np.linspace(-1, 1, 9):
        want = math.exp(-(A_ * xv + 1.0) / B_**2)
        got = ex.evaluate(phif.u, {"x": float(xv), "t": Tp})
        assert abs(got - want) < 1e-9


def test_wrong_constant_breaks_terminal_datum():
    bad = so.terminal_phi_form(A_, B_, T_, c=1.234)
    Tp = -B_ * B_ * T_ / 2.0
    worst = max(
        abs(ex.evaluate(bad.u, {"x": float(xv), "t": Tp})
            - math.exp(-(A_ * xv + 1.0)))
        for xv in np.linspace(-1, 1, 5)
    )
    assert worst > 1e-3


def test_pictures_agree_for_terminal_solution():
    ts = so.terminal_solution(A_, B_, T_)
    phif = so.terminal_phi_form(A_, B_, T_)
    for xv in np.linspace(-0.8, 0.8, 5):
        for tv in np.linspace(ts.box["t"][0], T_, 5):
            tauv = -B_ * B_ / 2 * tv
            pv = ex.evaluate(phif.u, {"x": float(xv), "t": tauv})
            uv = -B_ * B_ * math.log(pv) - A_ * xv
            assert abs(uv - ts.evaluate(float(xv), float(tv))) < 1e-9


def test_barrier_curve_general_ode():
    A, B = 1.0, -3.0
    H = so.barrier_H_general(A_, B_, A, B, 1, 1, 1, 1)
    taus = np.linspace(-1, 1, 9)
    assert so.barrier_H_ode_residual(H, A, B, 1, 1, 1, taus) < 1e-10


def test_barrier_datum_general_ode():
    A, B = 1.0, -3.0
    R = so.barrier_R_general(A_, B_, A, B, 1, 1, 1, 1, 1, 1)
    taus = np.linspace(-1, 1, 9)
    assert so.barrier_R_ode_residual(R, A_, B_, A, B, 1, 1, 1, 1, 1, taus) < 1e-10


def test_barrier_requires_real_exponent():
    with pytest.raises(ValueError):
        so.barrier_H_general(A_, B_, 1.0, 1.0, 1, 1, 1, 1)  # A^2 - 16B < 0


def test_exponential_barrier_matches_general_forms():
    bs = so.barrier_solution(A_, B_, 0.05, 0.9, 100.0, T_, 1.0)
    p = bs.spec.params
    Hg = so.barrier_H_general(A_, B_, p["A"], p["B"], p["c1"], p["c3"], p["c4"], p["c5"])
    Rg = so.barrier_R_general(A_, B_, p["A"], p["B"], p["c1"], p["c2"], p["c3"],
                              p["c4"], p["c5"], p["c6"])
    Tp = -B_ * B_ * T_ / 2.0
    for tauv in np.linspace(Tp, Tp + 0.4, 9):
        env = {"t": float(tauv)}
        hv = ex.evaluate(ex.rename(Hg, {"tau": "t"}), env)
        hs = ex.evaluate(ex.rename(bs.spec.H, {"tau": "t"}), env)
        rv = ex.evaluate(ex.rename(Rg, {"tau": "t"}), env)
        rs = ex.evaluate(ex.rename(bs.spec.R, {"tau": "t"}), env)
        assert abs(hv - hs) < 1e-12
        assert abs(rv - rs) < 1e-12


def test_barrier_solution_residuals_and_boundary():
    bs = so.barrier_solution(A_, B_, 0.05, 0.9, 100.0, T_, 1.0)
    assert bs.heath.residual() < 1e-7
    assert bs.heat.residual() < 1e-7
    ts = np.linspace(T_ - 1.0, T_, 9)
    assert bs.boundary_residual(ts) < 1e-9
    Tp = -B_ * B_ * T_ / 2.0
    taus = np.linspace(Tp, Tp + 0.4, 9)
    assert bs.phi_boundary_residual(taus) < 1e-10
    # barrier curve hits beta*K at the terminal time, tau = -b^2 T/2
    assert abs(ex.evaluate(bs.spec.H, {"t": -B_ * B_ * T_ / 2}) - 0.9 * 100.0) < 1e-10


def test_barrier_invariance_and_picture_consistency():
    bs = so.barrier_solution(A_, B_, 0.05, 0.9, 100.0, T_, 1.0)
    Tp = -B_ * B_ * T_ / 2.0
    pts = [(float(xv), float(tv)) for xv in np.linspace(90, 100, 5)
           for tv in np.linspace(T_ - 0.5, T_, 4)]
    assert bs.picture_consistency(pts) < 1e-10
    pts_tau = [(float(xv), float(tauv)) for xv in np.linspace(90, 100, 5)
               for tauv in np.linspace(Tp, Tp + 0.3, 4)]
    assert bs.invariance_residual(pts_tau) < 1e-8


def test_barrier_payoff_reported_not_satisfied():
    bs = so.barrier_solution(A_, B_, 0.05, 0.9, 100.0, T_, 1.0)
    pay = bs.payoff_discrepancy([101.0, 120.0])
    assert pay["satisfied"] is False
    assert all(abs(g) > 1.0 for g in pay["gaps"].values())


def test_barrier_spec_validation():
    with pytest.raises(ValueError):
        so.exponential_barrier(A_, B_, -0.1, 0.9, 100.0, T_, 1.0)
    with pytest.raises(ValueError):
        so.exponential_barrier(A_, B_, 0.05, 1.5, 100.0, T_, 1.0)
    with pytest.raises(ValueError):
        so.exponential_barrier(A_, B_, 0.05, 0.9, -1.0, T_, 1.0)


def test_example_scaling_algebra():
    sol = so.example_A22(A_, B_, 0.0)
    assert sol.residual() < 1e-7


def test_example_quadratic_source():
    sol = so.example_A359(A_, B_, -1.0)
    assert sol.residual() < 1e-7
    # its transformed source lands exactly in the catalog's quadratic family
    h, _ = heath_to_heat(sol.model)
    target = ex.parse("-exp(3*x)*u^2 - (81/4)*exp(-3*x)")
    for xv in np.linspace(0.5, 1.5, 5):
        for uv in np.linspace(0.5, 1.5, 5):
            env = {"x": float(xv), "u": float(uv)}
            assert abs(ex.evaluate(h.fhat, env) - ex.evaluate(target, env)) < 1e-10


def test_example_pole_guard():
    sol = so.example_A359(A_, B_, -1.0)
    # the pole line is x = 6 c1 - 3 b^2 t; stepping onto it raises
    with pytest.raises(so.SampleDomainError):
        sol.residual([(-6.0 - 3.0 * 0.1, 0.1)])
    # a box crossing the pole is reported as a domain violation
    bad = so.example_A359(A_, B_, 0.2)
    assert bad.domain_violation() is not None
    assert sol.domain_violation() is None


def test_solution_serialization():
    sol = so.example_A22(A_, B_, 0.0)
    js = sol.to_json()
    assert "similarity" in js and "box" in js
    csv_text = sol.sample_csv(nx=3, nt=3)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "x,t,u"
    assert len(lines) == 10


# -- the compiled templates -----------------------------------------------------

def _draws(n, seed=11):
    """n admissible draws of every closed form, as (name, builder, kwargs)."""
    rng = np.random.default_rng(seed)
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    out = []
    for _ in range(n):
        out += [
            ("terminal", so.terminal_solution, {"a": u(0.5, 1.5), "b": u(0.8, 1.2), "T": u(0.8, 1.2)}),
            ("phi_form", so.terminal_phi_form, {"a": u(0.5, 1.5), "b": u(0.8, 1.2), "T": u(0.8, 1.2)}),
            ("barrier", so.barrier_solution,
             {"a": u(0.5, 1.5), "b": u(0.8, 1.2), "alpha": u(0.03, 0.07), "beta": u(0.85, 0.95),
              "K": u(50.0, 110.0), "T": u(0.8, 1.2), "A": u(0.8, 1.2)}),
            ("a22", so.example_A22, {"a": u(0.5, 1.5), "b": u(0.8, 1.2), "c3": u(-0.2, 0.2)}),
            ("a359", so.example_A359, {"a": u(0.5, 1.5), "b": u(0.8, 1.2), "c1": u(-1.2, -0.8)}),
        ]
    return out


def _solutions(built):
    """The ClosedFormSolutions of a built closed form (both pictures of the barrier)."""
    return [built.heath, built.heat] if isinstance(built, so.BarrierSolution) else [built]


def _filled_residual(sol, pts=None):
    """The residual derived from the filled field and model, per draw."""
    return pde_residual(sol.model.pde(), sol.u, pts or sol.grid())


def _invariance_pts(bs):
    beta, K, b, T = (bs.heath.params[k] for k in ("beta", "K", "b", "T"))
    tp = -b * b * T / 2.0
    return [(float(xv), float(tv)) for xv in np.linspace(beta * K, beta * K + 5, 4)
            for tv in np.linspace(tp, tp + 0.3, 4)]


def test_compiled_residuals_match_the_filled_derivation():
    # 20 draws of each closed form: the template's residual, with the draw's
    # values as arguments, is the residual derived from the filled field
    worst = {}
    for name, build, kw in _draws(20):
        built = build(**kw)
        for sol in _solutions(built):
            gap = abs(sol.residual() - _filled_residual(sol))
            worst[name, sol.picture] = max(worst.get((name, sol.picture), 0.0), gap)
        if name == "barrier":
            pts = _invariance_pts(built)
            gap = abs(built.invariance_residual(pts)
                      - solution_invariance_residual(built.generator, built.heat.u, pts))
            worst["invariance"] = max(worst.get("invariance", 0.0), gap)
    assert len(worst) == 7
    assert max(worst.values()) < 1e-13, worst


def test_alternating_draws_each_get_their_own_values():
    (_, _, kw_a), (_, _, kw_b) = [d for d in _draws(2) if d[0] == "terminal"]
    xs = np.linspace(-1.0, 1.0, 9)
    seen = []
    for kw in (kw_a, kw_b, kw_a):
        sol = so.terminal_solution(**kw)
        ts = np.full_like(xs, sol.box["t"][0])
        (filled,) = ex.evaluate_many([sol.u], {"x": xs, "t": ts})
        got = sol.evaluate(xs, ts)
        assert np.max(np.abs(got - filled) / np.maximum(1.0, np.abs(filled))) < 1e-13
        assert abs(sol.residual() - _filled_residual(sol)) < 1e-13
        seen.append(got)
    assert np.array_equal(seen[0], seen[2])
    assert np.max(np.abs(seen[0] - seen[1])) > 1e-2


def test_another_draws_values_break_the_residual():
    # draw A's filled field checked against the template PDE bound to draw
    # B's values fails by orders of magnitude: the values reach the compiled
    # function
    by_name = {}
    for name, build, kw in _draws(2, seed=5):
        by_name.setdefault(name, []).append(build(**kw))
    for name, (first, second) in by_name.items():
        for sol_a, sol_b in zip(_solutions(first), _solutions(second)):
            assert _filled_residual(sol_a) < 1e-9
            if ex.free_symbols(sol_a.pde_template.rhs) <= {"x", "u", "u_x", "u_xx"}:
                continue  # the phi form's PDE has no parameters to bind
            wrong = pde_residual(sol_a.pde_template, sol_a.u, sol_a.grid(), params=sol_b.params)
            assert wrong > 1e-6, (name, sol_a.picture, wrong)
    first, second = by_name["barrier"]
    pts = _invariance_pts(first)
    assert solution_invariance_residual(first.generator, first.heat.u, pts) < 1e-8
    gen_b = {**second.heat.params, "c1": second.spec.params["c1"]}
    wrong = solution_invariance_residual(so._barrier_generator(), first.heat.u, pts, params=gen_b)
    assert wrong > 1e-6


def test_checks_derive_and_compile_once(monkeypatch):
    # after one draw of each closed form, a new draw's checks neither
    # differentiate nor compile
    def run(draws):
        for _, build, kw in draws:
            built = build(**kw)
            for sol in _solutions(built):
                sol.residual()
                sol.evaluate(*np.array(sol.grid()).T)
            if isinstance(built, so.BarrierSolution):
                b, T = built.heath.params["b"], built.heath.params["T"]
                built.boundary_residual(np.linspace(T - 1.0, T, 9))
                built.phi_boundary_residual(np.linspace(-b * b * T / 2, -b * b * T / 2 + 0.4, 9))
                built.picture_consistency(built.heath.grid())
                built.invariance_residual(_invariance_pts(built))
                built.payoff_discrepancy([101.0, 120.0])

    first, second = _draws(1, seed=1), _draws(1, seed=2)
    run(first)

    def forbidden(*args, **kwargs):
        raise AssertionError("symbolic work on a later draw")

    monkeypatch.setattr(ex, "diff", forbidden)
    monkeypatch.setattr(ex, "compile_exprs", forbidden)
    run(second)


def test_filled_field_is_built_on_first_read():
    sol = so.terminal_solution(1.0, 1.0, 1.0)
    assert "u" not in vars(sol) and "model" not in vars(sol)
    sol.residual()
    assert "u" not in vars(sol) and "model" not in vars(sol)
    assert sol.u is sol.u and sol.model is sol.model
    assert sol.u == ex.subs(sol.u_template, sol.params)
