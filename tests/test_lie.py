import math
from fractions import Fraction

import numpy as np
import pytest

from heathsym import catalog as cat
from heathsym import expr as ex
from heathsym.lie import (
    CONDITION_ARGS,
    DEFAULT_BOX,
    EvolutionPDE,
    Generator,
    UnsamplableError,
    check_symmetry,
    classification_residual,
    commutator,
    invariant_surface,
    prolong2,
    solution_invariance_residual,
    symmetry_condition_terms,
)
from heathsym.model import HeatSourceModel, heat_to_heath

HEAT = EvolutionPDE(ex.parse("u_xx"))  # phi_tau = phi_xx, zero source


def test_heat_classical_symmetries_pass():
    # translations, scaling, Galilean boost, and the phi-scaling of the
    # linear heat equation all satisfy the linearized condition
    gens = [
        Generator.parse("1", "0", "0"),
        Generator.parse("0", "1", "0"),
        Generator.parse("x", "2*tau", "0"),
        Generator.parse("2*tau", "0", "-x*phi"),
        Generator.parse("0", "0", "phi"),
    ]
    for g in gens:
        rep = check_symmetry(HEAT, g, n=60, seed=1)
        assert rep.passed, rep.max_abs


def test_non_symmetry_is_rejected():
    bad = Generator.parse("x^2", "0", "phi")
    rep = check_symmetry(HEAT, bad, n=60, seed=2)
    assert not rep.passed
    assert rep.max_abs > 1e-3


def test_condition_undefined_on_whole_box_is_unsamplable():
    # ln(x - 10) is undefined for every x in the box; the phi-scaling keeps
    # the source in the condition (a time translation would cancel it)
    pde = EvolutionPDE(ex.parse("u_xx + ln(x - 10)*u"))
    with pytest.raises(UnsamplableError, match="could not sample"):
        check_symmetry(pde, Generator.parse("0", "0", "phi"), n=20)


def test_source_breaks_scaling_symmetry():
    pde = EvolutionPDE(ex.parse("u_xx + u^2"))
    scaling = Generator.parse("x", "2*tau", "0")
    assert not check_symmetry(pde, scaling, n=60, seed=3).passed
    # but translations in tau survive for x-free sources
    assert check_symmetry(pde, Generator.parse("0", "1", "0"), n=60, seed=3).passed


def test_prolong2_total_derivative_consistency():
    # for g = xi1 d/dx with xi1 = x^2: eta = 0, so eta^x = -u_x * Dx(xi1)
    g = Generator.parse("x^2", "0", "0")
    pr = prolong2(g)
    env = {"x": 0.7, "t": 0.2, "u": 1.1, "u_x": 0.3, "u_t": -0.4,
           "u_xx": 0.9, "u_xt": 0.1, "u_xxx": -0.2}
    want_x = -env["u_x"] * 2 * env["x"]
    assert abs(ex.evaluate(pr["eta_x"], env) - want_x) < 1e-12
    # eta^xx = -2 Dx(xi1) u_xx - Dxx(xi1) u_x = -4x u_xx - 2 u_x
    want_xx = -4 * env["x"] * env["u_xx"] - 2 * env["u_x"]
    assert abs(ex.evaluate(pr["eta_xx"], env) - want_xx) < 1e-12


def test_commutator_antisymmetry_and_closure():
    g1 = Generator.parse("x", "2*tau", "0")
    g2 = Generator.parse("2*tau", "0", "-x*phi")
    br = commutator(g1, g2)
    br_rev = commutator(g2, g1)
    env = {"x": 0.9, "t": 0.4, "u": 1.2}
    for att in ("xi1", "xi2", "eta"):
        v = ex.evaluate(getattr(br, att), env)
        v_rev = ex.evaluate(getattr(br_rev, att), env)
        assert abs(v + v_rev) < 1e-12
    # bracket of heat symmetries is again a heat symmetry
    assert check_symmetry(HEAT, br, n=50, seed=4).passed


def test_invariant_surface_form():
    g = Generator.parse("x", "2*tau", "phi")
    isc = invariant_surface(g)
    env = {"x": 0.5, "t": 0.3, "u": 2.0, "u_x": 1.0, "u_t": 0.25}
    want = 2.0 - 0.5 * 1.0 - 2 * 0.3 * 0.25
    assert abs(ex.evaluate(isc, env) - want) < 1e-12


def test_solution_invariance_residual_scaled():
    # u = x^2/(1+4 tau) + huge constant is invariant under a scaled
    # combination only when the combination matches; check zero and nonzero
    g = Generator.parse("0", "1", "0")  # time translation
    steady = ex.parse("x^2")
    assert solution_invariance_residual(g, steady, [(0.5, 0.1), (1.0, 0.3)]) < 1e-14
    moving = ex.parse("x^2 + tau")
    r = solution_invariance_residual(g, moving, [(0.5, 0.1)])
    assert r > 0.5  # u_t = 1 violates time invariance


def test_classification_residual_zero_for_symmetry():
    # scaling symmetry of the zero-source equation: xi1 = x/2 -> F2 = tau,
    # F3 = F4 = 0, F1 = 0 corresponds to xi1 = x F2'/2 + F3 = x/2
    zero = ex.parse("0*phi")
    F1 = ex.parse("0*x")
    F2 = ex.parse("tau")
    F3 = ex.parse("0*tau")
    F4 = ex.parse("0*tau")
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = {"x": float(rng.uniform(0.5, 1.5)), "tau": float(rng.uniform(-0.4, 0.4)),
             "phi": float(rng.uniform(0.5, 1.5))}
        assert abs(classification_residual(zero, F1, F2, F3, F4, p)) < 1e-10


def test_classification_residual_nonzero_for_non_symmetry():
    src = ex.parse("phi^2")
    F1 = ex.parse("0*x")
    F2 = ex.parse("tau")  # scaling is broken by the quadratic source
    F3 = ex.parse("0*tau")
    F4 = ex.parse("0*tau")
    p = {"x": 1.0, "tau": 0.2, "phi": 1.3}
    assert abs(classification_residual(src, F1, F2, F3, F4, p)) > 1e-3


def test_check_symmetry_matches_point_by_point_reference():
    # ln(x - 1) is undefined on half of the default x range, so about half
    # the draws are skipped; blocked sampling must keep the same points as
    # drawing and evaluating one jet point at a time
    pde = EvolutionPDE(ex.sym("u_xx") + ex.parse("ln(x - 1)*u^2"))
    g = Generator.parse("x", "2*tau", "phi")
    rep = check_symmetry(pde, g, n=40, seed=7)

    terms = symmetry_condition_terms(pde, g)
    rng = np.random.default_rng(7)
    values, skipped = [], 0
    while len(values) < 40:
        env = {s: rng.uniform(*DEFAULT_BOX[s]) for s in ("x", "t", "u", "u_x", "u_xx", "u_xxx")}
        try:
            tv = [ex.evaluate(t, env) for t in terms]
        except ex.DomainError:
            skipped += 1
            continue
        values.append(abs(sum(tv)) / max(1.0, max(abs(v) for v in tv)))
    assert skipped > 10 and rep.skipped_domain_errors == skipped
    assert rep.max_abs == max(values)
    assert rep.n_points == 40 and rep.points_failed == sum(v >= 1e-8 for v in values)


@pytest.mark.parametrize("name", ["u_x", "u_t", "u_xx", "u_xt", "u_xxx"])
def test_generator_rejects_jet_coordinates(name):
    # the closed-form prolongation holds for point generators only
    with pytest.raises(ValueError, match=f"must not contain \\['{name}'\\]"):
        Generator.parse("x", "0", f"u*{name}")
    with pytest.raises(ValueError, match=name):
        Generator(ex.sym(name), ex.num(0), ex.num(0))


# -- an independent reference for the prolongation ---------------------------

def _to_sympy(sympy, e):
    """The sympy expression of ``e``, every symbol real."""
    if e.op == "num":
        v = e.args[0]
        return sympy.Rational(v.numerator, v.denominator) if isinstance(v, Fraction) else sympy.Float(v)
    if e.op == "sym":
        return sympy.Symbol(e.args[0], real=True)
    if e.op == "add":
        return sympy.Add(*[_to_sympy(sympy, c) for c in e.args])
    if e.op == "mul":
        return sympy.Mul(*[_to_sympy(sympy, c) for c in e.args])
    if e.op == "pow":
        return sympy.Pow(_to_sympy(sympy, e.args[0]), _to_sympy(sympy, e.args[1]))
    fname, arg = e.args
    return ({"ln": sympy.log, "abs": sympy.Abs}.get(fname) or getattr(sympy, fname))(
        _to_sympy(sympy, arg))


def _reference_terms(sympy, pde, g):
    """The six summands of pr2 V(Delta) on Delta = rhs - u_t = 0, by total
    derivatives of the characteristic Q = eta - xi1 u_x - xi2 u_t (Olver,
    GTM 107, Thm 2.36): eta^J = D_J Q + xi1 u_{J,x} + xi2 u_{J,t}."""
    x, t, u, u_x, u_t, u_xx, u_xt, u_tt, u_xxx, u_xxt = sympy.symbols(
        "x t u u_x u_t u_xx u_xt u_tt u_xxx u_xxt", real=True)

    def D_x(f):
        return (f.diff(x) + u_x * f.diff(u) + u_xx * f.diff(u_x) + u_xt * f.diff(u_t)
                + u_xxx * f.diff(u_xx) + u_xxt * f.diff(u_xt))

    def D_t(f):
        return f.diff(t) + u_t * f.diff(u) + u_xt * f.diff(u_x) + u_tt * f.diff(u_t)

    rhs, xi1, xi2, eta = (_to_sympy(sympy, e) for e in (pde.rhs, g.xi1, g.xi2, g.eta))
    Q = eta - xi1 * u_x - xi2 * u_t
    eta_x = D_x(Q) + xi1 * u_xx + xi2 * u_xt
    eta_t = D_t(Q) + xi1 * u_xt + xi2 * u_tt
    eta_xx = D_x(D_x(Q)) + xi1 * u_xxx + xi2 * u_xxt
    # u_tt and u_xxt cancel from eta^t and eta^xx
    assert all(sympy.expand(eta_j.diff(s)) == 0 for eta_j in (eta_t, eta_xx) for s in (u_tt, u_xxt))
    terms = [xi1 * rhs.diff(x), xi2 * rhs.diff(t), eta * rhs.diff(u), eta_x * rhs.diff(u_x),
             eta_xx * rhs.diff(u_xx), -eta_t]
    on_manifold = {u_tt: 0, u_xxt: 0, u_xt: D_x(rhs), u_t: rhs}
    terms = [term.subs(on_manifold, simultaneous=True) for term in terms]
    assert not set().union(*(term.free_symbols for term in terms)) & {u_t, u_xt}
    return terms


def _prolongation_cases():
    heat = [Generator.parse(*c) for c in (
        ("1", "0", "0"), ("0", "1", "0"), ("0", "0", "phi"), ("x", "2*tau", "0"),
        ("2*tau", "0", "-x*phi"), ("4*tau*x", "4*tau^2", "-(x^2 + 2*tau)*phi"))]
    cases = [(f"heat-{i}", HEAT, g, {}) for i, g in enumerate(heat)]
    sym = cat._symbolic("A_3_5_1", "none", (), None)
    cases += [(f"A_3_5_1-{i}", sym.pde, g, dict(cat.get_spec("A_3_5_1").defaults))
              for i, g in enumerate(sym.generators)]
    # u_x^2 and a u_xx coefficient in the rhs; xi2 depends on x and u, so
    # every partial of the closed form is nonzero
    heath = heat_to_heath(HeatSourceModel("phi^2 + sin(x)*phi"), 0.8, 1.2).pde()
    g = Generator.parse("x*u^2 + sin(t)", "t*u + x^2*u^2", "exp(x)*u^3 + t*x")
    return cases + [("heath", heath, g, {})]


@pytest.mark.parametrize("case", _prolongation_cases(), ids=lambda c: c[0])
def test_symmetry_condition_terms_match_a_sympy_derivation(case):
    sympy = pytest.importorskip("sympy")
    _, pde, g, params = case
    want = _reference_terms(sympy, pde, g)
    got = symmetry_condition_terms(pde, g)
    assert len(got) == len(want) == 6

    args = CONDITION_ARGS + tuple(sorted(params))
    rng = np.random.default_rng(11)
    cols = [rng.uniform(*DEFAULT_BOX[s], size=50) for s in CONDITION_ARGS]
    cols += [np.full(50, params[p]) for p in sorted(params)]
    values, mask = ex.compile_exprs(got, args)(*cols)
    assert not np.asarray(mask).any()
    ref = sympy.lambdify([sympy.Symbol(a, real=True) for a in args], want, "numpy")(*cols)
    for k, (v, w) in enumerate(zip(values, ref)):
        v, w = np.broadcast_to(v, (50,)), np.broadcast_to(np.asarray(w, dtype=float), (50,))
        err = np.abs(v - w) / np.maximum(1.0, np.abs(w))
        assert err.max() <= 1e-12, (k, float(err.max()))
