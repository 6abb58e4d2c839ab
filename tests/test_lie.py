import math

import numpy as np
import pytest

from heathsym import expr as ex
from heathsym.lie import (
    DEFAULT_BOX,
    EvolutionPDE,
    Generator,
    check_symmetry,
    classification_residual,
    commutator,
    invariant_surface,
    prolong2,
    solution_invariance_residual,
    symmetry_condition_terms,
)

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
