"""The spelling rule: input may use (x, t, u) or the heat picture's
(x, tau, phi); every stored and returned expression is in (x, t, u)."""

import dataclasses

from heathsym import expr as ex
from heathsym import lie
from heathsym import solutions as so
from heathsym import solver as sv

HEAT_SPELLING = {"tau", "phi"}


def test_stored_expressions_use_xtu():
    a, b, T = 1.0, 1.0, 1.0
    spec = so.exponential_barrier(a, b, 0.05, 0.9, 100.0, T, 1.0)
    bs = so.barrier_solution(a, b, 0.05, 0.9, 100.0, T, 1.0)
    exprs = {
        "exponential_barrier.H": spec.H,
        "exponential_barrier.R": spec.R,
        "barrier_H_general": so.barrier_H_general(a, b, 1.0, -3.0, 1, 1, 1, 1),
        "barrier_R_general": so.barrier_R_general(a, b, 1.0, -3.0, 1, 1, 1, 1, 1, 1),
        "terminal_reduction_F": so.terminal_reduction_F(a, b, T),
    }
    forms = {
        "terminal": so.terminal_solution(a, b, T),
        "terminal_phi_form": so.terminal_phi_form(a, b, T),
        "barrier.heat": bs.heat,
        "A22": so.example_A22(a, b, 0.0),
        "A359": so.example_A359(a, b, -1.0),
    }
    for name, sol in forms.items():
        exprs[f"{name}.u"] = sol.u
        exprs[f"{name}.model"] = sol.model.pde().rhs
    spelled = {name: sorted(ex.free_symbols(e) & HEAT_SPELLING) for name, e in exprs.items()}
    assert spelled == {name: [] for name in exprs}


def test_barrier_spec_reads_the_heat_spelling():
    bs = so.barrier_solution(1.0, 1.0, 0.05, 0.9, 1.0, 1.0, 1.0)
    in_tau = dataclasses.replace(bs.spec, H=ex.rename(bs.spec.H, {"t": "tau"}),
                                 R=ex.rename(bs.spec.R, {"t": "tau"}))
    assert (in_tau.H, in_tau.R) == (bs.spec.H, bs.spec.R)
    ref = bs.heat.u
    grid = sv.GridSpec(0.3, 2.5, 64, -0.5, 0.0, 120)
    runs = [sv.solve_barrier(bs.heat.model, spec, grid, sv.SchemeConfig(), ref)
            for spec in (bs.spec, in_tau)]
    assert len(runs[0]) == len(runs[1])
    for one, two in zip(*runs):
        assert one.tau == two.tau and one.phi.tobytes() == two.phi.tobytes()


def test_heat_str_inverts_parse_xtu():
    e = lie.parse_xtu("phi*(3*ln(abs(phi)) + x^2/2) + exp(-tau)")
    assert ex.free_symbols(e) == {"x", "t", "u"}
    assert lie.parse_xtu(lie.heat_str(e)) == e
    assert lie.parse_xtu(e) == e
