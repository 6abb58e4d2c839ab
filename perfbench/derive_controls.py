"""Derive the known "no" answers of the verify workload's controls with sympy.

A control takes a catalog entry's generators and a source pushed out of the
entry's family (one term scaled or shifted).  This script derives, without
heathsym's symmetry machinery, which generators stop being symmetries, and
writes the result to ``data/controls.json``; the benchmark compares
heathsym's verdicts with that file.

The derivation uses the characteristic form.  For X = xi d_x + tau d_t +
eta d_u and Delta = u_t - u_xx - F(x, u), with Q = eta - xi u_x - tau u_t,
the second prolongation of X applied to Delta is, on solutions of Delta = 0,

    D_t Q - D_x^2 Q - F_u Q,

after every t-derivative of u is replaced through u_t = u_xx + F.  The
condition is evaluated in exact arithmetic (30 digits) at 40 seeded jet
points.  A generator counts as failing when the condition reaches 1e-6 for
the control source while it stays below 1e-12 for the catalog's own source.

Run from the repository root:  python3 perfbench/derive_controls.py
(the catalog's template text and parameter data are read from ``src``).
"""

from __future__ import annotations

import json
import os
import random
import sys

import sympy as sp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import heathsym.catalog as cat  # noqa: E402  (template text and boxes only)

CONTROLS = [
    {"entry": "A_3_5_9", "variant": "plus", "params": {"B": 1.0},
     "fhat": "-exp(x)*phi^2 - 1.5*(1/4)*exp(-x)",
     "why": "x-profile term exp(-B x) scaled by 1.5"},
    {"entry": "A_4_4", "variant": "plus", "params": {"A": 1.0, "B": 2.0},
     "fhat": "phi*(ln(abs(phi)) + 3*x)",
     "why": "linear-in-x coefficient B moved from 2 to 3 in the source only"},
    {"entry": "A_4_1", "variant": "plus", "params": {"A": 3.0, "B": 0.5},
     "fhat": "phi*(3*ln(abs(phi)) + 0.6*x^2)",
     "why": "quadratic coefficient B moved from 0.5 to 0.6 in the source only"},
    {"entry": "A_4_3", "variant": "plus", "params": {},
     "fhat": "phi*(x^2/8 + ln(abs(phi)))",
     "why": "x^2/16 doubled"},
    {"entry": "A_3_5_2", "variant": "minus", "params": {"A": 1.0, "B": 2.0},
     "fhat": "(5 + 2 + x^2)*phi/9 - exp(x^2/2)*abs(phi)^(-2)",
     "why": "literal tabulated reading: outer sign of the linear term omitted"},
]

# u0 > 0 in every sample box, so abs(phi) and abs(psi) reduce to their
# arguments before differentiation.
x, t = sp.symbols("x t", real=True)
u0 = sp.Symbol("u0", positive=True)
U = sp.Function("u", real=True)(x, t)


def _sym(text: str, params: dict, variant: str) -> sp.Expr:
    subs = {k: sp.Float(v, 30) for k, v in params.items()}
    subs.update({"pm": 1, "mp": -1} if variant == "plus" else {"pm": -1, "mp": 1})
    text = text.replace("^", "**")
    local = {"phi": u0, "u": u0, "tau": t, "t": t, "x": x, "ln": sp.log, "exp": sp.exp,
             "abs": sp.Abs, "sqrt": sp.sqrt, "sin": sp.sin, "cos": sp.cos}
    local.update({k: sp.sympify(v) for k, v in subs.items()})
    return sp.sympify(text, locals=local)


def _source(spec, params, variant) -> sp.Expr:
    text = spec.fhat
    if spec.psi is not None:
        text = text.replace("psi", f"({spec.psi})")
    return _sym(text, params, variant)


def condition(F: sp.Expr, gen: tuple[sp.Expr, sp.Expr, sp.Expr]) -> sp.Expr:
    """On-solution symmetry condition in jet coordinates x, t, u0, u1..u4."""
    xi, ta, eta = (g.subs(u0, U) for g in gen)
    FU = F.subs(u0, U)
    Q = eta - xi * U.diff(x) - ta * U.diff(t)
    cond = Q.diff(t) - Q.diff(x, 2) - sp.diff(F, u0).subs(u0, U) * Q
    rhs = U.diff(x, 2) + FU
    while True:
        tders = [d for d in cond.atoms(sp.Derivative)
                 if d.expr == U and any(v == t for v, _ in d.variable_count)]
        if not tders:
            break
        rep = {}
        for d in tders:
            counts = dict(d.variable_count)
            nt, nx = counts.get(t, 0), counts.get(x, 0)
            r = rhs
            if nx:
                r = r.diff(x, nx)
            if nt > 1:
                r = r.diff(t, nt - 1)
            rep[d] = r
        cond = cond.xreplace(rep)
    jets = sp.symbols("u1:5")
    rep = {U.diff(x, k): jets[k - 1] for k in range(4, 0, -1)}
    cond = cond.xreplace(rep).xreplace({U: u0})
    return cond, jets


def worst(cond, jets, box, rng) -> float:
    fn = sp.lambdify((x, t, u0) + tuple(jets), cond, modules="mpmath")
    import mpmath

    mpmath.mp.dps = 30
    top = 0.0
    for _ in range(40):
        pt = [rng.uniform(*box["x"]), rng.uniform(-0.5, 0.5), rng.uniform(*box["u"])]
        pt += [rng.uniform(-1.0, 1.0) for _ in jets]
        top = max(top, float(abs(fn(*[mpmath.mpf(v) for v in pt]))))
    return top


def main() -> None:
    out = []
    for ctl in CONTROLS:
        spec = cat.get_spec(ctl["entry"])
        box = {"x": (0.6, 1.4), "u": (0.5, 1.5)}
        box.update(spec.box)
        params = dict(spec.defaults)
        params.update(ctl["params"])
        catalog_F = _source(spec, params, ctl["variant"])
        control_F = _sym(ctl["fhat"], params, ctl["variant"])
        base, moved = [], []
        for (a, b, c) in spec.generators:
            gen = tuple(_sym(s, params, ctl["variant"]) for s in (a, b, c))
            rng = random.Random(1)
            base.append(worst(*condition(catalog_F, gen), box, rng))
            moved.append(worst(*condition(control_F, gen), box, rng))
        if max(base) >= 1e-12:
            raise SystemExit(f"{ctl['entry']}: catalog source fails its own generators {base}")
        failing = [i for i, v in enumerate(moved) if v >= 1e-6]
        if not failing:
            raise SystemExit(f"{ctl['entry']}: control source is not pushed out {moved}")
        print(ctl["entry"], "failing", failing, "max |condition|", [f"{v:.3g}" for v in moved])
        out.append({**ctl, "params": params, "failing_generators": failing,
                    "sympy_max_abs_catalog": base, "sympy_max_abs_control": moved})
    path = os.path.join(HERE, "data", "controls.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"derived_by": "perfbench/derive_controls.py", "controls": out}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
