"""Point-symmetry machinery for scalar second-order evolution equations.

Everything works on the jet space with coordinates
``x, t, u, u_x, u_t, u_xx, u_xt, u_xxx``.  The heat-picture variables
(tau, phi) are represented by the same (t, u) names internally; callers that
prefer tau/phi spelling can parse through `parse_xtu`.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import expr as ex
from .expr import Expr

JET_SYMBOLS = ("x", "t", "u", "u_x", "u_t", "u_xx", "u_xt", "u_xxx")

_HEAT_NAMES = {"tau": "t", "phi": "u"}


def parse_xtu(text: str) -> Expr:
    """Parse an expression written in either (x,t,u) or (x,tau,phi) naming
    into the internal (x,t,u) convention."""
    return ex.rename(ex.parse(text), _HEAT_NAMES)


@dataclass(frozen=True)
class Generator:
    """Infinitesimal generator xi1*d/dx + xi2*d/dt + eta*d/du."""

    xi1: Expr
    xi2: Expr
    eta: Expr

    @classmethod
    def parse(cls, xi1: str, xi2: str, eta: str) -> "Generator":
        return cls(parse_xtu(xi1), parse_xtu(xi2), parse_xtu(eta))

    def __add__(self, other: "Generator") -> "Generator":
        return Generator(self.xi1 + other.xi1, self.xi2 + other.xi2, self.eta + other.eta)

    def scale(self, c) -> "Generator":
        return Generator(ex.mul(c, self.xi1), ex.mul(c, self.xi2), ex.mul(c, self.eta))

    def subs(self, mapping: Mapping[str, object]) -> "Generator":
        return Generator(
            ex.subs(self.xi1, mapping), ex.subs(self.xi2, mapping), ex.subs(self.eta, mapping)
        )

    def apply(self, f: Expr) -> Expr:
        """First-order action on a function of (x, t, u)."""
        return (
            self.xi1 * ex.diff(f, "x") + self.xi2 * ex.diff(f, "t") + self.eta * ex.diff(f, "u")
        )

    def free_parameters(self) -> set[str]:
        names = ex.free_symbols(self.xi1) | ex.free_symbols(self.xi2) | ex.free_symbols(self.eta)
        return names - {"x", "t", "u"}


def commutator(g1: Generator, g2: Generator) -> Generator:
    """Lie bracket [g1, g2], computed exactly on the coefficient functions."""
    return Generator(
        g1.apply(g2.xi1) - g2.apply(g1.xi1),
        g1.apply(g2.xi2) - g2.apply(g1.xi2),
        g1.apply(g2.eta) - g2.apply(g1.eta),
    )


@dataclass(frozen=True)
class EvolutionPDE:
    """u_t = rhs(x, t, u, u_x, u_xx), parabolic (rhs must involve u_xx)."""

    rhs: Expr

    def __post_init__(self):
        extra = ex.free_symbols(self.rhs) - {"x", "t", "u", "u_x", "u_xx"}
        jetlike = extra & {"u_t", "u_xt", "u_xxx"}
        if jetlike:
            raise ValueError(f"rhs must not contain {sorted(jetlike)}")
        if "u_xx" not in ex.free_symbols(self.rhs):
            raise ValueError("rhs does not depend on u_xx; equation is not parabolic")


def _total_x(f: Expr) -> Expr:
    """Total x-derivative on the jet, for f(x,t,u,u_x,u_t,u_xx)."""
    return (
        ex.diff(f, "x")
        + ex.sym("u_x") * ex.diff(f, "u")
        + ex.sym("u_xx") * ex.diff(f, "u_x")
        + ex.sym("u_xt") * ex.diff(f, "u_t")
        + ex.sym("u_xxx") * ex.diff(f, "u_xx")
    )


def _total_t(f: Expr) -> Expr:
    return ex.diff(f, "t") + ex.sym("u_t") * ex.diff(f, "u") + ex.sym("u_xt") * ex.diff(f, "u_x")


def prolong2(g: Generator) -> dict[str, Expr]:
    """Second-prolongation coefficients eta_x, eta_t, eta_xx of a generator."""
    u_x, u_t, u_xx, u_xt = (ex.sym(s) for s in ("u_x", "u_t", "u_xx", "u_xt"))
    eta_x = _total_x(g.eta) - u_x * _total_x(g.xi1) - u_t * _total_x(g.xi2)
    eta_t = _total_t(g.eta) - u_x * _total_t(g.xi1) - u_t * _total_t(g.xi2)
    eta_xx = _total_x(eta_x) - u_xx * _total_x(g.xi1) - u_xt * _total_x(g.xi2)
    return {"eta_x": eta_x, "eta_t": eta_t, "eta_xx": eta_xx}


def symmetry_condition_terms(pde: EvolutionPDE, g: Generator) -> list[Expr]:
    """The summands of the linearized symmetry condition applied to
    Delta = rhs - u_t, restricted to the solution manifold.

    The on-manifold substitution replaces u_xt by the total x-derivative of
    the rhs first and u_t by the rhs afterwards; the remaining free jet
    coordinates are x, t, u, u_x, u_xx, u_xxx.
    """
    rhs = pde.rhs
    partials = [ex.diff(rhs, v) for v in ("x", "t", "u", "u_x", "u_xx")]
    return _on_manifold(g, rhs, partials, _total_x(rhs))  # _total_x(rhs) has no u_t, u_xt


# The source of the class u_t = u_xx + F(x, t, u) and its partials, as the
# symbols that `class_condition_terms` leaves free.
CLASS_SOURCE = ("F", "F_x", "F_t", "F_u")


def class_condition_terms(g: Generator) -> list[Expr]:
    """The summands of `symmetry_condition_terms` for every equation
    u_t = u_xx + F(x, t, u) at once: F, F_x, F_t and F_u stay symbols, and
    their values at a jet point give the summands of that point for the
    given source."""
    F, F_x, F_t, F_u = map(ex.sym, CLASS_SOURCE)
    partials = [F_x, F_t, F_u, ex.num(0), ex.num(1)]
    return _on_manifold(g, ex.sym("u_xx") + F, partials,
                        F_x + ex.sym("u_x") * F_u + ex.sym("u_xxx"))


def _on_manifold(g: Generator, rhs: Expr, partials: Sequence[Expr], u_xt: Expr) -> list[Expr]:
    """The six summands, from the rhs's partials in x, t, u, u_x and u_xx
    and the total x-derivative of the rhs, which replaces u_xt."""
    pro = prolong2(g)
    d_x, d_t, d_u, d_ux, d_uxx = partials
    terms = [
        g.xi1 * d_x,
        g.xi2 * d_t,
        g.eta * d_u,
        pro["eta_x"] * d_ux,
        pro["eta_xx"] * d_uxx,
        ex.mul(-1, pro["eta_t"]),
    ]
    out = []
    for term in terms:
        term = ex.substitute(term, "u_xt", u_xt)
        term = ex.substitute(term, "u_t", rhs)
        out.append(term)
    return out


@dataclass
class SymmetryReport:
    max_abs: float
    mean_abs: float
    points_failed: int
    n_points: int
    tolerance: float
    skipped_domain_errors: int = 0

    @property
    def passed(self) -> bool:
        return self.max_abs < self.tolerance


DEFAULT_BOX: dict[str, tuple[float, float]] = {
    "x": (0.5, 1.5), "t": (-0.5, 0.5), "u": (0.5, 1.5),
    "u_x": (-1.0, 1.0), "u_xx": (-1.0, 1.0), "u_xxx": (-1.0, 1.0),
}


class UnsamplableError(ValueError):
    pass


# The jet coordinates left free on the solution manifold, in argument order.
CONDITION_ARGS = tuple(s for s in JET_SYMBOLS if s not in ("u_t", "u_xt"))


@functools.lru_cache(maxsize=256)
def _condition(pde: EvolutionPDE, g: Generator) -> tuple[Callable[..., tuple], tuple[str, ...], int]:
    """The symmetry condition of ``g`` for ``pde``, derived and compiled once:
    the compiled function, its argument names (the free jet coordinates, then
    the parameters in sorted order) and the number of summands.  The summands
    themselves are not kept."""
    terms = symmetry_condition_terms(pde, g)
    params = set().union(*[ex.free_symbols(t) for t in terms]) - set(CONDITION_ARGS)
    argnames = CONDITION_ARGS + tuple(sorted(params))
    return ex.compile_exprs(terms, argnames), argnames, len(terms)


def check_symmetry(pde: EvolutionPDE, g: Generator, n: int = 100, seed: int = 0,
                   box: Mapping[str, tuple[float, float]] | None = None,
                   params: Mapping[str, float] | None = None,
                   tolerance: float = 1e-8) -> SymmetryReport:
    """Batch residual check over randomly sampled jet points.

    The residual is scaled by the magnitude of the largest summand of the
    symmetry condition at each point, so entries with huge exponential
    factors do not trip the tolerance spuriously.  Deterministic given seed.
    The condition is derived and compiled once per (pde, g), with any
    parameters left as arguments bound from ``params``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    full_box = dict(DEFAULT_BOX)
    if box:
        full_box.update(box)
    fn, argnames, n_terms = _condition(pde, g)
    extra = argnames[len(CONDITION_ARGS):]
    if extra and not params:
        raise ValueError(f"unbound parameters {list(extra)}; pass params=")
    fixed = [float(params[name]) for name in extra]
    lows = [full_box[s][0] for s in CONDITION_ARGS]
    highs = [full_box[s][1] for s in CONDITION_ARGS]

    # Blocks of exactly the points still needed draw the same stream as one
    # point at a time, so the sample is the first n defined points drawn.
    rng = np.random.default_rng(seed)
    kept = []
    found = skipped = attempts = 0
    while found < n:
        m = min(n - found, 50 * n - attempts)
        if m <= 0:
            raise UnsamplableError(
                "could not sample enough jet points without domain violations"
            )
        attempts += m
        block = rng.uniform(lows, highs, size=(m, len(CONDITION_ARGS)))
        values, _ = fn(*block.T.copy(), *fixed)
        (res,), (mask,) = ex.scale_residuals(values, n_terms)
        kept.append(res[~mask])
        found += m - int(mask.sum())
        skipped += int(mask.sum())
    values = np.concatenate(kept).tolist()
    max_abs = max(values)
    return SymmetryReport(
        max_abs=max_abs,
        mean_abs=statistics.fmean(values),
        points_failed=sum(v >= tolerance for v in values),
        n_points=n,
        tolerance=tolerance,
        skipped_domain_errors=skipped,
    )


def classification_residual(fhat: Expr, F1: Expr, F2: Expr, F3: Expr, F4: Expr,
                            p: Mapping[str, float]) -> float:
    """Residual of the classification equation of the heat-with-source class
    at a point {x, t, u(=phi)}; F1 = F1(x,t), F2..F4 functions of t only.

    Vanishes identically when (F1..F4) encode a point symmetry of
    u_t = u_xx + fhat(x, u).
    """
    fhat = ex.rename(fhat, _HEAT_NAMES)
    F1 = ex.rename(F1, _HEAT_NAMES)
    F2, F3, F4 = (ex.rename(F, _HEAT_NAMES) for F in (F2, F3, F4))
    x, u = ex.sym("x"), ex.sym("u")
    f_u = ex.diff(fhat, "u")
    f_x = ex.diff(fhat, "x")
    F2p, F2pp, F2ppp = ex.diff(F2, "t"), ex.diff(F2, "t", 2), ex.diff(F2, "t", 3)
    F3p, F3pp = ex.diff(F3, "t"), ex.diff(F3, "t", 2)
    F4p = ex.diff(F4, "t")
    bracket = 8 * F4 + x * (x * F2pp - 4 * F3p)
    residual = (
        f_u * (F1 + ex.num(ex.Fraction(1, 8)) * u * bracket)
        + ex.diff(F1, "x", 2)
        - ex.num(ex.Fraction(1, 8)) * fhat * bracket
        + f_x * (F3 - x * F2p / 2)
        + u * F2pp / 4
        - fhat * F2p
        - ex.diff(F1, "t")
        + ex.num(ex.Fraction(1, 8)) * u * (x * (4 * F3pp - x * F2ppp) - 8 * F4p)
    )
    env = {_HEAT_NAMES.get(k, k): float(v) for k, v in p.items()}
    return ex.evaluate(residual, env)


def invariant_surface(g: Generator) -> Expr:
    """eta - xi1*u_x - xi2*u_t, the invariant surface condition."""
    return g.eta - g.xi1 * ex.sym("u_x") - g.xi2 * ex.sym("u_t")


def solution_invariance_residual(g: Generator, u: Expr,
                                 pts: Sequence[tuple[float, float]],
                                 params: Mapping[str, float] | None = None) -> float:
    """Max of |eta - xi1*u_x - xi2*u_t| over (x,t) points with the explicit
    solution u(x,t) and its derivatives substituted in, scaled per point by
    the largest summand so solutions of huge magnitude are judged relative
    to their size."""
    u = ex.rename(u, _HEAT_NAMES)
    ux, ut = ex.diff(u, "x"), ex.diff(u, "t")
    sub = {"u_x": ux, "u_t": ut, "u": u}
    terms = [
        ex.subs(g.eta, sub),
        ex.num(-1) * ex.subs(g.xi1, sub) * ux,
        ex.num(-1) * ex.subs(g.xi2, sub) * ut,
    ]
    xs, ts = np.array(pts, dtype=float).T.copy()
    points = {"x": xs, "t": ts}
    points.update({k: float(v) for k, v in (params or {}).items()})
    res, mask = ex.scaled_residual(terms, points)
    if mask.any():
        ex.evaluate_many(terms, points)  # raises, naming the failing subexpression
    return float(np.max(res, initial=0.0))
