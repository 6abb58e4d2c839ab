"""Point-symmetry machinery for scalar second-order evolution equations.

Everything works on the jet space with coordinates
``x, t, u, u_x, u_t, u_xx, u_xt, u_xxx``.  The heat-picture variables
(tau, phi) are represented by the same (t, u) names: `parse_xtu` is the one
reader of the tau/phi spelling, and `heat_str` prints an expression back in
it.
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


def parse_xtu(e: str | Expr) -> Expr:
    """An expression written in (x, t, u) or in the heat picture's
    (x, tau, phi), as text or as an Expr, in the (x, t, u) names that every
    stored and returned expression uses.  Either spelling may be used on
    input; mixing tau with t (or phi with u) merges them."""
    return ex.rename(ex.parse(e) if isinstance(e, str) else e, _HEAT_NAMES)


def heat_str(e: Expr) -> str:
    """The text of a heat-picture expression in (x, tau, phi): the inverse
    of `parse_xtu`'s renaming, for output."""
    return ex.to_str(ex.rename(e, {v: k for k, v in _HEAT_NAMES.items()}))


@dataclass(frozen=True)
class Generator:
    """Infinitesimal point generator xi1*d/dx + xi2*d/dt + eta*d/du: the
    coefficients are functions of (x, t, u) and parameters only."""

    xi1: Expr
    xi2: Expr
    eta: Expr

    def __post_init__(self):
        jetlike = self.free_parameters() & set(JET_SYMBOLS)
        if jetlike:
            raise ValueError(f"a point generator must not contain {sorted(jetlike)}")

    @classmethod
    def parse(cls, xi1: str, xi2: str, eta: str) -> "Generator":
        return cls(parse_xtu(xi1), parse_xtu(xi2), parse_xtu(eta))

    def subs(self, mapping: Mapping[str, object]) -> "Generator":
        return Generator(
            ex.subs(self.xi1, mapping), ex.subs(self.xi2, mapping), ex.subs(self.eta, mapping)
        )

    def apply(self, f: Expr) -> Expr:
        """First-order action on a function of (x, t, u)."""
        f_x, f_t, f_u, *_ = _jets(f)
        return self.xi1 * f_x + self.xi2 * f_t + self.eta * f_u

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


@functools.lru_cache(maxsize=64)
def _jets(f: Expr) -> tuple[Expr, ...]:
    """f_x, f_t, f_u, f_xx, f_xu, f_uu: the partials of a function of
    (x, t, u) that the second prolongation of a point generator needs."""
    f_x, f_u = ex.diff(f, "x"), ex.diff(f, "u")
    return f_x, ex.diff(f, "t"), f_u, ex.diff(f_x, "x"), ex.diff(f_x, "u"), ex.diff(f_u, "u")


def _prolong(g: Generator, u_t: Expr, u_xt: Expr) -> tuple[Expr, Expr, Expr]:
    """eta^x, eta^t and eta^xx of a point generator, in closed form from the
    partials of xi1, xi2 and eta up to order 2 (Olver, Applications of Lie
    Groups to Differential Equations, Thm 2.36), with the given expressions
    standing for u_t and u_xt."""
    X_x, X_t, X_u, X_xx, X_xu, X_uu = _jets(g.xi1)
    T_x, T_t, T_u, T_xx, T_xu, T_uu = _jets(g.xi2)
    E_x, E_t, E_u, E_xx, E_xu, E_uu = _jets(g.eta)
    u_x, u_xx = ex.sym("u_x"), ex.sym("u_xx")
    eta_x = E_x + (E_u - X_x) * u_x - T_x * u_t - X_u * u_x**2 - T_u * u_x * u_t
    eta_t = E_t + (E_u - T_t) * u_t - X_t * u_x - X_u * u_x * u_t - T_u * u_t**2
    eta_xx = ex.add(
        E_xx, (2 * E_xu - X_xx) * u_x, -T_xx * u_t, (E_uu - 2 * X_xu) * u_x**2,
        -2 * T_xu * u_x * u_t, -X_uu * u_x**3, -T_uu * u_x**2 * u_t,
        (E_u - 2 * X_x) * u_xx, -2 * T_x * u_xt, -3 * X_u * u_x * u_xx,
        -T_u * u_t * u_xx, -2 * T_u * u_x * u_xt,
    )
    return eta_x, eta_t, eta_xx


def prolong2(g: Generator) -> dict[str, Expr]:
    """Second-prolongation coefficients eta_x, eta_t, eta_xx of a point
    generator by the closed form of `_prolong`, with u_t and u_xt free."""
    eta_x, eta_t, eta_xx = _prolong(g, ex.sym("u_t"), ex.sym("u_xt"))
    return {"eta_x": eta_x, "eta_t": eta_t, "eta_xx": eta_xx}


@functools.lru_cache(maxsize=8)
def _rhs_jets(pde: EvolutionPDE) -> tuple[tuple[Expr, ...], Expr]:
    """The rhs's partials in x, t, u, u_x and u_xx, and its total
    x-derivative."""
    partials = tuple(ex.diff(pde.rhs, v) for v in ("x", "t", "u", "u_x", "u_xx"))
    r_x, _, r_u, r_ux, r_uxx = partials
    u_x, u_xx, u_xxx = (ex.sym(s) for s in ("u_x", "u_xx", "u_xxx"))
    return partials, r_x + u_x * r_u + u_xx * r_ux + u_xxx * r_uxx


def symmetry_condition_terms(pde: EvolutionPDE, g: Generator) -> list[Expr]:
    """The summands of the linearized symmetry condition applied to
    Delta = rhs - u_t, restricted to the solution manifold: u_t is the rhs
    and u_xt its total x-derivative, so the free jet coordinates are x, t,
    u, u_x, u_xx, u_xxx."""
    partials, d_x_rhs = _rhs_jets(pde)
    return _on_manifold(g, pde.rhs, partials, d_x_rhs)


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
    and its total x-derivative: the closed form of `_prolong` is built with
    the rhs for u_t and that derivative for u_xt."""
    eta_x, eta_t, eta_xx = _prolong(g, rhs, u_xt)
    d_x, d_t, d_u, d_ux, d_uxx = partials
    return [g.xi1 * d_x, g.xi2 * d_t, g.eta * d_u, eta_x * d_ux, eta_xx * d_uxx,
            ex.mul(-1, eta_t)]


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
    missing = [name for name in extra if name not in (params or {})]
    if missing:
        raise ValueError(f"unbound parameters {missing}; pass params=")
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
    fhat, F1, F2, F3, F4 = map(parse_xtu, (fhat, F1, F2, F3, F4))
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


def solution_invariance_residual(g: Generator, u: Expr | str,
                                 pts: Sequence[tuple[float, float]],
                                 params: Mapping[str, float] | None = None) -> float:
    """Max of |eta - xi1*u_x - xi2*u_t| over (x,t) points with the explicit
    solution u(x,t) and its derivatives substituted in, scaled per point by
    the largest summand so solutions of huge magnitude are judged relative
    to their size.  Symbols of ``g`` and ``u`` other than x and t are
    parameters, bound from ``params``: the summands are derived and compiled
    once per (g, u)."""
    xs, ts = np.array(pts, dtype=float).T.copy()
    return _invariance_form(g, u).max_scaled_residual((xs, ts), params)


@functools.lru_cache(maxsize=32)
def _invariance_form(g: Generator, u: Expr | str) -> ex.Form:
    """The three summands of the invariant-surface condition on u, compiled
    in (x, t, parameters).  The barrier keys it by one (generator, field)
    template pair; the bound of 32 keeps a caller that passes a new filled
    field per draw from growing it."""
    u = parse_xtu(u)
    ux, ut = ex.diff(u, "x"), ex.diff(u, "t")
    sub = {"u_x": ux, "u_t": ut, "u": u}
    terms = [
        ex.subs(g.eta, sub),
        ex.num(-1) * ex.subs(g.xi1, sub) * ux,
        ex.num(-1) * ex.subs(g.xi2, sub) * ut,
    ]
    return ex.compile_form(terms, ("x", "t"))
