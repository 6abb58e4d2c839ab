"""The two equation pictures and the bridge between them.

Heath picture:   u_t = a u_x + u_x^2/2 - (b^2/2) u_xx + f(x, u)
Heat picture:    phi_tau = phi_xx + fhat(x, phi)

connected by tau = -(b^2/2) t, phi = exp(-(a x + u)/b^2).  The map is a
bijection onto phi > 0 and all sampling honors that.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import expr as ex
from .expr import Expr
from .lie import EvolutionPDE, parse_xtu

_PHI_SAMPLES = [0.31, 0.57, 0.86, 1.22, 1.73]
_X_SAMPLES = [0.45, 0.8, 1.15, 1.5]
# every (x, phi) sample pair, x-major
_SAMPLE_POINTS = {"x": np.repeat(_X_SAMPLES, len(_PHI_SAMPLES)),
                  "u": np.tile(_PHI_SAMPLES, len(_X_SAMPLES))}


class DegenerateSourceWarning(UserWarning):
    """The transformed source is affine in phi: the input lies on the
    linearizable boundary of the class."""


@dataclass(frozen=True)
class HeathModel:
    a: float
    b: float
    f: Expr  # in (x, u)

    def __post_init__(self):
        if self.b == 0:
            raise ValueError("b must be nonzero")
        extra = ex.free_symbols(self.f) - {"x", "u"}
        if extra:
            raise ValueError(f"f may only contain x and u; found {sorted(extra)}")

    @classmethod
    def parse(cls, a: float, b: float, f: str) -> "HeathModel":
        return cls(a, b, ex.parse(f))

    def pde(self) -> EvolutionPDE:
        return heath_pde(ex.num(self.a), ex.num(self.b), self.f)


def heath_pde(a: Expr, b: Expr, f: Expr) -> EvolutionPDE:
    """u_t = a u_x + u_x^2/2 - (b^2/2) u_xx + f, for numbers a and b or, in a
    template, symbols."""
    rhs = (
        a * ex.sym("u_x")
        + ex.sym("u_x") ** 2 / 2
        - b * b / 2 * ex.sym("u_xx")
        + f
    )
    return EvolutionPDE(rhs)


@dataclass(frozen=True)
class HeatSourceModel:
    fhat: Expr  # in (x, u), u standing for phi; text or Expr in either spelling

    def __post_init__(self):
        object.__setattr__(self, "fhat", parse_xtu(self.fhat))
        extra = ex.free_symbols(self.fhat) - {"x", "u"}
        if extra:
            raise ValueError(f"fhat may only contain x and phi; found {sorted(extra)}")

    def pde(self) -> EvolutionPDE:
        return EvolutionPDE(ex.sym("u_xx") + self.fhat)

    def is_degenerate(self, tol: float = 1e-9) -> bool:
        """True when fhat is affine in phi on the sampled domain."""
        return vanishes(ex.diff(self.fhat, "u", 2), _SAMPLE_POINTS, tol)


def vanishes(e: Expr, points: Mapping[str, np.ndarray], tol: float) -> bool:
    """|e| <= tol at every point.  Points are judged in order: an undefined
    point raises DomainError unless an earlier point already exceeds tol."""
    (v,), mask = ex.compile_exprs([e], tuple(points))(*points.values())
    decisive = np.flatnonzero(mask | (np.abs(v) > tol))
    if decisive.size and mask[decisive[0]]:
        i = decisive[0]
        ex.evaluate(e, {k: pts[i] for k, pts in points.items()})  # raises
    return decisive.size == 0


@dataclass(frozen=True)
class CoordinateMap:
    """Forward (x,t,u) -> (x,tau,phi) and its inverse, as expression triples
    in (x, t, u): the inverse's t and u stand for tau and phi."""

    forward: tuple[Expr, Expr, Expr]
    inverse: tuple[Expr, Expr, Expr]

    @classmethod
    def heath_heat(cls, a: float, b: float) -> "CoordinateMap":
        an, bn = ex.num(a), ex.num(b)
        x, t, u = ex.sym("x"), ex.sym("t"), ex.sym("u")
        fwd = (x, -bn * bn / 2 * t, ex.exp(-(an * x + u) / (bn * bn)))
        inv = (x, -2 * t / (bn * bn), -bn * bn * ex.ln(u) - an * x)
        return cls(fwd, inv)

    def push_forward(self, xv: float, tv: float, uv: float) -> tuple[float, float, float]:
        env = {"x": xv, "t": tv, "u": uv}
        return tuple(ex.evaluate(e, env) for e in self.forward)

    def pull_back(self, xv: float, tauv: float, phiv: float) -> tuple[float, float, float]:
        env = {"x": xv, "t": tauv, "u": phiv}
        return tuple(ex.evaluate(e, env) for e in self.inverse)


def heath_to_heat(m: HeathModel) -> tuple[HeatSourceModel, CoordinateMap]:
    """Source of the heat-picture image: fhat = phi*(2 f - a^2)/b^4 with
    u eliminated through u = -b^2 ln(phi) - a x.

    Emits DegenerateSourceWarning (not an error) when the image is affine in
    phi, i.e. the input is linearizable.
    """
    a, b = ex.num(m.a), ex.num(m.b)
    phi = ex.sym("u")  # internal phi symbol
    u_of_phi = -b * b * ex.ln(phi) - a * ex.sym("x")
    f_sub = ex.substitute(m.f, "u", u_of_phi)
    fhat = phi * (2 * f_sub - a * a) / (b * b * b * b)
    h = HeatSourceModel(ex.simplify(fhat))
    if h.is_degenerate():
        warnings.warn(
            "transformed source is affine in phi (linearizable input)",
            DegenerateSourceWarning,
            stacklevel=2,
        )
    return h, CoordinateMap.heath_heat(m.a, m.b)


def heat_to_heath(h: HeatSourceModel, a: float, b: float) -> HeathModel:
    """Inverse of heath_to_heat: f = (a^2 + b^4 * fhat(x, phi)/phi)/2 with
    phi = exp(-(a x + u)/b^2)."""
    if b == 0:
        raise ValueError("b must be nonzero")
    an, bn = ex.num(a), ex.num(b)
    phi_of_u = ex.exp(-(an * ex.sym("x") + ex.sym("u")) / (bn * bn))
    fhat_sub = ex.substitute(h.fhat, "u", phi_of_u)
    f = (an * an + bn ** 4 * fhat_sub / phi_of_u) / 2
    return HeathModel(a, b, ex.simplify(f))


def pde_residual(pde: EvolutionPDE, u: Expr | str, pts: Sequence[tuple[float, float]],
                 params: Mapping[str, float] | None = None) -> float:
    """Max of |u_t - rhs| over (x,t) points for an explicit candidate u(x,t),
    scaled per point by max(1, |summand|) over the additive pieces of the
    equation so fields of huge magnitude are judged relative to their size.
    Symbols of ``pde`` and ``u`` other than x and t are parameters, bound
    from ``params``: the summands are derived and compiled once per
    (pde, u), so a template serves every parameter value."""
    xs = np.array([p[0] for p in pts], dtype=float)
    ts = np.array([p[1] for p in pts], dtype=float)
    return _residual_form(pde, u).max_scaled_residual((xs, ts), params)


@functools.lru_cache(maxsize=32)
def _residual_form(pde: EvolutionPDE, u: Expr | str) -> ex.Form:
    """The summands u_t and -rhs term by term, with u and its x-derivatives
    substituted for the jet, compiled in (x, t, parameters).  The closed
    forms key it by their six (PDE, field) templates; the bound of 32 keeps
    a caller that passes a new filled field per draw from growing it."""
    u = parse_xtu(u)
    jet = {"u": u, "u_x": ex.diff(u, "x"), "u_xx": ex.diff(u, "x", 2)}
    rhs_terms = pde.rhs.args if pde.rhs.op == "add" else (pde.rhs,)
    terms = [ex.diff(u, "t")] + [ex.num(-1) * ex.subs(t, jet) for t in rhs_terms]
    return ex.compile_form(terms, ("x", "t"))


def residual_ratio_factor(a: float, b: float) -> Expr:
    """Exact factor linking the two pictures' residuals: for any smooth
    u(x,t) with heat-picture image phi, heat-residual = factor * heath-residual
    at corresponding points.  The factor is 2 phi / b^4 expressed in (x,t,u)."""
    an, bn = ex.num(a), ex.num(b)
    return 2 * ex.exp(-(an * ex.sym("x") + ex.sym("u")) / (bn * bn)) / bn ** 4


def apply_equivalence(h: HeatSourceModel, d0: float, d1: float, d3: float, d4: float,
                      F: Expr | str = "0") -> HeatSourceModel:
    """Push the source through an equivalence-group element
    x~ = d4 x + d3, tau~ = d4^2 tau + d0, phi~ = d1 phi + F(x).

    The transformed source, written in the new variables (renamed back to
    plain x, phi), is (d1 fhat(x, phi) + F''(x)) / d4^2 with
    x = (x~ - d3)/d4 and phi = (phi~ - F(x))/d1.
    """
    if d4 == 0 or d1 == 0:
        raise ValueError("equivalence transformation requires d1 != 0 and d4 != 0")
    F = parse_xtu(F)
    if ex.free_symbols(F) - {"x"}:
        raise ValueError("F must be a function of x only")
    x_new, phi_new = ex.sym("x"), ex.sym("u")
    x_old = (x_new - ex.num(d3)) / ex.num(d4)
    F_at_old = ex.substitute(F, "x", x_old)
    phi_old = (phi_new - F_at_old) / ex.num(d1)
    Fpp = ex.substitute(ex.diff(F, "x", 2), "x", x_old)
    fhat_old = ex.subs(h.fhat, {"x": x_old, "u": phi_old})
    fhat_new = (ex.num(d1) * fhat_old + Fpp) / ex.num(d4) ** 2
    return HeatSourceModel(ex.simplify(fhat_new))


def is_linearizable(m: HeathModel, tol: float = 1e-9) -> tuple[bool, Expr | None]:
    """Check the linearizable boundary of the class: the heat-picture source
    is affine in phi.  When the source is independent of phi the witness
    g(x) = b^4 * fhat(x) of the f-form (exp((a x + u)/b^2) g(x) + a^2)/2 is
    returned; otherwise the witness is None."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSourceWarning)
        h, _ = heath_to_heat(m)
    if not h.is_degenerate(tol):
        return False, None
    if not vanishes(ex.diff(h.fhat, "u"), _SAMPLE_POINTS, tol):
        return True, None
    g = ex.simplify(ex.num(m.b) ** 4 * ex.substitute(h.fhat, "u", ex.num(1)))
    return True, g
