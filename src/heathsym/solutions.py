"""Closed-form similarity solutions for the terminal-value and barrier
problems, each packaged with the exact PDE it solves, a documented safe
sample box, and self-checks.

Conventions: every stored and returned expression is in (x, t, u), the
heat picture's tau and phi included: t stands for tau and u for phi there.
Input may use either spelling (`parse_xtu`); heat-picture output is printed
in (x, tau, phi) (`ClosedFormSolution.to_json`, `sample_csv`).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import expr as ex
from .expr import Expr
from .lie import EvolutionPDE, Generator, heat_str, parse_xtu, solution_invariance_residual
from .model import HeathModel, HeatSourceModel, CoordinateMap, pde_residual


@functools.lru_cache(maxsize=None)
def _parse(text: str) -> Expr:
    """One of this module's constant templates, in (x, t, u), parsed once
    per process (an Expr is immutable, so every caller can share it)."""
    return parse_xtu(text)


def _fill(text: str, **values) -> Expr:
    """A template with the named symbols replaced by numbers or Exprs."""
    return ex.subs(_parse(text), values)


class SampleDomainError(ValueError):
    """A requested sample point violates the solution's safe domain."""


@dataclass(frozen=True)
class ClosedFormSolution:
    """An explicit solution together with its PDE and safe sample box."""

    label: str
    picture: str  # "heath" (x,t,u) or "heat" (x,tau,phi)
    u: Expr  # solution field in internal (x,t) naming
    model: HeathModel | HeatSourceModel
    params: Mapping[str, float]
    box: Mapping[str, tuple[float, float]]
    boundary: Mapping[str, float] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def grid(self, nx: int = 7, nt: int = 7) -> list[tuple[float, float]]:
        xs = np.linspace(*self.box["x"], nx)
        ts = np.linspace(*self.box["t"], nt)
        return [(float(xv), float(tv)) for xv in xs for tv in ts]

    def residual(self, pts: Sequence[tuple[float, float]] | None = None) -> float:
        """Max |u_t - rhs| over the sample grid (or supplied points)."""
        if pts is None:
            pts = self.grid()
        self._guard(pts)
        return pde_residual(self.model.pde(), self.u, pts)

    def _guard(self, pts: Sequence[tuple[float, float]]) -> None:
        sing = self.boundary.get("singular_time")
        if sing is not None:
            for (_, tv) in pts:
                if abs(tv - sing) < 1e-6:
                    raise SampleDomainError(
                        f"sample time {tv} hits the singular time {sing}"
                    )
        pole = self.boundary.get("pole_line")  # x + pole_slope*t + pole_offset = 0
        if pole is not None:
            slope, offset = self.boundary["pole_slope"], self.boundary["pole_offset"]
            for (xv, tv) in pts:
                if abs(xv + slope * tv + offset) < 1e-6:
                    raise SampleDomainError(
                        f"sample point ({xv}, {tv}) hits the pole line"
                    )

    def domain_violation(self) -> str | None:
        """A message when the sample box itself is unsafe (a singular time
        inside the time window, or a pole line crossing the box); None when
        the box is safe."""
        t_lo, t_hi = self.box["t"]
        sing = self.boundary.get("singular_time")
        if sing is not None and t_lo - 1e-9 <= sing <= t_hi + 1e-9:
            return f"singular time {sing} lies inside the sample window"
        if "pole_line" in self.boundary:
            slope = self.boundary["pole_slope"]
            offset = self.boundary["pole_offset"]
            x_lo, x_hi = self.box["x"]
            vals = [
                xc + slope * tc + offset
                for xc in (x_lo, x_hi)
                for tc in (t_lo, t_hi)
            ]
            if min(vals) <= 0.0 <= max(vals):
                return (
                    f"denominator x + {slope:g}*t + {offset:g} vanishes"
                    " inside the sample box"
                )
        return None

    def evaluate(self, xv, tv):
        """The field at (x, t); arrays give an array, floats a float."""
        (v,) = ex.evaluate_many([self.u], {"x": xv, "t": tv})
        return float(v) if np.ndim(v) == 0 else v

    def to_json(self) -> str:
        time_name = "t" if self.picture == "heath" else "tau"
        return json.dumps(
            {
                "label": self.label,
                "picture": self.picture,
                "field": ex.to_str(self.u) if self.picture == "heath" else heat_str(self.u),
                "params": dict(self.params),
                "box": {("x" if k == "x" else time_name): list(v) for k, v in self.box.items()},
                "boundary": dict(self.boundary),
                "notes": list(self.notes),
            },
            indent=2,
        )

    def sample_csv(self, nx: int = 7, nt: int = 7) -> str:
        header = ("x", "t", "u") if self.picture == "heath" else ("x", "tau", "phi")
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        xs, ts = np.array(self.grid(nx, nt)).T
        for xv, tv, uv in zip(xs.tolist(), ts.tolist(), self.evaluate(xs, ts).tolist()):
            w.writerow([repr(xv), repr(tv), repr(uv)])
        return buf.getvalue()


# -- terminal-value problem -------------------------------------------------

_TERMINAL_U = """
exp(-3*b^2*t/2) / (96*b^2*(2*exp(b^2*t/2) - exp(b^2*T/2))) * (
  3*b^6*(exp(2*b^2*T) - 2*exp(b^2*(t+3*T)/2))*T
  - 96*a^2*(exp(2*b^2*T) - exp(b^2*(t+3*T)/2))
  - 96*b^2*(exp(2*b^2*T) - 2*exp(b^2*(t+3*T)/2) + 2*a*exp(2*b^2*t)*x
            - a*exp(b^2*(t+T))*x - a*exp(b^2*(3*t+T)/2)*x)
  + 4*b^4*(2*exp(2*b^2*T) + 3*exp(b^2*(t+T)) - 7*exp(b^2*(t+3*T)/2)
           + 4*exp(2*b^2*t)*(3*x^2-2) - 2*exp(b^2*(3*t+T)/2)*(6*x^2-5))
  - 6*b^4*(exp(2*b^2*T) - 2*exp(b^2*(t+3*T)/2))
         * ln(abs(2*exp(b^2*t/2) - exp(b^2*T/2)))
)
"""

_TERMINAL_F = "a^2/2 + (1/2)*b^4*(x^2/2 - 3*(a*x+u)/b^2)"


def terminal_singular_time(b: float, T: float) -> float:
    """Time where the solution's prefactor denominator vanishes."""
    return T - 2.0 * math.log(2.0) / (b * b)


def terminal_solution(a: float, b: float, T: float) -> ClosedFormSolution:
    """Similarity solution with u(x, T) = 1, for the source that is
    log-linear in the heat picture with quadratic space dependence
    (A = 3, B = 1/2 instance)."""
    if b == 0:
        raise ValueError("b must be nonzero")
    u = _fill(_TERMINAL_U, a=a, b=b, T=T)
    f = _fill(_TERMINAL_F, a=a, b=b)
    t_sing = terminal_singular_time(b, T)
    t_lo = max(T - 0.5, t_sing + 0.2)
    return ClosedFormSolution(
        label="terminal-value similarity solution",
        picture="heath",
        u=u,
        model=HeathModel(a, b, f),
        params={"a": a, "b": b, "T": T},
        box={"x": (-1.0, 1.0), "t": (t_lo, T)},
        boundary={
            "terminal_time": T,
            "terminal_value": 1.0,
            "singular_time": t_sing,
        },
        notes=(
            "prefactor denominator vanishes at the singular time; the sample"
            " box stays on the t > singular_time side",
        ),
    )


def terminal_reduction_constant(a: float, b: float, T: float) -> float:
    """The integration constant pinned by the terminal datum.

    Derived from F(Tp) = exp(-1/b^2): the profile's log at the terminal time
    is (6a^2 - b^4)/(12 b^4) + Tp/16 - 3 c e^{2 Tp}/b^4, giving the +6 b^4 Tp
    sign below.
    """
    Tp = -b * b * T / 2.0
    return (
        math.exp(-2.0 * Tp)
        * (48 * a * a + 96 * b * b - 8 * b ** 4 + 6 * b ** 4 * Tp)
        / 288.0
    )


_REDUCTION_F = """
exp( exp(3*tau)*(8*b^4*exp(-4*tau) + 12*a^2*exp(-4*Tp) + 3*b^4*exp(-tau-3*Tp)
     - 3*exp(-2*Tp)*(b^4*exp(-2*tau) - 24*c)
     - 2*exp(-tau-Tp)*(5*b^4*exp(-2*tau) + 72*c))
     / (24*b^4*(2*exp(-tau) - exp(-Tp))) )
* (2*exp(-tau) - exp(-Tp))^(-(1/16)*exp(3*(tau-Tp)))
"""

# similarity profile at A=3, B=1/2 (sqrt(A^2-16B)=1); the x^2 coefficient's
# time exponent is taken as exp(-(tau-Tp)), the reading consistent with the
# invariant-surface equation it solves
_REDUCTION_PHI_PREFIX = """
exp( -2*x*( a*exp(tau-Tp) + (b^2/2)*(exp(-(tau-Tp)) - 1)*x )
     / ( b^2*( 3*(exp(-(tau-Tp)) - 1) + (1 + exp(-(tau-Tp))) ) ) )
"""


def terminal_reduction_F(a: float, b: float, T: float, c: float | None = None) -> Expr:
    """The reduced-ODE profile F(tau); ``c`` defaults to the pinned value."""
    if c is None:
        c = terminal_reduction_constant(a, b, T)
    return _fill(_REDUCTION_F, a=a, b=b, Tp=-b * b * T / 2.0, c=c)


def terminal_phi_form(a: float, b: float, T: float, c: float | None = None) -> ClosedFormSolution:
    """Heat-picture form of the terminal solution: similarity prefix times
    the reduced profile F(tau)."""
    if c is None:
        c = terminal_reduction_constant(a, b, T)
    Tp = -b * b * T / 2.0
    prefix = _fill(_REDUCTION_PHI_PREFIX, a=a, b=b, Tp=Tp, c=c)
    F = terminal_reduction_F(a, b, T, c)
    phi = prefix * F
    fhat = _parse("phi*(3*ln(abs(phi)) + x^2/2)")
    tau_hi = min(0.0, Tp + 0.5 * math.log(2.0))  # stay clear of 2e^{-tau}=e^{-Tp}
    return ClosedFormSolution(
        label="terminal-value similarity solution (heat picture)",
        picture="heat",
        u=phi,
        model=HeatSourceModel(fhat),
        params={"a": a, "b": b, "T": T, "c": c, "Tp": Tp},
        box={"x": (-1.0, 1.0), "t": (Tp, tau_hi)},
        boundary={"terminal_time": Tp, "singular_time": Tp + math.log(2.0)},
        notes=("terminal datum: phi(x, Tp) = exp(-(a*x+1)/b^2)",),
    )


_REDUCTION_ODE = """
( 2*a^2*exp((tau-Tp)*(A-S))*(A^2-16*B)
  + b^4*( 2*B*(S-A) - 2*E2*S*B + A*Delta*(A-S) + E2*A*S*Delta - 8*B*Delta
          + E2*(A^2*Delta - 2*A*B - 8*B*Delta) + 4*E1*(A*B - 4*B*Delta) )
  + b^4*A*( (1+E2)*A^2 + (E2-1)*A*S - 8*(1+E1)^2*B )*LOGF ) * FF
- b^4*( (1+E2)*A^2 + (E2-1)*A*S - 8*(1+E1)^2*B ) * FP
"""
# The profile-derivative term carries a minus sign relative to the other two
# summands: with the bracket C multiplying both the log term and the
# derivative term, the scalar relation the profile satisfies is
# F' / F - A ln F = g, and the constant bracket equals b^4 C g (verified to
# 2e-13), which forces  (const + b^4 A C ln F) F - b^4 C F' = 0.


def terminal_ode_residual(
    F: Expr,
    a: float,
    b: float,
    T: float,
    taus: Sequence[float],
    A: float = 3.0,
    B: float = 0.5,
    delta: float = 0.0,
) -> float:
    """Residual of the reduced ODE for a candidate profile F(tau)."""
    Tp = -b * b * T / 2.0
    S = math.sqrt(A * A - 16 * B)
    sub = {
        "a": a, "b": b, "Tp": Tp, "A": A, "B": B, "S": S, "Delta": delta,
        "E1": ex.exp(-(ex.sym("t") - ex.num(Tp)) * ex.num(S)),
        "E2": ex.exp(-2 * (ex.sym("t") - ex.num(Tp)) * ex.num(S)),
        "LOGF": ex.ln(ex.call("abs", F)),
        "FF": F,
        "FP": ex.diff(F, "t"),
    }
    lhs = _fill(_REDUCTION_ODE, **sub)
    scale = ex.call("abs", ex.num(b) ** 4 * _fill(
        "( (1+E2)*A^2 + (E2-1)*A*S - 8*(1+E1)^2*B )", **sub) * sub["FP"])
    lv, sv = ex.evaluate_many([lhs, scale], {"t": np.asarray(taus, dtype=float)})
    return float(np.max(np.abs(lv) / np.maximum(1.0, sv), initial=0.0))


# -- barrier problem --------------------------------------------------------

_H_GENERAL = """
exp((A-S)*tau/2)/(2*B*c1) * (
  S*(c3 - exp(S*tau)*c4) + A*(c3 + exp(S*tau)*c4)
  + 2*exp(-(A-S)*tau/2)*B*c1*c5
)
"""

_R_GENERAL = """
(1/(B*c1^2)) * (
  (1/2)*exp((A-S)*tau/2) * (
    b^2*( 4*B*c1*c5*(c4*exp(S*tau) + c3)
          + exp((A-S)*tau/2)*( A*(c4^2*exp(2*S*tau) + c3^2)
                               + S*(c3^2 - c4^2*exp(2*S*tau)) ) )
    - a*c1*( A*(c4*exp(S*tau) + c3) + S*(c3 - c4*exp(S*tau)) )
  )
  - b^2*B*(c1*c2 + 16*c3*c4)*exp(A*tau)/A
  + 2*A*b^2*c3*c4*exp(A*tau)
) + c6
"""


def _check_hyperbolic(A: float, B: float) -> float:
    disc = A * A - 16 * B
    if disc <= 0:
        raise ValueError("requires A^2 - 16*B > 0 (real-exponent branch)")
    return math.sqrt(disc)


def barrier_H_general(
    a: float, b: float, A: float, B: float,
    c1: float, c3: float, c4: float, c5: float,
) -> Expr:
    """Barrier curve H(tau): solution of 4 e^{(A-S) tau/2}(c3 + e^{S tau} c4)
    = c1 H' with S = sqrt(A^2-16B)."""
    if c1 == 0:
        raise ValueError("c1 must be nonzero")
    if B == 0:
        raise ValueError("B must be nonzero")
    S = _check_hyperbolic(A, B)
    return _fill(_H_GENERAL, A=A, B=B, S=S, c1=c1, c3=c3, c4=c4, c5=c5)


_H_ODE = "4*exp((A-S)*tau/2)*(c3 + exp(S*tau)*c4) - c1*HP"


def barrier_H_ode_residual(
    H: Expr, A: float, B: float, c1: float, c3: float, c4: float,
    taus: Sequence[float],
) -> float:
    S = _check_hyperbolic(A, B)
    lhs = _fill(_H_ODE, A=A, S=S, c1=c1, c3=c3, c4=c4, HP=ex.diff(H, "t"))
    (v,) = ex.evaluate_many([lhs], {"t": np.asarray(taus, dtype=float)})
    return float(np.max(np.abs(v)))


def barrier_R_general(
    a: float, b: float, A: float, B: float,
    c1: float, c2: float, c3: float, c4: float, c5: float, c6: float,
) -> Expr:
    """Barrier datum R(tau); requires A != 0 (it divides one term).

    The c5 term reads 4*B*c1*c5*(c4 e^{S tau} + c3): integrating the c5 part
    of the defining ODE multiplies the whole bracket by c5, so the entire
    term vanishes at c5 = 0 (as the simplified exponential-barrier form
    requires).
    """
    if c1 == 0:
        raise ValueError("c1 must be nonzero")
    if A == 0:
        raise ValueError("A must be nonzero")
    if B == 0:
        raise ValueError("B must be nonzero")
    S = _check_hyperbolic(A, B)
    return _fill(_R_GENERAL, a=a, b=b, A=A, B=B, S=S,
                 c1=c1, c2=c2, c3=c3, c4=c4, c5=c5, c6=c6)


_R_ODE = """
4*a*B*c1*exp((A-S)*tau/2)*(c3 + exp(S*tau)*c4)
+ b^2*( B*( c1*c3*c5*(S-A)*exp((A-S)*tau/2)
            - c1*c4*c5*(S+A)*exp((S+A)*tau/2)
            - 8*c3^2*exp((A-S)*tau)
            - 8*c4^2*exp((S+A)*tau)
            + (c1*c2 + 16*c3*c4)*exp(A*tau) )
        - 2*A^2*c3*c4*exp(A*tau) )
+ B*c1^2*RP
"""


def barrier_R_ode_residual(
    R: Expr, a: float, b: float, A: float, B: float,
    c1: float, c2: float, c3: float, c4: float, c5: float,
    taus: Sequence[float],
) -> float:
    S = _check_hyperbolic(A, B)
    lhs = _fill(_R_ODE, a=a, b=b, A=A, B=B, S=S,
                c1=c1, c2=c2, c3=c3, c4=c4, c5=c5, RP=ex.diff(R, "t"))
    (v,) = ex.evaluate_many([lhs], {"t": np.asarray(taus, dtype=float)})
    return float(np.max(np.abs(v)))


@dataclass(frozen=True)
class BarrierSpec:
    """Exponential barrier: curve H and datum R as functions of heat time
    tau, stored in the symbol t like every heat-picture expression.  They
    may be given as text or Expr in either spelling (`parse_xtu`)."""

    alpha: float
    beta: float
    K: float
    T: float
    H: Expr  # in t, standing for tau
    R: Expr  # in t, standing for tau
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "H", parse_xtu(self.H))
        object.__setattr__(self, "R", parse_xtu(self.R))
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError("beta must lie in [0, 1]")
        if self.K <= 0:
            raise ValueError("K must be positive")

    def H_of_t(self, b: float) -> Expr:
        """Barrier curve in original time t (tau = -b^2 t/2)."""
        return _in_heath_time(self.H, b)

    def R_of_t(self, b: float) -> Expr:
        return _in_heath_time(self.R, b)


def _in_heath_time(e: Expr, b: float) -> Expr:
    """A function of heat time tau (in t) as a function of original time t."""
    return ex.simplify(ex.substitute(e, "t", ex.num(-(b * b) / 2) * ex.sym("t")))


def exponential_barrier(
    a: float, b: float, alpha: float, beta: float, K: float, T: float, A: float,
) -> BarrierSpec:
    """The standard exponential barrier beta*K*e^{alpha (t-T)} as the
    special coefficient choice of the general barrier curve."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not (0.0 < beta <= 1.0):
        raise ValueError("beta must lie in (0, 1]")
    if K <= 0:
        raise ValueError("K must be positive")
    if A * b * b <= -4 * alpha:
        raise ValueError("requires A*b^2 > -4*alpha")
    B = -(b * b * alpha * A + 2 * alpha * alpha) / (2 * b ** 4)
    sub = {"alpha": alpha, "beta": beta, "K": K, "T": T, "a": a, "b": b}
    H = _fill("K*beta*exp(-2*alpha*(tau + b^2*T/2)/b^2)", **sub)
    R = _fill("-(1/2)*beta*K*exp(-2*alpha*(2*tau/b^2 + T))"
              "*(2*a*exp(alpha*(2*tau/b^2 + T)) + alpha*beta*K)", **sub)
    c3 = 1.0
    c1 = -2 * b * b * math.exp(alpha * T) * c3 / (alpha * beta * K)
    return BarrierSpec(
        alpha=alpha, beta=beta, K=K, T=T, H=H, R=R,
        params={"a": a, "b": b, "A": A, "B": B, "c1": c1, "c2": 0.0,
                "c3": c3, "c4": 0.0, "c5": 0.0, "c6": 0.0},
    )


_BARRIER_U = "(1/4)*((4*alpha + A*b^2)*(x - beta*K*exp(alpha*(t - T)))^2 - 2*alpha*x^2) - a*x"

_BARRIER_F = (
    "(1/2)*a^2 - (1/2)*A*b^2*(a*x + u)"
    " + (1/4)*(2*alpha + A*b^2)*(b^2 - alpha*x^2)"
)

_BARRIER_ZETA = (
    "b^2*exp(-2*alpha*tau/b^2 - alpha*T)"
    "*(exp(2*alpha*tau/b^2 + alpha*T)*x - K*beta)/(2*alpha*beta*K)"
)

_BARRIER_FPROFILE = (
    "exp( (2*alpha + A*b^2 - 2*b^2*Delta)/(2*A*b^2)"
    " - alpha^2*beta^2*K^2*(4*alpha + A*b^2)/b^6 * s^2 )"
)


@dataclass(frozen=True)
class BarrierSolution:
    """The closed-form barrier solution in both pictures, with the barrier
    spec and the invariance generator of its construction."""

    heath: ClosedFormSolution
    heat: ClosedFormSolution
    spec: BarrierSpec
    generator: Generator  # heat-picture symmetry used in the construction

    def boundary_residual(self, ts: Sequence[float]) -> float:
        """Max |u(H(t), t) - R(t)| over times, scaled by magnitude."""
        b = self.heath.params["b"]
        ts = np.asarray(ts, dtype=float)
        hv, rv = ex.evaluate_many([self.spec.H_of_t(b), self.spec.R_of_t(b)], {"t": ts})
        uv = self.heath.evaluate(hv, ts)
        return float(np.max(np.abs(uv - rv) / np.maximum(1.0, np.abs(rv))))

    def phi_boundary_residual(self, taus: Sequence[float]) -> float:
        """Max scaled |phi(H(tau), tau) - exp(-(a H + R)/b^2)|."""
        a = self.heath.params["a"]
        b = self.heath.params["b"]
        taus = np.asarray(taus, dtype=float)
        hv, rv = ex.evaluate_many([self.spec.H, self.spec.R], {"t": taus})
        (pv,) = ex.evaluate_many([self.heat.u], {"x": hv, "t": taus})
        datum = self._to_phi(a, b, hv, rv)
        return float(np.max(np.abs(pv - datum) / np.maximum(1.0, np.abs(datum))))

    def picture_consistency(self, pts: Sequence[tuple[float, float]]) -> float:
        """Max relative gap between the heat-picture field and the mapped
        original-picture field at (x, t) points."""
        a = self.heath.params["a"]
        b = self.heath.params["b"]
        xs, ts = np.array(pts, dtype=float).T.copy()
        uv = self.heath.evaluate(xs, ts)
        (phi_direct,) = ex.evaluate_many([self.heat.u], {"x": xs, "t": -(b * b) / 2 * ts})
        phi_mapped = self._to_phi(a, b, xs, uv)
        return float(np.max(np.abs(phi_direct - phi_mapped) / np.maximum(1.0, np.abs(phi_mapped))))

    @staticmethod
    def _to_phi(a: float, b: float, xs, us) -> np.ndarray:
        """phi = exp(-(a x + u)/b^2); overflow raises DomainError."""
        (phi,) = ex.evaluate_many([CoordinateMap.heath_heat(a, b).forward[2]], {"x": xs, "u": us})
        return phi

    def invariance_residual(self, pts: Sequence[tuple[float, float]]) -> float:
        """Scaled residual of the generator's invariant-surface condition on
        the heat-picture field at (x, tau) points."""
        return solution_invariance_residual(self.generator, self.heat.u, pts)

    def payoff_discrepancy(self, xs: Sequence[float]) -> dict:
        """Report (not assert) the gap to the call payoff max(x-K, 0) at the
        terminal time: the solution satisfies the barrier data, not the
        payoff."""
        K, T = self.spec.K, self.spec.T
        xs = np.asarray(xs, dtype=float)
        uv = self.heath.evaluate(xs, T)
        gaps = dict(zip(xs.tolist(), (uv - np.maximum(xs - K, 0.0)).tolist()))
        return {"satisfied": all(abs(g) < 1e-9 for g in gaps.values()), "gaps": gaps}


def barrier_solution(
    a: float, b: float, alpha: float, beta: float, K: float, T: float, A: float,
) -> BarrierSolution:
    """Quadratic barrier-problem solution and its heat-picture similarity
    form, for the log-linear source with the Delta = A/2 + alpha/b^2 shift."""
    spec = exponential_barrier(a, b, alpha, beta, K, T, A)
    B = spec.params["B"]
    delta = A / 2.0 + alpha / (b * b)
    sub = {"a": a, "b": b, "alpha": alpha, "beta": beta, "K": K, "T": T,
           "A": A, "B": B, "Delta": delta}
    u = _fill(_BARRIER_U, **sub)
    f = _fill(_BARRIER_F, **sub)
    heath = ClosedFormSolution(
        label="barrier similarity solution",
        picture="heath",
        u=u,
        model=HeathModel(a, b, f),
        params={"a": a, "b": b, "alpha": alpha, "beta": beta, "K": K, "T": T,
                "A": A, "B": B, "Delta": delta},
        box={"x": (beta * K, beta * K + 20.0), "t": (T - 1.0, T)},
        boundary={"terminal_time": T},
        notes=("polynomial in x; residual is exact everywhere",),
    )

    zeta = _fill(_BARRIER_ZETA, **sub)
    profile = _fill(_BARRIER_FPROFILE, **sub)
    phi = ex.exp(ex.num(alpha) * ex.sym("x") ** 2 / (2 * ex.num(b) ** 2)) * ex.substitute(
        profile, "s", zeta
    )
    fhat = _fill("phi*(A*ln(abs(phi)) + B*x^2 + Delta)", **sub)
    Tp = -b * b * T / 2.0
    heat = ClosedFormSolution(
        label="barrier similarity solution (heat picture)",
        picture="heat",
        u=phi,
        model=HeatSourceModel(fhat),
        params=dict(heath.params),
        box={"x": (beta * K, beta * K + 20.0), "t": (Tp, Tp + b * b / 2)},
        boundary={"terminal_time": Tp},
    )

    # one-parameter subalgebra of the construction: time translation scaled
    # by c1 plus the decaying space translation-with-ramp generator
    c1 = spec.params["c1"]
    gen = Generator.parse(
        "4*exp(-2*alpha*tau/b^2)",
        str(c1),
        "(4*alpha/b^2)*exp(-2*alpha*tau/b^2)*x*phi",
    ).subs({"alpha": alpha, "b": b})
    return BarrierSolution(heath=heath, heat=heat, spec=spec, generator=gen)


# -- additional examples ----------------------------------------------------

_A22_U = (
    "b^2*(-ln( exp(-x^2/8)*sqrt(x)"
    "*ln(8/cos((b^2*t - 2*c3)/4 + ln(x))^2) )) - a*x"
)

_A22_F = (
    "(1/32)*(16*a^2 + b^4*(8 - (4*sqrt(x)*exp("
    " exp(x^2/8 - (a*x+u)/b^2)/sqrt(x) + (a*x+u)/b^2 - x^2/8"
    ") + x^4 - 4)/x^2))"
)


def example_A22(a: float, b: float, c3: float) -> ClosedFormSolution:
    """Explicit solution for the two-dimensional-algebra source family with
    an arbitrary-function slot (trigonometric profile instance)."""
    if b == 0:
        raise ValueError("b must be nonzero")
    u = _fill(_A22_U, a=a, b=b, c3=c3)
    f = _fill(_A22_F, a=a, b=b)
    return ClosedFormSolution(
        label="similarity solution: scaling algebra with secant profile",
        picture="heath",
        u=u,
        model=HeathModel(a, b, f),
        params={"a": a, "b": b, "c3": c3},
        box={"x": (0.5, 1.5), "t": (0.0, 0.2)},
        notes=(
            "needs x > 0 and the cosine argument away from odd multiples of"
            " pi/2; sec^2 >= 1 keeps the inner logarithm argument >= 8 and"
            " the outer one positive on the box",
        ),
    )


_A359_U = (
    "b^2*(-ln( (3/2)*exp(-3*x)*(4/(3*b^2*t - 6*c1 + x)^2 + 3) )) - a*x"
)

_A359_F = (
    "(1/8)*(4*a^2 - b^4*(77*sinh((a*x - 3*b^2*x + u)/b^2)"
    " + 85*cosh((a*x - 3*b^2*x + u)/b^2)))"
)


def example_A359(a: float, b: float, c1: float) -> ClosedFormSolution:
    """Explicit solution for the quadratic source family (rational-in-time
    instance); has a moving pole at x = 6 c1 - 3 b^2 t."""
    if b == 0:
        raise ValueError("b must be nonzero")
    u = _fill(_A359_U, a=a, b=b, c1=c1)
    f = _fill(_A359_F, a=a, b=b)
    return ClosedFormSolution(
        label="similarity solution: quadratic source with moving pole",
        picture="heath",
        u=u,
        model=HeathModel(a, b, f),
        params={"a": a, "b": b, "c1": c1},
        box={"x": (1.0, 2.0), "t": (0.0, 0.2)},
        boundary={"pole_line": 1.0, "pole_slope": 3 * b * b, "pole_offset": -6 * c1},
        notes=("pole where 3*b^2*t - 6*c1 + x vanishes",),
    )
