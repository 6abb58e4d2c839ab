"""Machine-readable catalog of the symmetry classification of
phi_tau = phi_xx + fhat(x, phi).

Each entry is data: a source-family template, an optional auxiliary
substitution psi(x, phi), parameter admissibility predicates, and the
generator basis, written in (x, tau, phi) spelling.  Placeholders:

* ``psi``   - the auxiliary substitution, replaced by its expression
* ``F_psi`` - an arbitrary function of psi, supplied at instantiation
* ``F_x``   - an arbitrary function of x, supplied at instantiation
* ``pm`` / ``mp`` - +1/-1 resp. -1/+1 for the sign variants

Entries whose customary tabulated form mixes variable names (u for phi, t for tau) or
constants are carried with the consistent reading and flagged.  Where a
localized correction was needed to make residuals vanish, the entry holds the
corrected reading, and the literal one is kept as data in LITERAL_READINGS
under the id ``<id>:literal``: `get_spec`, `instantiate` and `verify_entry`
accept it, ENTRIES, `list_entries` and `export_json` leave it out.  It is a
negative control: the check must reject it.

An entry is built symbolically once per (id, sign variant, function choices)
with its parameters left as symbols; every parameter draw substitutes into,
or is checked against, that one build.  Matching checks its generators
against the whole class phi_tau = phi_xx + F, compiled once per (id, sign
variant), with the given source's values as arguments.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from . import expr as ex
from .expr import Expr
from .lie import (
    CLASS_SOURCE,
    CONDITION_ARGS,
    DEFAULT_BOX,
    EvolutionPDE,
    Generator,
    SymmetryReport,
    check_symmetry,
    class_condition_terms,
    commutator,
    parse_xtu,
)
from .model import HeatSourceModel, vanishes


class InadmissibleParamsError(ValueError):
    def __init__(self, entry_id: str, failed: list[str]):
        super().__init__(f"{entry_id}: inadmissible parameters; failed {failed}")
        self.failed = failed


class UnknownEntryError(KeyError):
    pass


@dataclass(frozen=True)
class FunctionSlot:
    name: str  # placeholder symbol in the template, e.g. "F_psi"
    argument: str  # "psi" or "x"
    requires_second_derivative: bool = True


def _constraint_text_one(kind: str, quantity: str, data: tuple[float, ...]) -> str:
    if kind == "nonzero":
        return f"{quantity} != 0"
    if kind == "notin":
        return f"{quantity} not in {{{', '.join(str(b) for b in data)}}}"
    if kind == "pos":
        return f"{quantity} > 0"
    return f"{quantity} < 0"


@functools.lru_cache(maxsize=None)
def _constraint_fn(quantities: tuple[str, ...], params: tuple[str, ...]):
    return ex.compile_exprs([ex.parse(q) for q in quantities], params)


@dataclass(frozen=True)
class EntrySpec:
    id: str
    dimension: int
    fhat: str | None  # None: source unconstrained (A_1)
    generators: tuple[tuple[str, str, str], ...]
    params: tuple[str, ...] = ()
    # (kind, quantity, data): kind in {nonzero, notin, pos, neg}; quantity is
    # an arithmetic expression in the parameters; data is the excluded tuple
    # for "notin" and unused otherwise.
    constraints: tuple[tuple[str, str, tuple[float, ...]], ...] = ()
    psi: str | None = None
    functions: tuple[FunctionSlot, ...] = ()
    sign_variants: bool = False
    flags: tuple[str, ...] = ()
    box: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    defaults: Mapping[str, float] = field(default_factory=dict)
    default_functions: Mapping[str, str] = field(default_factory=dict)
    param_ranges: Mapping[str, tuple[float, float]] = field(default_factory=dict)

    def admissible(self, params: Mapping[str, float], margin: float = 0.0) -> list[str]:
        """Return descriptions of violated constraints (empty when admissible).

        A positive ``margin`` demands distance from the inadmissible set,
        which matching uses to reject degenerate boundary fits.
        """
        violated = self.violations({p: float(params[p]) for p in self.params}, margin)
        return [_constraint_text_one(*c) for c, bad in zip(self.constraints, violated) if bad]

    def violations(self, params: Mapping[str, object], margin: float = 0.0) -> np.ndarray:
        """One row per constraint, True where it is violated.  The parameter
        values are scalars or arrays, broadcast together."""
        if not self.constraints:
            return np.zeros((0,), dtype=bool)
        fn = _constraint_fn(tuple(q for (_, q, _) in self.constraints), self.params)
        values, _ = fn(*(params[p] for p in self.params))
        rows = []
        for (kind, _, data), v in zip(self.constraints, values):
            if kind == "nonzero":
                ok = np.abs(v) > margin
            elif kind == "notin":
                ok = np.min([np.abs(v - bad) for bad in data], axis=0) > margin
            elif kind == "pos":
                ok = v > margin
            elif kind == "neg":
                ok = v < -margin
            else:
                raise ValueError(f"unknown constraint kind {kind!r}")
            rows.append(~ok)
        return np.array(rows)

    def constraint_text(self) -> str:
        if not self.constraints:
            return "none"
        return ", ".join(_constraint_text_one(*c) for c in self.constraints)

    def variant_names(self) -> tuple[str, ...]:
        return ("plus", "minus") if self.sign_variants else ("none",)

    def sample_params(self, rng: np.random.Generator, max_tries: int = 200) -> dict[str, float]:
        """Draw random admissible parameters from the entry's ranges."""
        for _ in range(max_tries):
            draw = {p: rng.uniform(*self.param_ranges.get(p, (0.4, 1.6))) for p in self.params}
            if not self.admissible(draw):
                return draw
        raise RuntimeError(f"{self.id}: could not sample admissible parameters")


@dataclass(frozen=True)
class CatalogEntry:
    """A concrete instantiation: all parameters and arbitrary functions
    substituted, ready for verification."""

    id: str
    spec: EntrySpec
    params: Mapping[str, float]
    sign_variant: str
    fhat: Expr
    psi: Expr | None
    generators: tuple[Generator, ...]
    flags: tuple[str, ...]
    box: Mapping[str, tuple[float, float]]

    def model(self) -> HeatSourceModel:
        return HeatSourceModel(self.fhat)

    def pde(self) -> EvolutionPDE:
        return EvolutionPDE(ex.sym("u_xx") + self.fhat)


def _signs(variant: str) -> dict[str, Expr]:
    if variant == "plus":
        return {"pm": ex.num(1), "mp": ex.num(-1)}
    if variant == "minus":
        return {"pm": ex.num(-1), "mp": ex.num(1)}
    return {}


_DEF_BOX = {"x": (0.6, 1.4), "u": (0.5, 1.5)}


ENTRIES: tuple[EntrySpec, ...] = (
    EntrySpec(
        id="A_1",
        dimension=1,
        fhat=None,
        generators=(("0", "1", "0"),),
        defaults={},
    ),
    EntrySpec(
        id="A_2_2_1",
        dimension=2,
        psi="exp(x^2/8)*x^A*phi",
        fhat="-exp(-x^2/8)/(4*x^(A+2)) * (x^2*(x^2/4 + 2*A - 1)*psi + F_psi)",
        generators=(
            ("0", "1", "0"),
            ("exp(tau)*x", "2*exp(tau)", "-exp(tau)*(x^2/4 + A)*phi"),
        ),
        params=("A",),
        functions=(FunctionSlot("F_psi", "psi"),),
        defaults={"A": 1.0},
        default_functions={"F_psi": "s^3"},
    ),
    EntrySpec(
        id="A_2_2_2",
        dimension=2,
        psi="x^A*phi",
        fhat="1/x^(A+2) * F_psi",
        generators=(
            ("0", "1", "0"),
            ("x", "2*tau", "-A*phi"),
        ),
        params=("A",),
        functions=(FunctionSlot("F_psi", "psi"),),
        flags=("generator constant B read as A (scaling weight must match the source family)",),
        defaults={"A": 2.0},
        default_functions={"F_psi": "s^3"},
    ),
    EntrySpec(
        id="A_2_2_3",
        dimension=2,
        psi="exp((A*x+B)*x/2)*phi",
        fhat="-exp(-(A*x+B)*x/2)*(A*x*(A*x+B)*psi + F_psi)",
        generators=(
            ("0", "1", "0"),
            ("2*exp(2*A*tau)", "0", "-exp(2*A*tau)*(2*A*x+B)*phi"),
        ),
        params=("A", "B"),
        functions=(FunctionSlot("F_psi", "psi"),),
        defaults={"A": 0.8, "B": 0.5},
        default_functions={"F_psi": "s^3"},
    ),
    EntrySpec(
        id="A_2_2_4",
        dimension=2,
        fhat="-(F_x + A*ln((Delta + x*(Gamma*x + B))*phi))*phi",
        generators=(
            ("0", "1", "0"),
            ("0", "0", "exp(-A*tau)*phi"),
        ),
        params=("A", "B", "Gamma", "Delta"),
        constraints=(
            ("nonzero", "A", ()),
            ("nonzero", "B^2 + Gamma^2 + Delta^2", ()),
        ),
        functions=(FunctionSlot("F_x", "x", requires_second_derivative=False),),
        defaults={"A": 1.5, "B": 0.5, "Gamma": 0.3, "Delta": 0.7},
        default_functions={"F_x": "sin(x) + x^2"},
        param_ranges={"A": (0.4, 1.6), "B": (0.2, 1.0), "Gamma": (0.1, 0.8), "Delta": (0.2, 1.0)},
    ),
    EntrySpec(
        id="A_3_5_1",
        dimension=3,
        psi="exp(A*(x+Delta)^2/2)*x^(-2/(B+1))*phi + E",
        fhat=(
            "-exp(-A*(x+Delta)^2/2)*x^(-2*B/(B+1)) * ("
            "Gamma*abs(psi)^(-B)"
            " + (A*x^2*(A*(B+1)*(x+Delta)^2 - B - 5)/(B+1))*psi"
            " - E*(A*(B+1)*x*(x*(A*(B+1)*(x+Delta)^2 - 5 - B) - 4*Delta) + 2*(1-B))/(B+1)^2)"
        ),
        generators=(
            ("0", "1", "0"),
            (
                "exp(2*A*tau)",
                "0",
                "-exp(2*A*tau)*(A*(x+Delta)*phi"
                " + 2*E*x^(2/(B+1)-1)*exp(-A*(x+Delta)^2/2)/(B+1))",
            ),
            (
                "2*exp(4*A*tau)*A*(x+Delta)",
                "exp(4*A*tau)",
                "-(2*A*exp(4*A*tau)/(B+1))*((A*(B+1)*(x+Delta)^2 - 2)*phi"
                " + 2*Delta*E*x^(2/(B+1)-1)*exp(-A*(x+Delta)^2/2))",
            ),
        ),
        params=("A", "B", "Gamma", "Delta", "E"),
        constraints=(
            ("nonzero", "A", ()),
            ("nonzero", "Gamma", ()),
            ("notin", "B", (0.0, -1.0, -2.0)),
        ),
        flags=(
            "generator time exponents e^{2At}, e^{4At} read as functions of tau",
            "power-law source term read as Gamma*|psi|^(-B) (customary tabulation prints phi)",
            "middle source term read as (...)*psi (customary tabulation prints phi); the"
            " characteristic derivation forces the psi reading",
            "inner offset read as -4*Delta (customary tabulation prints -4*E); matches the"
            " independently derived closed form",
        ),
        defaults={"A": 1.0, "B": 2.0, "Gamma": 1.0, "Delta": 0.3, "E": 0.2},
        param_ranges={"A": (0.4, 1.4), "B": (1.2, 2.5), "Gamma": (0.4, 1.6),
                      "Delta": (0.1, 0.6), "E": (0.05, 0.4)},
    ),
    EntrySpec(
        id="A_3_5_2",
        dimension=3,
        fhat="pm*(5 + B + mp*x^2)*phi/(B+1)^2 - A*exp(mp*x^2/2)*abs(phi)^(-B)",
        generators=(
            ("0", "1", "0"),
            (
                "exp(pm*2*tau/(B+1))",
                "0",
                "mp*(1/(B+1))*exp(pm*2*tau/(B+1))*x*phi",
            ),
            (
                "2*exp(pm*4*tau/(B+1))*x",
                "pm*exp(pm*4*tau/(B+1))*(B+1)",
                "mp*2*exp(pm*4*tau/(B+1))*(x^2 + mp*2)*phi/(1+B)",
            ),
        ),
        params=("A", "B"),
        constraints=(
            ("nonzero", "A", ()),
            ("notin", "B", (0.0, -1.0, -2.0)),
        ),
        sign_variants=True,
        flags=(
            "linear source term carries an overall sign tied to the variant:"
            " read as pm*(5+B+mp*x^2) (the customary tabulation omits the outer sign)",
        ),
        defaults={"A": 1.0, "B": 2.0},
        param_ranges={"A": (0.4, 1.6), "B": (1.2, 2.5)},
    ),
    EntrySpec(
        id="A_3_5_3",
        dimension=3,
        psi="exp(Gamma*x)*x^(-2/(1+B))*phi + Delta",
        fhat=(
            "-exp(-Gamma*x)*x^(-2*B/(1+B))*("
            "Delta*(2*(B+1) - (Gamma*(B+1)*x - 2)^2)/(B+1)^2"
            " + A*abs(psi)^(-B) + Gamma^2*x^2*psi)"
        ),
        generators=(
            ("0", "1", "0"),
            (
                "1",
                "0",
                "-(Gamma*phi + 2*Delta*exp(-Gamma*x)*x^((1-B)/(1+B))/(B+1))",
            ),
            (
                "x + 2*Gamma*tau",
                "2*tau",
                "(1/(B+1))*((2 - Gamma*(B+1)*(x + 2*Gamma*tau))*phi"
                " - 4*Gamma*Delta*tau*exp(-Gamma*x)*x^((1-B)/(B+1)))",
            ),
        ),
        params=("A", "B", "Gamma", "Delta"),
        constraints=(
            ("nonzero", "A", ()),
            ("notin", "B", (0.0, -1.0, -2.0)),
        ),
        flags=("auxiliary substitution exponent read as Gamma (customary tabulation prints A)",),
        defaults={"A": 1.0, "B": 2.0, "Gamma": 0.7, "Delta": 0.3},
        param_ranges={"A": (0.4, 1.6), "B": (1.2, 2.5), "Gamma": (0.3, 1.0), "Delta": (0.1, 0.6)},
    ),
    EntrySpec(
        id="A_3_5_4",
        dimension=3,
        fhat="-exp(-(A+1)*B*x)*abs(phi)^(-A) - B^2*phi",
        generators=(
            ("0", "1", "0"),
            ("1", "0", "-B*phi"),
            (
                "x + 2*B*tau",
                "2*tau",
                "-((1+A)*B*(x + 2*B*tau) - 2)*phi/(A+1)",
            ),
        ),
        params=("A", "B"),
        constraints=(("notin", "A", (0.0, -1.0, -2.0)),),
        flags=("generator constant Gamma read as B (must match the source family)",),
        defaults={"A": 1.0, "B": 0.6},
        param_ranges={"A": (0.4, 1.6), "B": (0.3, 1.0)},
    ),
    EntrySpec(
        id="A_3_5_5",
        dimension=3,
        fhat=(
            "-B^2*phi - A*exp(-exp(B*x)*phi - B*x)/x^2"
            " - 2*exp(-B*x)*(2*B*x+1)/x^2"
        ),
        generators=(
            ("0", "1", "0"),
            ("1", "0", "-(B*phi + 2*exp(-B*x)/x)"),
            (
                "x + 2*B*tau",
                "2*tau",
                "-B*(4*tau*exp(-B*x)/x + (x + 2*B*tau)*phi)",
            ),
        ),
        params=("A", "B"),
        constraints=(("nonzero", "A", ()),),
        flags=("source written with u for phi in the customary tabulation",),
        defaults={"A": 1.0, "B": 0.6},
        param_ranges={"A": (0.4, 1.6), "B": (0.3, 1.0)},
    ),
    EntrySpec(
        id="A_3_5_6",
        dimension=3,
        psi="exp(-B*x)*phi",
        fhat="-exp(B*x)*(A*exp(psi) + B^2*psi)",
        generators=(
            ("0", "1", "0"),
            ("1", "0", "B*phi"),
            ("x - 2*B*tau", "2*tau", "B*(x - 2*B*tau)*phi - 2*exp(B*x)"),
        ),
        params=("A", "B"),
        constraints=(("nonzero", "A", ()),),
        defaults={"A": 1.0, "B": 0.6},
        param_ranges={"A": (0.4, 1.6), "B": (0.3, 1.0)},
    ),
    EntrySpec(
        id="A_3_5_7",
        dimension=3,
        fhat="mp*(exp(mp*x^2/2)/4)*(4*exp(pm*x^2)*phi^2 + (x^2 + mp*11)*(x^2 + pm*1))",
        generators=(
            ("0", "1", "0"),
            (
                "exp(pm*2*tau)",
                "0",
                "pm*exp(pm*2*tau)*(exp(mp*x^2/2) - phi)*x",
            ),
            (
                "2*exp(pm*4*tau)*x",
                "pm*exp(pm*4*tau)",
                "2*exp(pm*4*tau)*((pm*2*x^2+3)*exp(mp*x^2/2) - (pm*x^2+2)*phi)",
            ),
        ),
        sign_variants=True,
        flags=("source written with u for phi in the customary tabulation",),
        defaults={},
    ),
    EntrySpec(
        id="A_3_5_8",
        dimension=3,
        psi="exp(pm*x^2/2)*phi",
        fhat=(
            "-exp(mp*x^2/2)*(A*exp(-psi)/(x+B)^2"
            " + pm*(pm*x^2-1)*psi + 2*(1 + mp*2*B*(x+B))/(x+B)^2)"
        ),
        generators=(
            ("0", "1", "0"),
            (
                "exp(pm*2*tau)",
                "0",
                "-exp(pm*2*tau)*(pm*phi*x*(x+B) + 2*exp(mp*x^2/2))/(x+B)",
            ),
            (
                "pm*2*exp(pm*4*tau)*x",
                "exp(pm*4*tau)",
                "2*exp(pm*4*tau)*(pm*2*B*exp(mp*x^2/2) - phi*x^2*(x+B))/(x+B)",
            ),
        ),
        params=("A", "B"),
        constraints=(("nonzero", "A", ()),),
        sign_variants=True,
        flags=(
            "customary tabulation mixes u/phi and t/tau; read as phi and tau",
            "leading source sign read as a plain minus for both variants"
            " (customary tabulation prints the variant sign)",
        ),
        defaults={"A": 1.0, "B": 0.5},
        param_ranges={"A": (0.4, 1.6), "B": (0.2, 0.9)},
    ),
    EntrySpec(
        id="A_3_5_9",
        dimension=3,
        fhat="-exp(B*x)*phi^2 - (B^4/4)*exp(-B*x)",
        generators=(
            ("0", "1", "0"),
            ("1", "0", "-B*phi"),
            (
                "x + 2*B*tau",
                "2*tau",
                "-((2 + B*x + 2*B^2*tau)*phi - B^2*exp(-B*x))",
            ),
        ),
        params=("B",),
        defaults={"B": 1.0},
        param_ranges={"B": (0.4, 1.6)},
    ),
    EntrySpec(
        id="A_3_5_10",
        dimension=3,
        psi="exp(mp*x^2/2)*phi",
        fhat="mp*exp(pm*x^2/2)*(A*exp(psi) + (pm*x^2+1)*psi - 4)",
        generators=(
            ("0", "1", "0"),
            ("exp(mp*2*tau)", "0", "pm*exp(mp*2*tau)*x*phi"),
            (
                "2*exp(mp*4*tau)*x",
                "mp*exp(mp*4*tau)",
                "-2*exp(mp*4*tau)*(2*exp(pm*x^2/2) + mp*x^2*phi)",
            ),
        ),
        params=("A",),
        constraints=(("nonzero", "A", ()),),
        sign_variants=True,
        flags=("third generator's time exponent read as e^{mp*4*tau} (sign omitted in print)",),
        defaults={"A": 1.0},
        param_ranges={"A": (0.4, 1.6)},
    ),
    EntrySpec(
        id="A_3_8_1",
        dimension=3,
        psi="exp(Gamma*x^2/2)*x^((2-4*A)/4)*phi + Delta",
        fhat=(
            "-exp(-Gamma*x^2/2)*x^(A-5/2)*psi*(4*A*ln(abs(psi))"
            " - (1/4)*x^2*(B*x^2 + 8*A*Gamma))"
            " + (1/4)*Delta*exp(-Gamma*x^2/2)*x^(A-5/2)*(3 - 8*A + 4*(Gamma*x^2-A)^2)"
        ),
        generators=(
            ("0", "1", "0"),
            (
                "2*sqrt(B)*x*cos(2*sqrt(B)*tau)",
                "2*sin(2*sqrt(B)*tau)",
                "B*(Delta*exp(-Gamma*x^2/2)*x^(A+3/2) + x^2*phi)*sin(2*sqrt(B)*tau)"
                " + sqrt(B)*(2*Gamma*Delta*exp(-Gamma*x^2/2)*x^(A+3/2)"
                " + (2*A-1)*phi)*cos(2*sqrt(B)*tau)",
            ),
            (
                "-2*sqrt(B)*x*sin(2*sqrt(B)*tau)",
                "2*cos(2*sqrt(B)*tau)",
                "B*(Delta*exp(-Gamma*x^2/2)*x^(A+3/2) + x^2*phi)*cos(2*sqrt(B)*tau)"
                " - sqrt(B)*(2*Gamma*Delta*exp(-Gamma*x^2/2)*x^(A+3/2)"
                " + (2*A-1)*phi)*sin(2*sqrt(B)*tau)",
            ),
        ),
        params=("A", "B", "Gamma", "Delta"),
        constraints=(("nonzero", "A", ()), ("pos", "B", ())),
        flags=("customary tabulation mixes t/tau; read as tau",),
        defaults={"A": 0.8, "B": 1.0, "Gamma": 0.5, "Delta": 0.3},
        param_ranges={"A": (0.4, 1.4), "B": (0.4, 1.6), "Gamma": (0.2, 0.9), "Delta": (0.1, 0.6)},
    ),
    EntrySpec(
        id="A_3_8_2",
        dimension=3,
        psi="exp(Gamma*x^2/2)*x^((2-4*A)/4)*phi + Delta",
        fhat=(
            "-exp(-Gamma*x^2/2)*x^(A-5/2)*psi*(4*A*ln(abs(psi))"
            " - (1/4)*x^2*(B*x^2 + 8*A*Gamma))"
            " + (1/4)*Delta*exp(-Gamma*x^2/2)*x^(A-5/2)*(3 - 8*A + 4*(Gamma*x^2-A)^2)"
        ),
        generators=(
            ("0", "1", "0"),
            (
                "2*sqrt(abs(B))*exp(-2*sqrt(abs(B))*tau)*x",
                "-2*exp(-2*sqrt(abs(B))*tau)",
                "exp(-2*sqrt(abs(B))*tau)*sqrt(abs(B))*("
                "(sqrt(abs(B))+2*Gamma)*Delta*exp(-Gamma*x^2/2)*x^(3/2+A)"
                " + (sqrt(abs(B))*x^2 + 2*A - 1)*phi)",
            ),
            (
                "2*sqrt(abs(B))*exp(2*sqrt(abs(B))*tau)*x",
                "2*exp(2*sqrt(abs(B))*tau)",
                "-exp(2*sqrt(abs(B))*tau)*sqrt(abs(B))*("
                "(sqrt(abs(B))-2*Gamma)*Delta*exp(-Gamma*x^2/2)*x^(3/2+A)"
                " + (sqrt(abs(B))*x^2 + 1 - 2*A)*phi)",
            ),
        ),
        params=("A", "B", "Gamma", "Delta"),
        constraints=(("nonzero", "A", ()), ("neg", "B", ())),
        flags=("customary tabulation mixes t/tau; read as tau",),
        defaults={"A": 0.8, "B": -1.0, "Gamma": 0.5, "Delta": 0.3},
        param_ranges={"A": (0.4, 1.4), "B": (-1.6, -0.4), "Gamma": (0.2, 0.9), "Delta": (0.1, 0.6)},
    ),
    EntrySpec(
        id="A_3_8_3",
        dimension=3,
        psi="exp(B*x^2/2)*x^((2-4*A)/4)*phi + Gamma",
        fhat=(
            "2*exp(-B*x^2/2)*x^(A-5/2)*psi*(A*B*x^2 - 2*A*ln(abs(psi)))"
            " + (1/4)*Gamma*exp(-B*x^2/2)*x^(A-5/2)*(3-8*A)"
            " + Gamma*exp(-B*x^2/2)*x^(A-5/2)*(B*x^2-A)^2"
        ),
        generators=(
            ("0", "1", "0"),
            (
                "2*x",
                "4*tau",
                "2*B*Gamma*exp(-B*x^2/2)*x^(3/2+A) + (2*A-1)*phi",
            ),
            (
                "4*x*tau",
                "4*tau^2",
                "-(Gamma*exp(-B*x^2/2)*(1-4*B*tau)*x^(3/2+A)"
                " + ((2-4*A)*tau + x^2)*phi)",
            ),
        ),
        params=("A", "B", "Gamma"),
        constraints=(("nonzero", "A", ()),),
        defaults={"A": 0.8, "B": 0.6, "Gamma": 0.3},
        param_ranges={"A": (0.4, 1.4), "B": (0.3, 1.0), "Gamma": (0.1, 0.6)},
    ),
    EntrySpec(
        id="A_4_1",
        dimension=4,
        fhat="phi*(A*ln(abs(phi)) + B*x^2)",
        generators=(
            ("0", "1", "0"),
            ("0", "0", "exp(A*tau)*phi"),
            (
                "4*exp((A - sqrt(A^2-16*B))*tau/2)",
                "0",
                "(sqrt(A^2-16*B) - A)*exp((A - sqrt(A^2-16*B))*tau/2)*x*phi",
            ),
            (
                "4*exp((sqrt(A^2-16*B) + A)*tau/2)",
                "0",
                "-(sqrt(A^2-16*B) + A)*exp((sqrt(A^2-16*B) + A)*tau/2)*x*phi",
            ),
        ),
        params=("A", "B"),
        constraints=(
            ("nonzero", "A", ()),
            ("nonzero", "B", ()),
            ("pos", "A^2 - 16*B", ()),
        ),
        defaults={"A": 3.0, "B": 0.5},
        param_ranges={"A": (2.0, 4.0), "B": (0.1, 0.24)},
    ),
    EntrySpec(
        id="A_4_2",
        dimension=4,
        fhat="phi*(A*ln(abs(phi)) + B*x^2)",
        generators=(
            ("0", "1", "0"),
            ("0", "0", "exp(A*tau)*phi"),
            (
                "4*exp(A*tau/2)*sin(sqrt(abs(A^2-16*B))*tau/2)",
                "0",
                "-exp(A*tau/2)*x*(sqrt(abs(A^2-16*B))*cos(sqrt(abs(A^2-16*B))*tau/2)"
                " + A*sin(sqrt(abs(A^2-16*B))*tau/2))*phi",
            ),
            (
                "4*exp(A*tau/2)*cos(sqrt(abs(A^2-16*B))*tau/2)",
                "0",
                "exp(A*tau/2)*x*(sqrt(abs(A^2-16*B))*sin(sqrt(abs(A^2-16*B))*tau/2)"
                " - A*cos(sqrt(abs(A^2-16*B))*tau/2))*phi",
            ),
        ),
        params=("A", "B"),
        constraints=(
            ("nonzero", "A", ()),
            ("nonzero", "B", ()),
            ("neg", "A^2 - 16*B", ()),
        ),
        defaults={"A": 1.0, "B": 1.0},
        param_ranges={"A": (0.4, 1.6), "B": (0.5, 1.5)},
    ),
    EntrySpec(
        id="A_4_3",
        dimension=4,
        fhat="phi*(x^2/16 + pm*ln(abs(phi)))",
        generators=(
            ("0", "1", "0"),
            ("0", "0", "exp(pm*tau)*phi"),
            ("4*exp(pm*tau/2)", "0", "mp*exp(pm*tau/2)*x*phi"),
            ("4*exp(pm*tau/2)*tau", "0", "-exp(pm*tau/2)*(2 + pm*tau)*x*phi"),
        ),
        sign_variants=True,
        flags=("fourth generator's exponential read as e^{pm*tau/2} (sign omitted in print)",),
        defaults={},
    ),
    EntrySpec(
        id="A_4_4",
        dimension=4,
        fhat="phi*(A*ln(abs(phi)) + B*x)",
        generators=(
            ("0", "1", "0"),
            ("0", "0", "exp(A*tau)*phi"),
            ("A", "0", "-B*phi"),
            ("2*exp(A*tau)", "0", "-exp(A*tau)*(A*x - 2*B*tau)*phi"),
        ),
        params=("A", "B"),
        constraints=(("nonzero", "A", ()),),
        defaults={"A": 1.0, "B": 2.0},
        param_ranges={"A": (0.4, 1.6), "B": (0.4, 2.4)},
    ),
)

_BY_ID: dict[str, EntrySpec] = {e.id: e for e in ENTRIES}


def _literal(entry_id: str, reading: str, **changes) -> EntrySpec:
    """The customary tabulation of an entry read literally where its
    correction is more than a rename."""
    return replace(_BY_ID[entry_id], id=entry_id + ":literal",
                   flags=(f"literal reading ({reading}); fails the symmetry check",), **changes)


# Negative controls: each fails the check in the variant where its
# correction matters and passes in the other.
LITERAL_READINGS: tuple[EntrySpec, ...] = (
    _literal(
        "A_2_2_2", "scaling generator's weight an independent B, not the source's A",
        generators=(("0", "1", "0"), ("x", "2*tau", "-B*phi")),
        params=("A", "B"),
        defaults={"A": 2.0, "B": 1.0},
        param_ranges={"A": (0.4, 1.6), "B": (0.4, 1.6)},
    ),
    _literal(
        "A_3_5_2", "outer sign pm of the linear source term omitted",
        fhat="(5 + B + mp*x^2)*phi/(B+1)^2 - A*exp(mp*x^2/2)*abs(phi)^(-B)",
    ),
    _literal(
        "A_3_5_3", "auxiliary substitution exponent printed as exp(A*x)",
        psi="exp(A*x)*x^(-2/(1+B))*phi + Delta",
    ),
    _literal(
        "A_3_5_4", "generator constant Gamma independent of the source's B",
        generators=(
            ("0", "1", "0"),
            ("1", "0", "-Gamma*phi"),
            ("x + 2*Gamma*tau", "2*tau", "-((1+A)*Gamma*(x + 2*Gamma*tau) - 2)*phi/(A+1)"),
        ),
        params=("A", "B", "Gamma"),
        defaults={"A": 1.0, "B": 0.6, "Gamma": 0.9},
        param_ranges={"A": (0.4, 1.6), "B": (0.3, 1.0), "Gamma": (0.3, 1.0)},
    ),
    _literal(
        "A_3_5_8", "leading source sign printed as the variant sign mp",
        fhat=(
            "mp*exp(mp*x^2/2)*(A*exp(-psi)/(x+B)^2"
            " + pm*(pm*x^2-1)*psi + 2*(1 + mp*2*B*(x+B))/(x+B)^2)"
        ),
    ),
    _literal(
        "A_3_5_10", "third generator's time exponent printed as e^{4*tau}",
        generators=_BY_ID["A_3_5_10"].generators[:2] + (
            ("2*exp(4*tau)*x", "mp*exp(4*tau)", "-2*exp(4*tau)*(2*exp(pm*x^2/2) + mp*x^2*phi)"),
        ),
    ),
    _literal(
        "A_4_3", "fourth generator's exponential printed as e^{tau/2}",
        generators=_BY_ID["A_4_3"].generators[:3] + (
            ("4*exp(tau/2)*tau", "0", "-exp(tau/2)*(2 + pm*tau)*x*phi"),
        ),
    ),
)
_BY_ID.update((e.id, e) for e in LITERAL_READINGS)


def get_spec(entry_id: str) -> EntrySpec:
    try:
        return _BY_ID[entry_id]
    except KeyError:
        raise UnknownEntryError(entry_id) from None


def list_entries() -> list[dict]:
    """Metadata for all entries (one dict per Lie algebra)."""
    out = []
    for e in ENTRIES:
        out.append(
            {
                "id": e.id,
                "dimension": e.dimension,
                "fhat": e.fhat if e.fhat is not None else "unconstrained",
                "psi": e.psi,
                "params": list(e.params),
                "constraints": e.constraint_text(),
                "sign_variants": list(e.variant_names()) if e.sign_variants else [],
                "arbitrary_functions": [f.name for f in e.functions],
                "flags": list(e.flags),
            }
        )
    return out


def _check_function_choice(slot: FunctionSlot, choice: Expr) -> None:
    extra = ex.free_symbols(choice) - {"s" if slot.argument == "psi" else "x"}
    if extra:
        raise ValueError(f"function {slot.name} may only use its argument; found {sorted(extra)}")
    if slot.requires_second_derivative:
        var = "s" if slot.argument == "psi" else "x"
        if vanishes(ex.diff(choice, var, 2), {var: np.array([0.37, 0.81, 1.43])}, 1e-12):
            raise ValueError(f"function {slot.name} must have a nonvanishing second derivative")


@dataclass(frozen=True)
class _SymbolicEntry:
    """An entry with its sign variant and function choices filled in and its
    parameters left as symbols."""

    fhat: Expr
    psi: Expr | None
    pde: EvolutionPDE
    generators: tuple[Generator, ...]

    @functools.cached_property
    def brackets(self) -> tuple[tuple[int, int, Generator], ...]:
        """(i, j, [g_i, g_j]) for i < j, derived on first use."""
        gens = self.generators
        return tuple((i, j, commutator(gens[i], gens[j]))
                     for i in range(len(gens)) for j in range(i + 1, len(gens)))


@functools.lru_cache(maxsize=128)
def _symbolic(entry_id: str, sign_variant: str, choices: tuple[Expr, ...],
              fhat: Expr | None) -> _SymbolicEntry:
    """Parse an entry's templates once per (id, sign variant, function
    choices, and the source for A_1)."""
    spec = get_spec(entry_id)
    signs = _signs(sign_variant)
    psi_expr = ex.subs(parse_xtu(spec.psi), signs) if spec.psi is not None else None
    if spec.fhat is None:
        fhat_expr = fhat
    else:
        fhat_expr = parse_xtu(spec.fhat)
        for slot, choice in zip(spec.functions, choices):
            _check_function_choice(slot, choice)
            arg = psi_expr if slot.argument == "psi" else ex.sym("x")
            applied = ex.substitute(choice, "s" if slot.argument == "psi" else "x", arg)
            fhat_expr = ex.substitute(fhat_expr, slot.name, applied)
        fhat_expr = ex.subs(fhat_expr, signs)
        if psi_expr is not None:
            fhat_expr = ex.substitute(fhat_expr, "psi", psi_expr)

    gens = tuple(Generator.parse(x1, x2, et).subs(signs) for (x1, x2, et) in spec.generators)
    for g in gens:
        leftover = g.free_parameters() - set(spec.params)
        if leftover:
            raise RuntimeError(f"{entry_id}: unbound generator symbols {sorted(leftover)}")
    leftover = ex.free_symbols(fhat_expr) - {"x", "u", *spec.params}
    if leftover:
        raise RuntimeError(f"{entry_id}: unbound source symbols {sorted(leftover)}")
    return _SymbolicEntry(fhat_expr, psi_expr, EvolutionPDE(ex.sym("u_xx") + fhat_expr), gens)


def _resolve(
    entry_id: str,
    params: Mapping[str, float] | None,
    functions: Mapping[str, str | Expr] | None,
    sign_variant: str,
    fhat: str | Expr | None,
) -> tuple[EntrySpec, dict[str, float], str, _SymbolicEntry]:
    """Validate a request: the spec, the parameter values, the sign variant
    and the symbolic entry.  Inadmissible parameters raise on every call."""
    spec = get_spec(entry_id)
    pvals = dict(spec.defaults)
    if params:
        unknown = set(params) - set(spec.params)
        if unknown:
            raise ValueError(f"{entry_id}: unknown parameters {sorted(unknown)}")
        pvals.update({k: float(v) for k, v in params.items()})
    missing = set(spec.params) - set(pvals)
    if missing:
        raise ValueError(f"{entry_id}: missing parameters {sorted(missing)}")
    failed = spec.admissible(pvals)
    if failed:
        raise InadmissibleParamsError(entry_id, failed)
    if spec.sign_variants:
        if sign_variant not in ("plus", "minus"):
            raise ValueError("sign_variant must be 'plus' or 'minus'")
    else:
        sign_variant = "none"

    choices = []
    for slot in spec.functions:
        raw = None
        if functions and slot.name in functions:
            raw = functions[slot.name]
        elif slot.name in spec.default_functions:
            raw = spec.default_functions[slot.name]
        if raw is None:
            raise ValueError(f"{entry_id}: required function {slot.name} not supplied")
        choices.append(ex.parse(raw) if isinstance(raw, str) else raw)

    if spec.fhat is None:
        fhat = parse_xtu(fhat if fhat is not None else "phi^2")
    elif fhat is not None:
        raise ValueError(f"{entry_id}: fhat is fixed by the catalog")
    return spec, pvals, sign_variant, _symbolic(entry_id, sign_variant, tuple(choices), fhat)


def _box(spec: EntrySpec) -> dict[str, tuple[float, float]]:
    return {**_DEF_BOX, **spec.box}


def instantiate(
    entry_id: str,
    params: Mapping[str, float] | None = None,
    functions: Mapping[str, str | Expr] | None = None,
    sign_variant: str = "plus",
    fhat: str | Expr | None = None,
) -> CatalogEntry:
    """Build a concrete catalog entry.

    ``functions`` maps slot names (F_psi, F_x) to expressions in ``s``
    (functions of psi) or ``x``.  For A_1 an explicit ``fhat`` must be given
    (or the default phi^2 is used).  Inadmissible parameters raise
    InadmissibleParamsError naming the violated predicate.
    """
    spec, pvals, sign_variant, sym = _resolve(entry_id, params, functions, sign_variant, fhat)
    sub = {k: ex.num(v) for k, v in pvals.items()}
    return CatalogEntry(
        id=entry_id,
        spec=spec,
        params=pvals,
        sign_variant=sign_variant,
        fhat=ex.subs(sym.fhat, sub),
        psi=ex.subs(sym.psi, sub) if sym.psi is not None else None,
        generators=tuple(g.subs(sub) for g in sym.generators),
        flags=spec.flags,
        box=_box(spec),
    )


@dataclass
class EntryReport:
    id: str
    sign_variant: str
    params: Mapping[str, float]
    generator_reports: list[SymmetryReport]
    flags: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.generator_reports)

    @property
    def max_abs(self) -> float:
        return max(r.max_abs for r in self.generator_reports)


def verify_entry(
    entry_id: str,
    params: Mapping[str, float] | None = None,
    functions: Mapping[str, str | Expr] | None = None,
    sign_variant: str = "plus",
    fhat: str | Expr | None = None,
    n: int = 100,
    seed: int = 0,
    tolerance: float = 1e-8,
) -> EntryReport:
    """Check every generator of a concrete entry against the on-manifold
    symmetry condition at sampled jet points."""
    spec, pvals, sign_variant, sym = _resolve(entry_id, params, functions, sign_variant, fhat)
    reports = [
        check_symmetry(sym.pde, g, n=n, seed=seed + i, box=_box(spec), params=pvals,
                       tolerance=tolerance)
        for i, g in enumerate(sym.generators)
    ]
    return EntryReport(
        id=entry_id,
        sign_variant=sign_variant,
        params=pvals,
        generator_reports=reports,
        flags=spec.flags,
    )


def verify_commutators(
    entry_id: str,
    params: Mapping[str, float] | None = None,
    functions: Mapping[str, str | Expr] | None = None,
    sign_variant: str = "plus",
    fhat: str | Expr | None = None,
    n: int = 50,
    seed: int = 0,
    tolerance: float = 1e-6,
) -> list[tuple[int, int, SymmetryReport]]:
    """Closure sanity: brackets of basis generators are again symmetries."""
    spec, pvals, _, sym = _resolve(entry_id, params, functions, sign_variant, fhat)
    return [
        (i, j, check_symmetry(sym.pde, br, n=n, seed=seed + 13 * i + j, box=_box(spec),
                              params=pvals, tolerance=tolerance))
        for (i, j, br) in sym.brackets
    ]


@functools.lru_cache(maxsize=128)
def _class_condition(entry_id: str, sign_variant: str) -> Callable[..., tuple]:
    """The symmetry conditions of an entry's generators for the whole class
    u_t = u_xx + F, derived and compiled once per (id, sign variant) into one
    broadcastable function.  Its arguments are the free jet coordinates,
    F, F_x, F_t, F_u and the entry's parameters; it returns six summands per
    generator.  Entries with function slots are not matched."""
    sym = _symbolic(entry_id, sign_variant, (), None)
    terms = [t for g in sym.generators for t in class_condition_terms(g)]
    return ex.compile_exprs(terms, CONDITION_ARGS + CLASS_SOURCE + get_spec(entry_id).params)


# The refinement moves an entry's best candidates (grid points or random
# draws, least cost first) forward together by Levenberg-Marquardt.  One
# iteration is one call of the compiled class condition on every active
# candidate and its k forward-difference rows, and a call costs about the
# same for one row as for fifty.  Thirty candidates find fits that ten miss:
# from 400 random draws only a few percent reach a fit of the five-parameter
# A_3_5_1.  A candidate whose accepted step cuts its cost by at most _STALL
# relatively, while its verdict residual is still above _STALL_ABOVE times
# the tolerance, has stopped converging to a fit and is dropped; this keeps
# generic sources cheap.
_REFINED = 30
_MAX_ITER = 30
_STALL = 1e-2
_STALL_ABOVE = 1e3


def _fit(spec: EntrySpec, variant: str, args: Sequence[np.ndarray], confirm: Sequence[np.ndarray],
         rng: np.random.Generator, tolerance: float) -> tuple[np.ndarray, float] | None:
    """Refined parameters of an entry whose worst scaled residual is below
    ``tolerance`` over the sample and again over the confirmation sample,
    with its residual over the sample; None when no candidate gets there,
    or when the sample is too small to tell.  ``args`` and ``confirm`` are
    the jet columns and the source's values F, F_x, F_t, F_u at the points
    of each sample."""
    # A zero residual is evidence only when the equations on the fitted
    # parameters outnumber them: n per generator that involves parameters,
    # against the parameters those generators involve.  With no more, exact
    # fits form a family through almost any source, so the entry is not
    # matched.
    generators = _symbolic(spec.id, variant, (), None).generators
    fitted = set().union(*(g.free_parameters() for g in generators))
    if fitted and len(args[0]) * sum(bool(g.free_parameters()) for g in generators) <= len(fitted):
        return None
    fn = _class_condition(spec.id, variant)
    n_gens, k = len(spec.generators), len(spec.params)

    def residuals(values: np.ndarray, signed: bool = False, floor: float = 1.0) -> tuple:
        # six summands per generator, one row of parameters per candidate;
        # returns (candidates, generators, points)
        res, mask = ex.scale_residuals(values, 6, signed, floor)
        shape = (n_gens, values.shape[1], -1)
        return res.reshape(shape).swapaxes(0, 1), mask.reshape(shape).swapaxes(0, 1)

    def verdict(values: np.ndarray, P: np.ndarray, upto: float = np.inf) -> np.ndarray:
        # Rows whose residual is not below ``upto`` keep it unchecked: the
        # refinement only asks whether a verdict is below the tolerance or
        # above _STALL_ABOVE times it, so it skips the constraint call for
        # the rows far from a fit.
        res, mask = residuals(values)
        # Undefined points are skipped, but a generator with no defined point
        # at all says nothing, so the candidate fails.
        worst = np.where(mask.all(axis=2).any(axis=1), np.inf,
                         np.max(res, axis=(1, 2), where=~mask, initial=0.0))
        # A safety margin rejects degenerate boundary fits where the basis
        # collapses (e.g. all generators limiting onto the time translation,
        # which matches any autonomous source).  A fit outside the candidate
        # box is a limit of the family, not a member (A_3_5_3 reaches the
        # A_3_5_5 source with B and Delta near 2e8).
        i = np.flatnonzero(worst < upto)
        if len(i):
            Q = P[i]
            failed = (np.abs(Q) > 4.0).any(axis=1)
            failed |= spec.violations(dict(zip(spec.params, Q.T)), margin=0.05).any(axis=0)
            worst[i[failed]] = np.inf
        return worst

    def call(columns: Sequence[np.ndarray], P: np.ndarray) -> np.ndarray:
        # (summands, candidates, points)
        values, _ = fn(*columns, *P.T[:, :, None])
        return np.asarray(values).reshape(len(values), len(P), -1)

    def confirmed(P: np.ndarray) -> np.ndarray:
        return verdict(call(confirm, P), P) < tolerance

    # The refinement scales each generator's summands by the largest of them
    # alone, with no floor of 1: a generator whose coefficients all vanish on
    # the way to a degenerate fit then keeps a residual of order one, which
    # the verdict's scale would read as a perfect fit.  An undefined point
    # costs as a poor fit, and gives no Jacobian entry.
    tiny = np.finfo(float).tiny

    def signed(values: np.ndarray) -> np.ndarray:
        # (candidates, residuals), NaN where undefined
        res, mask = residuals(values, signed=True, floor=tiny)
        return np.where(mask, np.nan, res).reshape(values.shape[1], -1)

    def cost(r: np.ndarray) -> np.ndarray:
        return 0.5 * np.sum(np.where(np.isnan(r), 1.0, r) ** 2, axis=1)

    if k == 0:
        candidates = np.empty((1, 0))
    elif k <= 2:
        grid = np.linspace(-4.0, 4.0, 17)
        candidates = np.stack(np.meshgrid(*[grid] * k, indexing="ij"), axis=-1).reshape(-1, k)
    else:
        candidates = rng.uniform(-4.0, 4.0, (400, k))
    values = call(args, candidates)
    scores = verdict(values, candidates)
    # The refinement starts from the candidates of least cost, the quantity
    # it minimises, among those the verdict can pass.
    best = np.argsort(np.where(np.isfinite(scores), cost(signed(values)), np.inf), kind="stable")
    p = candidates[best[:_REFINED][np.isfinite(scores[best[:_REFINED]])]]
    if not len(p):
        return None
    if k == 0:
        return (p[0], float(scores[0])) if scores[0] < tolerance and confirmed(p)[0] else None
    eye = np.eye(k)

    def evaluate(P: np.ndarray) -> tuple:
        # residuals, cost, transposed Jacobian (candidates, k, residuals) and
        # verdict at each row of P, from one call
        h = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(P))
        ahead = (P[:, None, :] + h[:, :, None] * eye).reshape(-1, k)
        values = call(args, np.concatenate([P, ahead]))
        res = signed(values)
        r = res[:len(P)]
        jac = (res[len(P):].reshape(len(P), k, -1) - r[:, None, :]) / h[:, :, None]
        return (np.where(np.isnan(r), 1.0, r), cost(r), np.where(np.isfinite(jac), jac, 0.0),
                verdict(values[:, :len(P)], P, _STALL_ABOVE * tolerance))

    # Levenberg-Marquardt with Nielsen's damping update (IMM-REP-1999-05) on
    # the damped normal equations, in parameters scaled by the running
    # maximum of each Jacobian column's norm (More 1978, as in MINPACK).
    r, f, jac, score = evaluate(p)
    scale = np.linalg.norm(jac, axis=2)
    scale[scale == 0.0] = 1.0
    lam, nu = np.full(len(p), 1e-3), np.full(len(p), 2.0)
    fresh, fit = np.ones(len(p), dtype=bool), np.zeros(len(p), dtype=bool)
    for it in range(_MAX_ITER + 1):
        # A fit under tolerance on the sample counts only when the
        # confirmation sample agrees; until then it keeps iterating.
        check = np.flatnonzero(fresh & (score < tolerance) & ~fit)
        if len(check):
            fit[check] = confirmed(p[check])
        if it == _MAX_ITER or not len(p):
            break
        J = jac / scale[:, :, None]
        g = J @ r[:, :, None]
        with np.errstate(all="ignore"):
            step = np.linalg.solve(J @ J.swapaxes(1, 2) + lam[:, None, None] * eye, -g)[..., 0]
            predicted = 0.5 * np.sum(step * (lam[:, None] * step - g[..., 0]), axis=1)
            trial = p + step / scale
            r_t, f_t, jac_t, score_t = evaluate(trial)
            rho = (f - f_t) / predicted
            good = (rho > 0.0) & np.isfinite(trial).all(axis=1)
            small = ~good | (f - f_t <= _STALL * f)
            # The floor keeps the damped matrix nonsingular where the
            # Jacobian is rank-deficient: its scaled diagonal is at most 1.
            lam = np.maximum(lam * np.where(good, np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), nu),
                             1e-12)
            nu = np.where(good, 2.0, 2.0 * nu)
            scale_t = np.maximum(scale, np.linalg.norm(jac_t, axis=2))
        # A candidate stops when its step no longer moves it (a zero gradient,
        # or damping grown past any step), or when an accepted step barely
        # cuts a cost still far from a fit.
        stop = (trial == p).all(axis=1) | (good & small & (score_t > _STALL_ABOVE * tolerance))
        p[good], r[good], f[good], jac[good] = trial[good], r_t[good], f_t[good], jac_t[good]
        score[good], scale[good] = score_t[good], scale_t[good]
        fresh = good
        fit &= score < tolerance
        # A confirmed fit is returned once its cost stops falling, so that
        # its parameters are polished, not only under tolerance.
        if (fit & small).any():
            i = np.argmax(fit & small)
            return p[i], float(score[i])
        if stop.any():
            p, r, f, jac, score, scale, lam, nu, fresh, fit = (
                v[~stop] for v in (p, r, f, jac, score, scale, lam, nu, fresh, fit))
    return (p[fit][0], float(score[fit][0])) if fit.any() else None


def match_fhat(
    fhat: str | Expr,
    n: int = 40,
    seed: int = 0,
    tolerance: float = 1e-6,
) -> list[dict]:
    """Heuristic structural matching: which entries admit the given source?

    Every entry without arbitrary-function slots is tried in each sign
    variant.  Its generators' symmetry conditions are derived once for the
    whole class u_t = u_xx + F with F and its partials as symbols, and
    compiled once per entry; a call evaluates the given source and its
    partials at the n sample points only.  The whole parameter grid (17^k
    points on [-4, 4]^k for k <= 2 parameters, else 400 random draws) is
    scored in one batched call, and the 30 candidates of least cost are
    refined together by Levenberg-Marquardt on the signed scaled residuals,
    one compiled call per iteration for all of them.  An entry matches when
    some refined fit lies in [-4, 4]^k, is admissible with a margin of 0.05,
    and its worst scaled residual over the defined sample points is below
    ``tolerance``, both at the n sample points and at n more confirmation
    points from their own stream (``np.random.default_rng([seed, 1])``);
    a generator with no defined point fails the fit.  An entry is not
    tried when its generators that involve parameters give, at n points,
    no more equations than the parameters they involve (A_3_5_1 and
    A_3_8_1/2 need n >= 3).  The answer is deterministic given ``seed``.
    Returns candidates sorted by dimension (largest algebra first); A_1
    always matches.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    fhat_expr = parse_xtu(fhat)

    partials = ex.compile_exprs([fhat_expr] + [ex.diff(fhat_expr, v) for v in ("x", "t", "u")],
                                ("x", "t", "u"))

    box = {**DEFAULT_BOX, **_DEF_BOX}

    def sample(rng: np.random.Generator) -> list[np.ndarray]:
        # the columns of CONDITION_ARGS, then F, F_x, F_t, F_u there
        jet = [rng.uniform(*box[name], n) for name in CONDITION_ARGS]
        return jet + list(partials(*jet[:3])[0])

    # The confirmation sample has its own stream, so the candidate draws
    # from the main one do not depend on it.
    rng = np.random.default_rng(seed)
    args, confirm = sample(rng), sample(np.random.default_rng([seed, 1]))

    matches = [{"id": "A_1", "params": {}, "sign_variant": None, "residual": 0.0}]
    for spec in ENTRIES:
        if spec.id == "A_1" or spec.functions:
            continue
        for variant in spec.variant_names():
            fit = _fit(spec, variant, args, confirm, rng, tolerance)
            if fit is not None:
                matches.append({
                    "id": spec.id,
                    "params": dict(zip(spec.params, (float(v) for v in fit[0]))),
                    "sign_variant": variant if spec.sign_variants else None,
                    "residual": fit[1],
                })
    matches.sort(key=lambda m: -get_spec(m["id"]).dimension)
    return matches


def export_json() -> str:
    """Catalog as JSON: templates, constraints, generators (for docs/tools)."""
    payload = []
    for e in ENTRIES:
        payload.append(
            {
                "id": e.id,
                "dimension": e.dimension,
                "fhat_template": e.fhat,
                "psi": e.psi,
                "params": list(e.params),
                "constraints": [
                    _constraint_text_one(*c) for c in e.constraints
                ],
                "generators": [list(g) for g in e.generators],
                "sign_variants": e.sign_variants,
                "arbitrary_functions": [
                    {"name": f.name, "argument": f.argument} for f in e.functions
                ],
                "flags": list(e.flags),
            }
        )
    return json.dumps(payload, indent=2)
