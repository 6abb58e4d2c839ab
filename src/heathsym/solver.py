"""Finite-difference marching for the heat-with-source picture.

The solver integrates phi_tau = phi_xx + fhat(x, phi) forward in tau on a
truncated strip with Dirichlet data, using either explicit Euler or a
Crank-Nicolson IMEX split (diffusion implicit via a tridiagonal solve, source
explicit with a second-order Adams-Bashforth extrapolation after the first
step).  Boundary data is taken from closed-form reference solutions
(manufactured-solution methodology), which isolates the interior scheme error.

The moving-barrier variant fills the nodes behind the barrier curve with the
barrier datum, and each snapshot records the first node the march solved for,
so the error norms and the inverse map see only the domain.  The first
node right of the curve lies on the line through the datum on the curve and
the next node's value at the same level; that relation is folded into the
first row of the Crank-Nicolson matrix, and nodes the receding barrier
uncovers continue the previous level's boundary line.  The observed order
of this treatment still depends on where the curve falls between nodes
(pairwise orders from about 0.8 to 2.8 over nx = 32-512).  Both variants run
one march: its source and boundary data are compiled once, every boundary value
is computed before the first step, and each CN matrix is LU-factored once per
unknown count (per level where the folded row changes); scipy.linalg, which
provides the LAPACK routines, loads on the first factorisation.  Each step
calls the source's value kernel once (expr.compile_kernel) and writes its
level into one (levels, nx + 2) buffer per march, under one np.errstate; one
bound check per level catches a blow-up and an undefined source, and the
snapshots are read-only rows of that buffer.  The march warns
PositivityWarning once per run when any node of any level has phi <= 0.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import expr as ex
from .expr import Expr
from .lie import parse_xtu
from .model import CoordinateMap, HeatSourceModel
from .solutions import BarrierSpec

_BLOWUP = 1e12

EXPLICIT = "explicit-euler"
CN_IMEX = "cn-imex"
_SCHEMES = (EXPLICIT, CN_IMEX)

BOUNDARY_EXACT = "exact-dirichlet"
BOUNDARY_STATIC = "static-dirichlet"
_BOUNDARY_MODES = (BOUNDARY_EXACT, BOUNDARY_STATIC)


class SolverError(Exception):
    """Base class for marching failures."""


class InstabilityError(SolverError):
    """The field blew up or went non-finite during the march."""


class BarrierExitsGridError(SolverError):
    """The barrier curve left the spatial window during the march."""


class PositivityWarning(UserWarning):
    """The field touched phi <= 0; the inverse map to the original picture
    needs ln(phi) and will fail on such nodes."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid: ``nx`` interior nodes plus two boundary nodes
    on [x_lo, x_hi], ``ntau`` steps on [tau0, tau1]."""

    x_lo: float
    x_hi: float
    nx: int
    tau0: float
    tau1: float
    ntau: int

    def __post_init__(self):
        if self.nx < 8:
            raise ValueError("nx must be >= 8")
        if self.ntau < 4:
            raise ValueError("ntau must be >= 4")
        if not self.x_lo < self.x_hi:
            raise ValueError("x_lo must be < x_hi")
        if not self.tau0 < self.tau1:
            raise ValueError("tau0 must be < tau1")

    @property
    def h(self) -> float:
        return (self.x_hi - self.x_lo) / (self.nx + 1)

    @property
    def k(self) -> float:
        return (self.tau1 - self.tau0) / self.ntau

    def nodes(self) -> np.ndarray:
        """All nx + 2 node coordinates, boundary nodes included."""
        return np.linspace(self.x_lo, self.x_hi, self.nx + 2)

    def taus(self) -> np.ndarray:
        return np.linspace(self.tau0, self.tau1, self.ntau + 1)


@dataclass(frozen=True)
class FieldSnapshot:
    """The field at one time level, on all grid nodes.  ``lo`` is the first
    node the march solved for: nodes lo-1 .. nx+1 lie in the domain, and
    the nodes left of lo-1 hold the barrier datum.  Immutable; the vector
    is checked finite, copied and frozen on construction (a march's
    snapshots share its read-only buffer instead)."""

    tau: float
    phi: np.ndarray
    lo: int = 1

    def __post_init__(self):
        arr = np.array(self.phi, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("snapshot contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "phi", arr)

    @classmethod
    def _row(cls, tau: float, phi: np.ndarray, lo: int) -> "FieldSnapshot":
        """A snapshot of ``phi``, a read-only row the march has checked,
        kept without a copy."""
        snap = object.__new__(cls)
        for name, value in (("tau", tau), ("phi", phi), ("lo", lo)):
            object.__setattr__(snap, name, value)
        return snap


@dataclass(frozen=True)
class SchemeConfig:
    """Time-stepping choice and boundary mode.

    ``explicit-euler`` is subject to the stability guard k <= h^2/2;
    ``cn-imex`` treats diffusion implicitly (Crank-Nicolson) and the source
    explicitly.  ``exact-dirichlet`` evaluates a reference expression on the
    boundary at every step; ``static-dirichlet`` freezes the initial boundary
    values.
    """

    scheme: str = CN_IMEX
    boundary: str = BOUNDARY_EXACT

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}")
        if self.boundary not in _BOUNDARY_MODES:
            raise ValueError(f"boundary mode must be one of {_BOUNDARY_MODES}")

    def validate(self, grid: GridSpec) -> None:
        """Raise when the stability guard is violated."""
        if self.scheme == EXPLICIT:
            bound = grid.h * grid.h / 2.0
            if grid.k > bound * (1 + 1e-12):
                raise ValueError(
                    f"explicit scheme requires k <= h^2/2: "
                    f"k = {grid.k:.6g} > {bound:.6g} = h^2/2"
                )


class Snapshots(list):
    """The snapshots of one march in tau order, with ``min_phi``: the least
    phi over every node of every level."""

    def __init__(self, snaps: Sequence[FieldSnapshot], min_phi: float):
        super().__init__(snaps)
        self.min_phi = min_phi


@functools.lru_cache(maxsize=32)
def _compile_field(f: Expr | str, names: tuple[str, ...]) -> tuple[Expr, Callable]:
    """``f`` in the internal (x, t, u) names, and its compiled function of
    ``names``; a refinement study asks for the same fields at every level."""
    e = parse_xtu(f)
    extra = ex.free_symbols(e) - set(names)
    if extra:
        raise ValueError(f"expression may only contain {names}; found {sorted(extra)}")
    return e, ex.compile_exprs((e,), names)


class _Field:
    """An Expr, a string, or a scalar callable, compiled once into a function
    of the arrays named ``names``."""

    def __init__(self, f, names: Sequence[str]):
        self.names = tuple(names)
        if callable(f) and not isinstance(f, Expr):
            self.expr, self._vec = None, np.vectorize(f, otypes=[float])
        else:
            self.expr, self._fn = _compile_field(f, self.names)

    def masked(self, *a) -> tuple[np.ndarray, np.ndarray]:
        """Values broadcast over the arguments, and the mask of points where
        the field is undefined (never set for a callable)."""
        if self.expr is None:
            v = self._vec(*a)
            return v, np.zeros(np.shape(v), dtype=bool)
        (v,), mask = self._fn(*a)
        return v, mask

    def __call__(self, *a) -> np.ndarray:
        """Values; an undefined point raises DomainError."""
        v, mask = self.masked(*a)
        if mask.any():
            # raises, naming the failing subexpression
            ex.evaluate_many([self.expr], dict(zip(self.names, a)))
        return v


class _Edges(NamedTuple):
    """Boundary data of a march, one entry per level for the first len(j)
    levels.  At level m node j[m] holds a[m] + b[m] * phi[j[m] + 1], the
    nodes left of it hold fill[m], the last node right[m], and nodes
    j[m] + 1 .. nx are the unknowns.  ``fail``, when set, raises the error
    of the first level that has no data."""

    j: np.ndarray
    a: np.ndarray
    b: np.ndarray
    fill: np.ndarray
    right: np.ndarray
    fail: Callable[[], None] | None


def _instability(phi: np.ndarray, tau: float) -> InstabilityError:
    """The error for a level that is not finite or where |phi| passed the
    blow-up bound."""
    lo, hi = float(phi.min()), float(phi.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return InstabilityError(f"non-finite value at tau = {tau:.6g}")
    return InstabilityError(
        f"instability detected: |phi| reached {max(abs(lo), abs(hi)):.3g} > "
        f"{_BLOWUP:.0e} at tau = {tau:.6g}"
    )


@functools.lru_cache(maxsize=32)
def _source_kernel(fhat: Expr) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """fhat's value kernel in (x, u); a refinement study marches the same
    source at every level."""
    return ex.compile_kernel(fhat, ("x", "u"))


@functools.cache
def _lapack():
    """scipy's LAPACK wrappers, loaded on the first Crank-Nicolson
    factorisation: importing scipy.linalg costs more than the rest of
    heathsym's import, and only the CN march uses it."""
    from scipy.linalg import lapack

    return lapack


def __getattr__(name: str):
    # the benchmark's tracer wraps solve_banded under this module's name
    if name == "solve_banded":
        from scipy.linalg import solve_banded

        return solve_banded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _cn_factor(n: int, lam: float, fold: float = 0.0) -> tuple:
    """LU factors (LAPACK gttrf) of I - (lam/2) * tridiag(1, -2, 1) of order
    n, with (lam/2) * fold taken off the first diagonal entry."""
    off = np.full(n - 1, -lam / 2.0)
    d = np.full(n, 1.0 + lam)
    if fold:
        d[0] -= (lam / 2.0) * fold
    *lu, info = _lapack().dgttrf(off, d, off)
    if info:
        raise np.linalg.LinAlgError("singular Crank-Nicolson matrix")
    return tuple(lu)


def _cn_solve(lu: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve with factors from _cn_factor (LAPACK gttrs); bit for bit what
    scipy.linalg.solve_banded gives for the same banded matrix."""
    x, _ = _lapack().dgttrs(*lu, rhs, overwrite_b=1)
    return x


def _march(model, grid, scheme, phi, edges: _Edges) -> Snapshots:
    """March ``phi``, the field at tau0 on all nodes, to tau1 and return a
    snapshot per time level (initial level included): read-only rows of
    one buffer.  A level that leaves [-1e12, 1e12] raises the source's
    DomainError when the source was undefined there, InstabilityError
    otherwise.  When ``edges`` ends early, its ``fail`` raises once the
    march reaches that level.  Warns PositivityWarning once when any node
    of any level has phi <= 0.
    """
    scheme.validate(grid)
    xs, taus = grid.nodes(), grid.taus()
    h, k = grid.h, grid.k
    lam = k / (h * h)
    source = _source_kernel(model.fhat)
    factors: dict[int, tuple] = {}  # CN factors per unknown count, no fold
    src_prev: np.ndarray | None = None
    field = np.empty((edges.j.size, phi.size))
    field[:1] = phi  # level 0, unless the data fail at tau0
    levels = zip(*(v.tolist() for v in (edges.j, edges.a, edges.b, edges.fill, edges.right)))
    with np.errstate(all="ignore"):
        for m, (j, a, b, fill, right) in enumerate(levels):
            lo = j + 1  # first unknown
            row = field[m]
            if m:
                prev = field[m - 1]
                if j < j_prev:
                    # nodes uncovered by a receding barrier continue the old
                    # level's boundary line, through nodes j_prev and j_prev + 1
                    prev = prev.copy()
                    step = prev[j_prev] - prev[j_prev + 1]
                    prev[j:j_prev] = prev[j_prev] + step * np.arange(j_prev - j, 0, -1)
                src = source(xs[lo:-1], prev[lo:-1])
                diff = prev[lo - 1 : -2] - 2 * prev[lo:-1] + prev[lo + 1 :]
                if scheme.scheme == EXPLICIT:
                    interior = prev[lo:-1] + k * (diff / (h * h) + src)
                else:
                    # Adams-Bashforth 2 source once the unknowns match the previous
                    # level's (Euler before) keeps the split second-order in time.
                    ab2 = src_prev is not None and src_prev.size == src.size
                    s_eff = 1.5 * src - 0.5 * src_prev if ab2 else src
                    rhs = prev[lo:-1] + (lam / 2.0) * diff + k * s_eff
                    # node j = a + b * (first unknown), at the new level
                    rhs[0] += (lam / 2.0) * a
                    rhs[-1] += (lam / 2.0) * right
                    if b:  # the folded first row changes with the barrier
                        lu = _cn_factor(src.size, lam, b)
                    elif src.size in factors:
                        lu = factors[src.size]
                    else:
                        lu = factors[src.size] = _cn_factor(src.size, lam)
                    interior = _cn_solve(lu, rhs)
                src_prev = src
                row[lo:-1] = interior
            row[:j] = fill
            row[j] = a + b * row[lo] if b else a  # b = 0 keeps the datum's bits (-0.0)
            row[-1] = right
            j_prev = j
            # NaN fails the test; an undefined source leaves NaN or inf in the level
            if not (-_BLOWUP <= row.min() and row.max() <= _BLOWUP):
                if m and not np.isfinite(src).all():
                    # raises, naming the failing subexpression
                    ex.evaluate_many([model.fhat], {"x": xs[lo:-1], "u": prev[lo:-1]})
                raise _instability(row, taus[m])
    if edges.fail is not None:
        edges.fail()
    field.setflags(write=False)
    low = float(field.min())
    if low <= 0.0:
        warnings.warn(
            f"field reached min phi = {low:.6g} <= 0; the inverse map needs ln(phi)",
            PositivityWarning,
            stacklevel=3,  # past the solve front, to its caller
        )
    los = (edges.j + 1).tolist()
    return Snapshots([FieldSnapshot._row(*level) for level in zip(taus, field, los)], low)


def solve(
    model: HeatSourceModel,
    init,
    grid: GridSpec,
    scheme: SchemeConfig,
    boundary=None,
) -> Snapshots:
    """March the field from tau0 to tau1 and return a snapshot per time level
    (initial level included).

    ``init`` is the initial profile phi(x): an Expr/str in x, a scalar
    callable, or an array of its values on the nx + 2 nodes.  ``boundary``
    supplies Dirichlet data: for ``exact-dirichlet`` an Expr/str/callable in
    (x, tau) evaluated on both ends at every level; for ``static-dirichlet``
    either None (freeze the initial profile's end values) or a (left, right)
    pair of floats.
    """
    xs, taus = grid.nodes(), grid.taus()
    if isinstance(init, np.ndarray):
        if init.shape != xs.shape:
            raise ValueError(f"init needs {xs.size} node values, got shape {init.shape}")
        phi = np.array(init, dtype=float)
    else:
        phi = np.array(_Field(init, ("x",))(xs), dtype=float)
    fail = None
    if scheme.boundary == BOUNDARY_EXACT:
        if boundary is None:
            raise ValueError("exact-dirichlet boundary mode needs boundary data")
        bfn = _Field(boundary, ("x", "t"))
        ends = xs[[0, -1]]
        ends_v, undefined = bfn.masked(ends, taus[:, None])
        bad = undefined.any(axis=1)
        if bad.any():
            n = int(np.argmax(bad))
            ends_v, fail = ends_v[:n], lambda: bfn(ends, taus[n])
        left, right = ends_v[:, 0], ends_v[:, 1]
    else:
        frozen = (phi[0], phi[-1]) if boundary is None else boundary
        left, right = (np.full(taus.size, float(v)) for v in frozen)
    zeros = np.zeros(left.size)
    edges = _Edges(zeros.astype(int), left, zeros, left, right, fail)
    return _march(model, grid, scheme, phi, edges)


@functools.lru_cache(maxsize=32)
def _barrier_fn(H: Expr, R: Expr, a: float, b: float) -> tuple[tuple, Callable]:
    """(H, phi on the barrier) in t, and their compiled function, with the
    original-picture datum R mapped to the heat picture:
    phi = exp(-(a H + R)/b^2)."""
    to_phi = CoordinateMap.heath_heat(a, b).forward[2]
    exprs = (H, ex.subs(to_phi, {"x": H, "u": R}))
    return exprs, ex.compile_exprs(exprs, ("t",))


def _barrier_levels(spec: BarrierSpec, grid: GridSpec, taus: np.ndarray):
    """(j, H, phi on the barrier, fail) at ``taus``: node j is the first node
    right of the barrier x = H(tau), so the unknowns are nodes j + 1 .. nx.
    The arrays stop before the first tau where H or the datum is undefined,
    H leaves (x_lo, x_hi) or leaves no unknown; ``fail`` then raises that
    tau's DomainError or BarrierExitsGridError, and is None otherwise."""
    exprs, fn = _barrier_fn(spec.H, spec.R, spec.params["a"], spec.params["b"])
    (hv, dv), undefined = fn(taus)
    j = np.searchsorted(grid.nodes(), hv, side="right")
    inside = (grid.x_lo < hv) & (hv < grid.x_hi)
    ok = ~undefined & inside & (j < grid.nx)
    if ok.all():
        return j, hv, dv, None
    n = int(np.argmin(ok))
    tau, h_n = float(taus[n]), float(hv[n])

    def fail():
        ex.evaluate_many(exprs, {"t": tau})  # raises where H or the datum is undefined
        if not inside[n]:
            raise BarrierExitsGridError(
                f"barrier exits grid at tau = {tau:.6g}: H = {h_n:.6g} "
                f"outside ({grid.x_lo:.6g}, {grid.x_hi:.6g})"
            )
        raise BarrierExitsGridError(
            f"barrier exits grid at tau = {tau:.6g}: too few nodes right of "
            f"H = {h_n:.6g}"
        )

    return j[:n], hv[:n], dv[:n], fail


def solve_barrier(
    model: HeatSourceModel,
    spec: BarrierSpec,
    grid: GridSpec,
    scheme: SchemeConfig,
    reference,
) -> Snapshots:
    """March the field on the moving domain x > H(tau).

    Nodes with x <= H(tau) are outside the domain; they are filled with the
    barrier datum so snapshots stay total.  The first node right of the
    barrier is tied, at each new level, to the line through the datum on the
    curve and the next node's value; the CN step solves for that node and
    the unknowns together.  Nodes uncovered by a receding barrier start from
    the previous level's boundary line.  The right boundary and the initial
    profile come from ``reference`` (Expr or callable in (x, tau)).  Raises
    BarrierExitsGridError when H leaves (x_lo, x_hi).
    """
    xs, taus = grid.nodes(), grid.taus()
    ref = _Field(reference, ("x", "t"))
    phi = np.array(ref(xs, grid.tau0), dtype=float)
    j, hv, dv, fail = _barrier_levels(spec, grid, taus)
    right, undefined = ref.masked(xs[-1], taus[: j.size])
    if undefined.any():
        n = int(np.argmax(undefined))
        j, hv, dv, right = j[:n], hv[:n], dv[:n], right[:n]
        fail = lambda: ref(xs[-1], taus[n])
    x0, x1 = xs[j], xs[j + 1]
    # node j on the line through (H, datum) and (x_{j+1}, phi_{j+1})
    a = dv * (x1 - x0) / (x1 - hv)
    b = (x0 - hv) / (x1 - hv)
    return _march(model, grid, scheme, phi, _Edges(j, a, b, dv, right, fail))


def error_norms(
    snapshots: Sequence[FieldSnapshot],
    reference,
    grid: GridSpec,
) -> list[dict]:
    """Discrete Linf and L2 error per snapshot over the nodes it solved
    for, lo .. nx: the interior of a fixed strip, the nodes right of the
    barrier's tied node on a moving domain."""
    xs = grid.nodes()
    ref = _Field(reference, ("x", "t"))
    out = []
    for snap in snapshots:
        sel = slice(snap.lo, -1)
        err = snap.phi[sel] - ref(xs[sel], snap.tau)
        linf = float(np.max(np.abs(err))) if err.size else 0.0
        l2 = float(math.sqrt(grid.h * float(np.sum(err * err))))
        out.append({"tau": float(snap.tau), "Linf": linf, "L2": l2})
    return out


@dataclass(frozen=True)
class ConvergenceCase:
    """One manufactured problem for a refinement study: a model, an exact
    reference field (supplying initial/boundary data and the error gauge),
    the base grid, and the scheme.  With ``barrier`` set the run uses the
    moving-domain march."""

    model: HeatSourceModel
    exact: object  # Expr/str/callable in (x, tau)
    grid: GridSpec
    scheme: SchemeConfig
    barrier: BarrierSpec | None = None

    def run(self, nx: int) -> dict:
        """One refinement level at ``nx`` interior nodes, with the step count
        scaled so k is proportional to h (CN) or h^2 (explicit): the
        final-time Linf ``error``, the run's ``min_phi`` and
        ``lam`` = k/h^2."""
        ratio = (nx + 1) / (self.grid.nx + 1)
        if self.scheme.scheme == EXPLICIT:
            ntau = int(math.ceil(self.grid.ntau * ratio * ratio))
        else:
            ntau = int(math.ceil(self.grid.ntau * ratio))
        g = replace(self.grid, nx=nx, ntau=max(ntau, 4))
        if self.barrier is None:
            init = _Field(self.exact, ("x", "t"))(g.nodes(), g.tau0)
            snaps = solve(self.model, init, g, self.scheme, boundary=self.exact)
        else:
            snaps = solve_barrier(self.model, self.barrier, g, self.scheme,
                                  self.exact)
        norms = error_norms(snaps[-1:], self.exact, g)
        return {"error": norms[0]["Linf"], "min_phi": snaps.min_phi,
                "lam": g.k / (g.h * g.h)}


def convergence_study(
    case: ConvergenceCase, refinements: Sequence[int]
) -> dict:
    """Run the case at each refinement level (interior node counts) and fit
    the observed order as the least-squares slope of log error vs log h.

    Levels run one after another.  A non-monotone error sequence is
    reported in the result, never hidden; so is each level's ``min_phi``
    (phi <= 0 breaks the inverse map) and ``lam`` = k/h^2.  A level whose
    error is exactly 0 has no log error: the order and the pairwise orders
    next to it are None, and ``order_reason`` names the level."""
    if len(refinements) < 3:
        raise ValueError("need >=3 levels")
    runs = [case.run(nx) for nx in refinements]
    errors = [r["error"] for r in runs]
    hs = [(case.grid.x_hi - case.grid.x_lo) / (nx + 1) for nx in refinements]
    logs_h = np.log(np.array(hs))
    exact = [int(nx) for nx, e in zip(refinements, errors) if e == 0.0]
    with np.errstate(divide="ignore"):  # log(0) = -inf at an exact level
        logs_e = np.log(np.array(errors))
    pairwise = [
        float((logs_e[i + 1] - logs_e[i]) / (logs_h[i + 1] - logs_h[i]))
        if errors[i] and errors[i + 1] else None
        for i in range(len(hs) - 1)
    ]
    monotone = all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    report = {
        "nx": [int(n) for n in refinements],
        "h": [float(v) for v in hs],
        "errors": [float(e) for e in errors],
        "order": None if exact else float(np.polyfit(logs_h, logs_e, 1)[0]),
        "pairwise_orders": pairwise,
        "monotone": monotone,
        "min_phi": [float(r["min_phi"]) for r in runs],
        "lam": [float(r["lam"]) for r in runs],
    }
    if exact:
        report["order_reason"] = f"error is exactly 0 at nx = {exact}: log(0) is undefined"
    return report


def map_to_heath(
    snapshots: Sequence[FieldSnapshot],
    grid: GridSpec,
    a: float,
    b: float,
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Map heat-picture snapshots back to the original picture:
    t = -2 tau / b^2, u = -b^2 ln(phi) - a x, on the nodes inside each
    snapshot's domain, lo-1 .. nx+1 (every node of a fixed strip).  Requires
    phi > 0 there; returns (t, x-values, u-values) per snapshot."""
    xs = grid.nodes()
    out = []
    for snap in snapshots:
        sel = slice(snap.lo - 1, None)
        phi = snap.phi[sel]
        if np.min(phi) <= 0:
            raise ValueError(
                f"phi <= 0 at tau = {snap.tau:.6g}: inverse map undefined"
            )
        tv = -2.0 * snap.tau / (b * b)
        us = -b * b * np.log(phi) - a * xs[sel]
        out.append((tv, xs[sel].copy(), us))
    return out


def csv_rows(
    snapshots: Sequence[FieldSnapshot], grid: GridSpec, stride: int = 1
) -> list[tuple[float, float, float]]:
    """Deterministic (tau, x, phi) rows, tau-major then x-minor, one row per
    node per snapshot stride."""
    xs = grid.nodes()
    rows = []
    for snap in snapshots[::stride]:
        for i in range(xs.size):
            rows.append((float(snap.tau), float(xs[i]), float(snap.phi[i])))
    return rows
