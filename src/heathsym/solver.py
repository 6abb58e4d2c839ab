"""Finite-difference marching for the heat-with-source picture.

The solver integrates phi_tau = phi_xx + fhat(x, phi) forward in tau on a
truncated strip with Dirichlet data, using either explicit Euler or a
Crank-Nicolson IMEX split (diffusion implicit via a tridiagonal solve, source
explicit with a second-order Adams-Bashforth extrapolation after the first
step).  Boundary data is taken from closed-form reference solutions
(manufactured-solution methodology), which isolates the interior scheme error.

The moving-barrier variant masks nodes behind the barrier curve and imposes
the barrier datum at the first interior node by linear interpolation between
the datum on the curve and the neighbouring solution value; this boundary
treatment is first-order accurate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.linalg import solve_banded

from . import expr as ex
from .expr import Expr
from .model import CoordinateMap, HeatSourceModel, parse_if_str
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
    """The field at one time level, on all grid nodes.  Immutable; the
    vector is copied and frozen on construction."""

    tau: float
    phi: np.ndarray

    def __post_init__(self):
        arr = np.array(self.phi, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("snapshot contains non-finite values")
        if np.min(arr) <= 0.0:
            warnings.warn(
                "field has nodes with phi <= 0; the inverse map needs ln(phi)",
                PositivityWarning,
                stacklevel=3,  # past the dataclass __init__, to the caller
            )
        arr.setflags(write=False)
        object.__setattr__(self, "phi", arr)


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


def _field_fn(f, names: Sequence[str]) -> Callable[..., np.ndarray]:
    """Accept an Expr, a string, or a scalar callable and return a
    positional callable over ``names`` that takes arrays.  An undefined
    point raises DomainError."""
    if callable(f) and not isinstance(f, Expr):
        return np.vectorize(f, otypes=[float])
    e = ex.rename(parse_if_str(f), {"phi": "u", "tau": "t"})
    extra = ex.free_symbols(e) - set(names)
    if extra:
        raise ValueError(f"expression may only contain {names}; found {sorted(extra)}")
    return lambda *a: ex.evaluate_many([e], dict(zip(names, a)))[0]


def _check_finite(phi: np.ndarray, tau: float) -> None:
    if not np.all(np.isfinite(phi)):
        raise InstabilityError(f"non-finite value at tau = {tau:.6g}")
    m = float(np.max(np.abs(phi)))
    if m > _BLOWUP:
        raise InstabilityError(
            f"instability detected: |phi| reached {m:.3g} > {_BLOWUP:.0e} "
            f"at tau = {tau:.6g}"
        )


def _cn_matrix(n: int, lam: float) -> np.ndarray:
    """Banded (1,1) form of I - (lam/2) * tridiag(1, -2, 1)."""
    ab = np.zeros((3, n))
    ab[0, 1:] = -lam / 2.0
    ab[1, :] = 1.0 + lam
    ab[2, :-1] = -lam / 2.0
    return ab


def solve(
    model: HeatSourceModel,
    init,
    grid: GridSpec,
    scheme: SchemeConfig,
    boundary=None,
) -> list[FieldSnapshot]:
    """March the field from tau0 to tau1 and return a snapshot per time level
    (initial level included).

    ``init`` is the initial profile phi(x) (Expr/str in x, or callable).
    ``boundary`` supplies Dirichlet data: for ``exact-dirichlet`` an
    Expr/str/callable in (x, tau) evaluated on both ends every step; for
    ``static-dirichlet`` either None (freeze the initial profile's end
    values) or a (left, right) pair of floats.
    """
    scheme.validate(grid)
    xs = grid.nodes()
    taus = grid.taus()
    h, k = grid.h, grid.k
    fhat = _field_fn(model.fhat, ("x", "u"))

    phi = np.array(_field_fn(init, ("x",))(xs), dtype=float)

    if scheme.boundary == BOUNDARY_EXACT:
        if boundary is None:
            raise ValueError("exact-dirichlet boundary mode needs boundary data")
        bfn = _field_fn(boundary, ("x", "t"))
        ends = xs[[0, -1]]
        bc = lambda tau: tuple(bfn(ends, tau))
    else:
        if boundary is None:
            frozen = (float(phi[0]), float(phi[-1]))
        else:
            frozen = (float(boundary[0]), float(boundary[1]))
        bc = lambda tau: frozen

    phi[0], phi[-1] = bc(taus[0])
    _check_finite(phi, taus[0])
    snaps = [FieldSnapshot(taus[0], phi)]

    lam = k / (h * h)
    ab = _cn_matrix(grid.nx, lam) if scheme.scheme == CN_IMEX else None
    src_prev: np.ndarray | None = None

    for m in range(grid.ntau):
        tau_new = taus[m + 1]
        src = fhat(xs[1:-1], phi[1:-1])
        bl_new, br_new = bc(tau_new)
        if scheme.scheme == EXPLICIT:
            lap = (phi[:-2] - 2 * phi[1:-1] + phi[2:]) / (h * h)
            interior = phi[1:-1] + k * (lap + src)
        else:
            # Adams-Bashforth 2 source after the first (Euler) step keeps the
            # split second-order in time.
            s_eff = src if src_prev is None else 1.5 * src - 0.5 * src_prev
            rhs = (
                phi[1:-1]
                + (lam / 2.0) * (phi[:-2] - 2 * phi[1:-1] + phi[2:])
                + k * s_eff
            )
            rhs[0] += (lam / 2.0) * bl_new
            rhs[-1] += (lam / 2.0) * br_new
            interior = solve_banded((1, 1), ab, rhs)
        src_prev = src
        phi = np.empty_like(phi)
        phi[1:-1] = interior
        phi[0], phi[-1] = bl_new, br_new
        _check_finite(phi, tau_new)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PositivityWarning)
            snaps.append(FieldSnapshot(tau_new, phi))
    return snaps


def _barrier_datum(spec: BarrierSpec) -> Callable[[float], tuple[float, float]]:
    """Per-tau (H, phi-on-barrier) with the original-picture datum mapped to
    the heat picture: phi = exp(-(a H + R)/b^2)."""
    H, R = (ex.rename(e, {"tau": "t"}) for e in (spec.H, spec.R))
    to_phi = CoordinateMap.heath_heat(spec.params["a"], spec.params["b"]).forward[2]
    exprs = [H, ex.subs(to_phi, {"x": H, "u": R})]
    return lambda tau: tuple(float(v) for v in ex.evaluate_many(exprs, {"t": tau}))


def solve_barrier(
    model: HeatSourceModel,
    spec: BarrierSpec,
    grid: GridSpec,
    scheme: SchemeConfig,
    reference,
) -> list[FieldSnapshot]:
    """March the field on the moving domain x > H(tau).

    Nodes with x <= H(tau) are outside the domain; they are filled with the
    barrier datum so snapshots stay total.  The barrier value is imposed at
    the first interior node by linear interpolation between the datum on the
    curve and the next node's value (first-order boundary treatment).  The
    right boundary and the initial profile come from ``reference`` (Expr or
    callable in (x, tau)).  Raises BarrierExitsGridError when H leaves
    (x_lo, x_hi).
    """
    scheme.validate(grid)
    xs = grid.nodes()
    taus = grid.taus()
    h, k = grid.h, grid.k
    fhat = _field_fn(model.fhat, ("x", "u"))
    ref = _field_fn(reference, ("x", "t"))
    datum = _barrier_datum(spec)

    def barrier_at(tau: float, step: int) -> tuple[int, float, float]:
        hv, dv = datum(tau)
        if not (grid.x_lo < hv < grid.x_hi):
            raise BarrierExitsGridError(
                f"barrier exits grid at step {step}: H({tau:.6g}) = {hv:.6g} "
                f"outside ({grid.x_lo:.6g}, {grid.x_hi:.6g})"
            )
        j = int(np.searchsorted(xs, hv, side="right"))
        if j >= grid.nx:
            raise BarrierExitsGridError(
                f"barrier exits grid at step {step}: too few nodes right of "
                f"H({tau:.6g}) = {hv:.6g}"
            )
        return j, hv, dv

    def interp_left(j: int, hv: float, dv: float, right_val: float) -> float:
        # value at node j on the line through (H, datum) and (x_{j+1}, phi_{j+1})
        x0, x1 = xs[j], xs[j + 1]
        return (dv * (x1 - x0) + right_val * (x0 - hv)) / (x1 - hv)

    phi = np.array(ref(xs, taus[0]), dtype=float)
    j0, hv0, dv0 = barrier_at(taus[0], 0)
    phi[: j0 + 1] = dv0
    phi[j0] = interp_left(j0, hv0, dv0, phi[j0 + 1])
    _check_finite(phi, taus[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PositivityWarning)
        snaps = [FieldSnapshot(taus[0], phi)]
    src_prev: np.ndarray | None = None
    j_prev = j0

    for m in range(grid.ntau):
        tau_new = taus[m + 1]
        j, hv, dv = barrier_at(tau_new, m + 1)
        # newly uncovered nodes (barrier receding) take the old datum value;
        # the fill is first-order consistent with the boundary treatment
        work = phi.copy()
        if j < j_prev:
            work[j : j_prev + 1] = phi[j_prev]
        lo = j + 1  # first unknown; node j is the interpolated Dirichlet node
        n_act = grid.nx + 1 - lo  # unknowns lo .. nx
        src = fhat(xs[lo:-1], work[lo:-1])
        br_new = float(ref(xs[-1], tau_new))
        left_new = interp_left(j, hv, dv, work[lo])
        if scheme.scheme == EXPLICIT:
            lap = (work[lo - 1 : -2] - 2 * work[lo:-1] + work[lo + 1 :]) / (h * h)
            interior = work[lo:-1] + k * (lap + src)
        else:
            lam = k / (h * h)
            if src_prev is not None and src_prev.size == src.size:
                s_eff = 1.5 * src - 0.5 * src_prev
            else:
                s_eff = src
            rhs = (
                work[lo:-1]
                + (lam / 2.0)
                * (work[lo - 1 : -2] - 2 * work[lo:-1] + work[lo + 1 :])
                + k * s_eff
            )
            rhs[0] += (lam / 2.0) * left_new
            rhs[-1] += (lam / 2.0) * br_new
            interior = solve_banded((1, 1), _cn_matrix(n_act, lam), rhs)
        src_prev = src
        j_prev = j
        phi = np.empty_like(work)
        phi[: j + 1] = dv
        phi[lo:-1] = interior
        phi[-1] = br_new
        phi[j] = interp_left(j, hv, dv, phi[lo])
        _check_finite(phi, tau_new)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PositivityWarning)
            snaps.append(FieldSnapshot(tau_new, phi))
    return snaps


def barrier_mask(spec: BarrierSpec, grid: GridSpec, tau: float) -> np.ndarray:
    """Boolean mask of nodes strictly inside the moving domain at ``tau``,
    excluding the interpolated first interior node and the right boundary."""
    xs = grid.nodes()
    hv = float(_field_fn(spec.H, ("t",))(tau))
    j = int(np.searchsorted(xs, hv, side="right"))
    mask = np.zeros(xs.size, dtype=bool)
    mask[j + 1 : -1] = True
    return mask


def error_norms(
    snapshots: Sequence[FieldSnapshot],
    reference,
    grid: GridSpec,
    mask: Callable[[float], np.ndarray] | None = None,
) -> list[dict]:
    """Discrete Linf and L2 error per snapshot over interior nodes.

    ``mask`` optionally restricts the norm to a tau-dependent node subset
    (used for moving-barrier runs)."""
    xs = grid.nodes()
    ref = _field_fn(reference, ("x", "t"))
    out = []
    for snap in snapshots:
        if mask is None:
            sel = np.zeros(xs.size, dtype=bool)
            sel[1:-1] = True
        else:
            sel = mask(snap.tau)
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

    def run(self, nx: int) -> float:
        """Final-time Linf error at ``nx`` interior nodes, with the step
        count scaled so k is proportional to h (CN) or h^2 (explicit)."""
        ratio = (nx + 1) / (self.grid.nx + 1)
        if self.scheme.scheme == EXPLICIT:
            ntau = int(math.ceil(self.grid.ntau * ratio * ratio))
        else:
            ntau = int(math.ceil(self.grid.ntau * ratio))
        g = replace(self.grid, nx=nx, ntau=max(ntau, 4))
        if self.barrier is None:
            snaps = solve(self.model, _init_from(self.exact, g), g, self.scheme,
                          boundary=self.exact)
            norms = error_norms(snaps, self.exact, g)
        else:
            snaps = solve_barrier(self.model, self.barrier, g, self.scheme,
                                  self.exact)
            spec = self.barrier
            norms = error_norms(
                snaps, self.exact, g, mask=lambda tau: barrier_mask(spec, g, tau)
            )
        return norms[-1]["Linf"]


def _init_from(exact, grid: GridSpec):
    fn = _field_fn(exact, ("x", "t"))
    return lambda xv: fn(xv, grid.tau0)


def convergence_study(
    case: ConvergenceCase, refinements: Sequence[int]
) -> dict:
    """Run the case at each refinement level (interior node counts) and fit
    the observed order as the least-squares slope of log error vs log h.

    Levels run one after another.  A non-monotone error sequence is
    reported in the result, never hidden."""
    if len(refinements) < 3:
        raise ValueError("need >=3 levels")
    errors = [case.run(nx) for nx in refinements]
    hs = [(case.grid.x_hi - case.grid.x_lo) / (nx + 1) for nx in refinements]
    logs_h = np.log(np.array(hs))
    logs_e = np.log(np.array(errors))
    slope = float(np.polyfit(logs_h, logs_e, 1)[0])
    pairwise = [
        float((logs_e[i + 1] - logs_e[i]) / (logs_h[i + 1] - logs_h[i]))
        for i in range(len(hs) - 1)
    ]
    monotone = all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    return {
        "nx": [int(n) for n in refinements],
        "h": [float(v) for v in hs],
        "errors": [float(e) for e in errors],
        "order": slope,
        "pairwise_orders": pairwise,
        "monotone": monotone,
    }


def map_to_heath(
    snapshots: Sequence[FieldSnapshot],
    grid: GridSpec,
    a: float,
    b: float,
    mask: Callable[[float], np.ndarray] | None = None,
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Map heat-picture snapshots back to the original picture:
    t = -2 tau / b^2, u = -b^2 ln(phi) - a x.  Requires phi > 0 on the
    selected nodes; returns (t, x-values, u-values) per snapshot."""
    xs = grid.nodes()
    out = []
    for snap in snapshots:
        sel = np.ones(xs.size, dtype=bool) if mask is None else mask(snap.tau)
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
