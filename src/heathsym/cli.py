"""Command-line front end.

Subcommands
-----------
catalog list|verify   symmetry-catalog inspection and numerical verification
transform             move a model between the original and heat pictures
check                 residual/boundary checks for the named closed forms
solve                 finite-difference run (fixed strip or moving barrier)
converge              refinement study with observed convergence orders

Conventions: JSON for structured input/output, CSV for fields.  Model and
grid descriptors are inline JSON or a path to a JSON file.  Identical
configuration and seed produce byte-identical outputs.  Output files are
written atomically (temp file + rename); on failure any partial artifact is
left with a ``.partial`` suffix.

Exit codes: 0 success / all checks pass; 2 usage, parse, inadmissible
parameters, or stability-guard violation; 3 domain violation; 4 instability
during a run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import warnings

import numpy as np

from . import expr as ex
from . import solver as sv
from .catalog import (
    InadmissibleParamsError,
    UnknownEntryError,
    get_spec,
    list_entries,
    verify_entry,
)
from .expr import ParseError
from .lie import heat_str, parse_xtu
from .model import (
    DegenerateSourceWarning,
    HeathModel,
    HeatSourceModel,
    heat_to_heath,
    heath_to_heat,
    is_linearizable,
)
from .solutions import (
    SampleDomainError,
    barrier_solution,
    example_A22,
    example_A359,
    exponential_barrier,
    terminal_solution,
)

#: Default RNG seed for sampling-based verification; override with --seed or
#: the HEATHSYM_SEED environment variable.
DEFAULT_SEED = 0

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_INSTABILITY = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _load_descriptor(text: str | None) -> dict:
    """Inline JSON or a path to a JSON file."""
    if text is None:
        return {}
    s = text.strip()
    if not s.startswith("{"):
        try:
            with open(s, "r", encoding="utf-8") as fh:
                s = fh.read()
        except OSError as e:
            raise CliError(f"cannot read descriptor file {s!r}: {e}")
    try:
        out = json.loads(s)
    except json.JSONDecodeError as e:
        raise CliError(f"invalid JSON descriptor: {e}")
    if not isinstance(out, dict):
        raise CliError("descriptor must be a JSON object")
    return out


def _emit(obj: dict, out_path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path:
        _atomic_write(out_path, text)
    sys.stdout.write(text)


# The process umask, read once: os.umask reads it only by setting it.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def _atomic_write(path: str, text: str) -> None:
    """Write through a temp file of this call's own in the target directory,
    so concurrent writers of one path never share it; the last rename wins."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        os.fchmod(fd, 0o666 & ~_UMASK)  # the mode open() would give
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.replace(tmp, path + ".partial")
        raise


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("HEATHSYM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"HEATHSYM_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


# -- catalog ----------------------------------------------------------------

def cmd_catalog(args) -> int:
    if args.action == "list":
        entries = list_entries()
        _emit({"count": len(entries), "entries": entries}, args.out)
        return EXIT_OK

    if not args.id:
        raise CliError("catalog verify requires an entry id")
    params = _load_descriptor(args.params) if args.params else None
    try:
        report = verify_entry(
            args.id,
            params=params,
            sign_variant=args.variant,
            n=args.samples,
            seed=_seed(args),
            tolerance=args.tol,
        )
    except UnknownEntryError as e:
        raise CliError(f"unknown catalog entry: {e}")
    except InadmissibleParamsError as e:
        spec = get_spec(args.id)
        raise CliError(f"{e}; admissibility: {spec.constraint_text()}")
    payload = {
        "id": report.id,
        "sign_variant": report.sign_variant,
        "params": dict(report.params),
        "passed": report.passed,
        "max_abs_residual": report.max_abs,
        "generators": [
            {
                "max_abs": r.max_abs,
                "mean_abs": r.mean_abs,
                "points": r.n_points,
                "failed_points": r.points_failed,
                "skipped_domain_errors": r.skipped_domain_errors,
                "passed": r.passed,
            }
            for r in report.generator_reports
        ],
        "flags": list(report.flags),
    }
    _emit(payload, args.out)
    return EXIT_OK if report.passed else EXIT_FAIL


# -- transform --------------------------------------------------------------

def cmd_transform(args) -> int:
    desc = _load_descriptor(args.model)
    try:
        if args.direction == "to-heat":
            for key in ("a", "b", "f"):
                if key not in desc:
                    raise CliError(f"to-heat model needs key {key!r}")
            m = HeathModel.parse(float(desc["a"]), float(desc["b"]), desc["f"])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateSourceWarning)
                h, cmap = heath_to_heat(m)
            lin, witness = is_linearizable(m)
            payload = {
                "direction": "to-heat",
                "fhat": heat_str(h.fhat),
                "map": {
                    "tau": ex.to_str(cmap.forward[1]),
                    "phi": ex.to_str(cmap.forward[2]),
                },
                "linearizable": lin,
            }
            if witness is not None:
                payload["linearizable_witness_g"] = ex.to_str(witness)
        else:
            for key in ("a", "b", "fhat"):
                if key not in desc:
                    raise CliError(f"to-heath model needs key {key!r}")
            h = HeatSourceModel(desc["fhat"])
            m = heat_to_heath(h, float(desc["a"]), float(desc["b"]))
            payload = {
                "direction": "to-heath",
                "f": ex.to_str(m.f),
                "map": {
                    "t": f"-2*tau/{float(desc['b'])**2!r}",
                    "u": ex.to_str(
                        -ex.num(float(desc["b"])) ** 2 * ex.ln(ex.sym("phi"))
                        - ex.num(float(desc["a"])) * ex.sym("x")
                    ),
                },
            }
    except ValueError as e:
        raise CliError(str(e))
    _emit(payload, args.out)
    return EXIT_OK


# -- check ------------------------------------------------------------------

def _check_terminal(p: dict, tol: float) -> tuple[dict, bool]:
    a, b, T = p.get("a", 1.0), p.get("b", 1.0), p.get("T", 1.0)
    sol = terminal_solution(a, b, T)
    res = sol.residual()
    xs = np.linspace(*sol.box["x"], 9)
    datum = float(np.max(np.abs(sol.evaluate(xs, T) - 1.0)))
    checks = {
        "pde_residual_max": res,
        "boundary_checks": {
            "terminal_value_max_err": datum,
            "singular_time": sol.boundary["singular_time"],
        },
    }
    return checks, res < tol and datum < tol


def _check_barrier(p: dict, tol: float) -> tuple[dict, bool]:
    a = p.get("a", 1.0)
    b = p.get("b", 1.0)
    alpha = p.get("alpha", 0.05)
    beta = p.get("beta", 0.9)
    K = p.get("K", 100.0)
    T = p.get("T", 1.0)
    A = p.get("A", 1.0)
    bs = barrier_solution(a, b, alpha, beta, K, T, A)
    ts = np.linspace(T - 1.0, T, 9)
    Tp = -b * b * T / 2.0
    taus = np.linspace(Tp, Tp + 0.4, 9)
    res = bs.heath.residual()
    res_heat = bs.heat.residual()
    bdry = bs.boundary_residual(ts)
    phib = bs.phi_boundary_residual(taus)
    inv = bs.invariance_residual(
        [(xv, tv) for xv in np.linspace(beta * K, beta * K + 5, 4)
         for tv in np.linspace(Tp, Tp + 0.3, 4)]
    )
    payoff = bs.payoff_discrepancy([K + 1.0, K + 10.0])
    ok = (
        res < tol and res_heat < tol and bdry < 1e-9
        and phib < tol and inv < 1e-8
    )
    checks = {
        "pde_residual_max": res,
        "heat_picture_residual_max": res_heat,
        "boundary_checks": {
            "barrier_value_max_err": bdry,
            "heat_picture_barrier_max_err": phib,
            "invariance_residual": inv,
            "payoff_check": "not satisfied (informational)"
            if not payoff["satisfied"] else "satisfied",
        },
    }
    return checks, ok


def _check_example(name: str, p: dict, tol: float) -> tuple[dict, bool]:
    a, b = p.get("a", 1.0), p.get("b", 1.0)
    if name == "a22":
        sol = example_A22(a, b, p.get("c3", 0.0))
    else:
        sol = example_A359(a, b, p.get("c1", -1.0))
    violation = sol.domain_violation()
    if violation is not None:
        raise CliError(f"domain violation: {violation}", EXIT_DOMAIN)
    res = sol.residual()
    checks = {
        "pde_residual_max": res,
        "boundary_checks": {k: v for k, v in sol.boundary.items()},
    }
    return checks, res < tol


def cmd_check(args) -> int:
    p = _load_descriptor(args.params) if args.params else {}
    tol = args.tol
    try:
        if args.name == "terminal":
            checks, ok = _check_terminal(p, tol)
        elif args.name == "barrier":
            checks, ok = _check_barrier(p, tol)
        elif args.name in ("a22", "a359"):
            checks, ok = _check_example(args.name, p, tol)
        else:
            raise CliError(
                f"unknown solution {args.name!r}; "
                "choose from terminal, barrier, a22, a359"
            )
    except SampleDomainError as e:
        raise CliError(f"domain violation: {e}", EXIT_DOMAIN)
    checks["name"] = args.name
    checks["tolerance"] = tol
    checks["passed"] = ok
    _emit(checks, args.out)
    return EXIT_OK if ok else EXIT_FAIL


# -- solve / converge -------------------------------------------------------

def _grid_from(desc: dict) -> sv.GridSpec:
    try:
        return sv.GridSpec(
            x_lo=float(desc["x_lo"]),
            x_hi=float(desc["x_hi"]),
            nx=int(desc["nx"]),
            tau0=float(desc["tau0"]),
            tau1=float(desc["tau1"]),
            ntau=int(desc["ntau"]),
        )
    except KeyError as e:
        raise CliError(f"grid descriptor missing key {e.args[0]!r}")
    except (TypeError, ValueError) as e:
        raise CliError(f"invalid grid: {e}")


def _scheme_from(text: str | None) -> sv.SchemeConfig:
    if text is None:
        return sv.SchemeConfig()
    s = text.strip()
    try:
        if s.startswith("{"):
            d = json.loads(s)
            return sv.SchemeConfig(
                scheme=d.get("scheme", sv.CN_IMEX),
                boundary=d.get("boundary", sv.BOUNDARY_EXACT),
            )
        return sv.SchemeConfig(scheme=s)
    except (json.JSONDecodeError, ValueError) as e:
        raise CliError(f"invalid scheme: {e}")


def _model_case(desc: dict):
    """(HeatSourceModel, exact, barrier-spec-or-None) from a solve/converge
    model descriptor with keys fhat, exact, and optional barrier."""
    if "fhat" not in desc:
        raise CliError("model descriptor needs key 'fhat'")
    try:
        model = HeatSourceModel(desc["fhat"])
    except ValueError as e:
        raise CliError(str(e))
    exact = desc.get("exact")
    barrier = None
    if "barrier" in desc:
        bd = desc["barrier"]
        try:
            barrier = exponential_barrier(
                float(bd["a"]), float(bd["b"]), float(bd["alpha"]),
                float(bd["beta"]), float(bd["K"]), float(bd["T"]),
                float(bd["A"]),
            )
        except KeyError as e:
            raise CliError(f"barrier descriptor missing key {e.args[0]!r}")
        except ValueError as e:
            raise CliError(f"invalid barrier: {e}")
    return model, exact, barrier


def cmd_solve(args) -> int:
    desc = _load_descriptor(args.model)
    model, exact, barrier = _model_case(desc)
    grid = _grid_from(_load_descriptor(args.grid))
    scheme = _scheme_from(args.scheme)
    try:
        scheme.validate(grid)
    except ValueError as e:
        raise CliError(str(e))
    if barrier is not None:
        if exact is None:
            raise CliError("barrier runs need 'exact' reference data")
        march = lambda: sv.solve_barrier(model, barrier, grid, scheme, exact)
        mask = lambda tau: sv.barrier_mask(barrier, grid, tau)
    else:
        init = desc.get("init", None)
        if init is None and exact is None:
            raise CliError("model descriptor needs 'init' or 'exact'")
        if init is None:
            init = ex.substitute(parse_xtu(exact), "t", ex.num(grid.tau0))
        boundary = desc.get("boundary", exact)
        march = lambda: sv.solve(model, init, grid, scheme, boundary=boundary)
        mask = None
    try:
        snaps = march()
    except ValueError as e:  # the model descriptor does not fit the run
        raise CliError(str(e))

    summary: dict = {
        "grid": {"nx": grid.nx, "ntau": grid.ntau, "h": grid.h, "k": grid.k},
        "scheme": scheme.scheme,
        "snapshots": len(snaps),
        "min_phi": snaps.min_phi,
        "nonpositive_nodes": sum(int(np.count_nonzero(s.phi <= 0.0)) for s in snaps),
    }
    if exact is not None:
        (norm,) = sv.error_norms(snaps[-1:], exact, grid, mask=mask)
        summary["final_Linf"] = norm["Linf"]
        summary["final_L2"] = norm["L2"]
    if args.out:
        rows = sv.csv_rows(snaps, grid, stride=max(1, args.stride))
        text = "tau,x,phi\n" + "\n".join(
            f"{r[0]!r},{r[1]!r},{r[2]!r}" for r in rows
        ) + "\n"
        _atomic_write(args.out, text)
        summary["csv"] = args.out
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_converge(args) -> int:
    desc = _load_descriptor(args.model)
    model, exact, barrier = _model_case(desc)
    if exact is None:
        raise CliError("converge needs 'exact' reference data in the model")
    grid = _grid_from(_load_descriptor(args.grid))
    scheme = _scheme_from(args.scheme)
    p = _load_descriptor(args.params) if args.params else {}
    levels = p.get("levels")
    if not levels:
        raise CliError("converge needs --params '{\"levels\": [nx, ...]}'")
    case = sv.ConvergenceCase(model, exact, grid, scheme, barrier=barrier)
    try:
        report = sv.convergence_study(case, [int(n) for n in levels])
    except ValueError as e:
        raise CliError(str(e))
    report["scheme"] = scheme.scheme
    _emit(report, args.out)
    return EXIT_OK


# -- entry point ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heathsym",
        description="symmetry catalog, transforms, closed-form checks, and "
        "finite-difference cross-validation for the drift-diffusion class",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--params", help="JSON object (inline or file path)")
        p.add_argument("--out", help="write the JSON/CSV artifact here")
        p.add_argument("--tol", type=float, default=None,
                       help="override the default tolerance")
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default {DEFAULT_SEED}; "
                            "HEATHSYM_SEED overrides the default)")
        p.add_argument("--samples", type=int, default=100,
                       help="sample count for randomized verification")

    pc = sub.add_parser("catalog", help="list or verify catalog entries")
    pc.add_argument("action", choices=["list", "verify"])
    pc.add_argument("id", nargs="?", help="entry id for verify")
    pc.add_argument("--variant", choices=["plus", "minus"], default="plus")
    common(pc)
    pc.set_defaults(fn=cmd_catalog, default_tol=1e-8)

    pt = sub.add_parser("transform", help="move a model between pictures")
    pt.add_argument("--model", required=True,
                    help="JSON model descriptor (inline or file path)")
    pt.add_argument("--direction", choices=["to-heat", "to-heath"],
                    default="to-heat")
    common(pt)
    pt.set_defaults(fn=cmd_transform, default_tol=1e-9)

    pk = sub.add_parser("check", help="check a named closed-form solution")
    pk.add_argument("name", help="terminal | barrier | a22 | a359")
    common(pk)
    pk.set_defaults(fn=cmd_check, default_tol=1e-7)

    ps = sub.add_parser("solve", help="finite-difference run")
    ps.add_argument("--model", required=True)
    ps.add_argument("--grid", required=True)
    ps.add_argument("--scheme", help="scheme name or JSON config")
    ps.add_argument("--stride", type=int, default=1,
                    help="snapshot stride for CSV output")
    common(ps)
    ps.set_defaults(fn=cmd_solve, default_tol=1e-7)

    pv = sub.add_parser("converge", help="refinement study")
    pv.add_argument("--model", required=True)
    pv.add_argument("--grid", required=True)
    pv.add_argument("--scheme", help="scheme name or JSON config")
    common(pv)
    pv.set_defaults(fn=cmd_converge, default_tol=1e-7)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.tol is None:
        args.tol = args.default_tol
    # The errors any command may raise, each with its exit code; a command
    # turns its own ValueErrors into CliError, as what they mean differs.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sv.PositivityWarning)
            return args.fn(args)
    except CliError as e:
        err = e
    except ParseError as e:
        err = CliError(f"expression parse error: {e}")
    except ex.DomainError as e:
        err = CliError(f"domain violation: {e}", EXIT_DOMAIN)
    except sv.BarrierExitsGridError as e:
        err = CliError(str(e), EXIT_DOMAIN)
    except sv.InstabilityError as e:
        err = CliError(str(e), EXIT_INSTABILITY)
    sys.stderr.write(f"error: {err}\n")
    return err.code


if __name__ == "__main__":
    sys.exit(main())
