"""Command-line front end.

Subcommands and their options (each takes only the options it reads)
--------------------------------------------------------------------
catalog list|verify   symmetry-catalog inspection and numerical verification;
                      --variant --params --out --tol --seed --samples
transform             move a model between the original and heat pictures;
                      --model --direction --out
check                 residual/boundary checks for the named closed forms;
                      --params (keys and defaults: CHECK_PARAMS) --out --tol
solve                 finite-difference run (fixed strip or moving barrier);
                      --model --grid --scheme --stride --out
converge              refinement study with observed convergence orders;
                      --model --grid --scheme --params ({"levels": [...]}) --out

An option a subcommand does not take exits 2 with that subcommand's usage;
a --params key that check or converge does not read exits 2 naming the keys
they accept.

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
from .lie import UnsamplableError, heat_str, parse_xtu
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


def _dumps(obj: dict) -> str:
    """Strict JSON text: a NaN or an infinity raises instead of printing
    a token JSON does not have."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(obj: dict, out_path: str | None) -> None:
    text = _dumps(obj)
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
    except UnsamplableError as e:
        raise CliError(f"domain violation: {e}", EXIT_DOMAIN)
    except (TypeError, ValueError) as e:  # unknown or non-numeric params, n < 1
        raise CliError(str(e))
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

# The parameters each closed form takes, with their defaults.
CHECK_PARAMS = {
    "terminal": {"a": 1.0, "b": 1.0, "T": 1.0},
    "barrier": {"a": 1.0, "b": 1.0, "alpha": 0.05, "beta": 0.9, "K": 100.0, "T": 1.0,
                "A": 1.0},
    "a22": {"a": 1.0, "b": 1.0, "c3": 0.0},
    "a359": {"a": 1.0, "b": 1.0, "c1": -1.0},
}


def _known_params(text: str | None, accepted, what: str) -> dict:
    """The --params object, with every key one of ``accepted``."""
    p = _load_descriptor(text) if text else {}
    unknown = sorted(set(p) - set(accepted))
    if unknown:
        raise CliError(f"{what}: unknown parameters {unknown}; accepted: {list(accepted)}")
    return p


def _check_terminal(p: dict, tol: float) -> tuple[dict, bool]:
    sol = terminal_solution(**p)
    res = sol.residual()
    xs = np.linspace(*sol.box["x"], 9)
    datum = float(np.max(np.abs(sol.evaluate(xs, p["T"]) - 1.0)))
    checks = {
        "pde_residual_max": res,
        "boundary_checks": {
            "terminal_value_max_err": datum,
            "singular_time": sol.boundary["singular_time"],
        },
    }
    return checks, res < tol and datum < tol


def _check_barrier(p: dict, tol: float) -> tuple[dict, bool]:
    bs = barrier_solution(**p)
    b, beta, K, T = p["b"], p["beta"], p["K"], p["T"]
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
    sol = example_A22(**p) if name == "a22" else example_A359(**p)
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
    defaults = CHECK_PARAMS.get(args.name)
    if defaults is None:
        raise CliError(
            f"unknown solution {args.name!r}; "
            "choose from terminal, barrier, a22, a359"
        )
    p = {**defaults, **_known_params(args.params, defaults, f"check {args.name}")}
    tol = args.tol
    try:
        if args.name == "terminal":
            checks, ok = _check_terminal(p, tol)
        elif args.name == "barrier":
            checks, ok = _check_barrier(p, tol)
        else:
            checks, ok = _check_example(args.name, p, tol)
    except SampleDomainError as e:
        raise CliError(f"domain violation: {e}", EXIT_DOMAIN)
    except (TypeError, ValueError) as e:  # params the closed form rejects
        raise CliError(str(e))
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
    else:
        init = desc.get("init", None)
        if init is None and exact is None:
            raise CliError("model descriptor needs 'init' or 'exact'")
        if init is None:
            init = ex.substitute(parse_xtu(exact), "t", ex.num(grid.tau0))
        boundary = desc.get("boundary", exact)
        march = lambda: sv.solve(model, init, grid, scheme, boundary=boundary)
    try:
        snaps = march()
    except ValueError as e:  # the model descriptor does not fit the run
        raise CliError(str(e))

    summary: dict = {
        "grid": {"nx": grid.nx, "ntau": grid.ntau, "h": grid.h, "k": grid.k},
        "scheme": scheme.scheme,
        "lam": grid.k / (grid.h * grid.h),
        "snapshots": len(snaps),
        "min_phi": snaps.min_phi,
        "nonpositive_nodes": sum(int(np.count_nonzero(s.phi <= 0.0)) for s in snaps),
    }
    if barrier is not None:  # the node tied to the barrier line, lo - 1
        tied = [s.lo - 1 for s in snaps]
        summary["barrier_node"] = [min(tied), max(tied)]
    if exact is not None:
        (norm,) = sv.error_norms(snaps[-1:], exact, grid)
        summary["final_Linf"] = norm["Linf"]
        summary["final_L2"] = norm["L2"]
    if args.out:
        rows = sv.csv_rows(snaps, grid, stride=max(1, args.stride))
        text = "tau,x,phi\n" + "\n".join(
            f"{r[0]!r},{r[1]!r},{r[2]!r}" for r in rows
        ) + "\n"
        _atomic_write(args.out, text)
        summary["csv"] = args.out
    sys.stdout.write(_dumps(summary))
    return EXIT_OK


def cmd_converge(args) -> int:
    desc = _load_descriptor(args.model)
    model, exact, barrier = _model_case(desc)
    if exact is None:
        raise CliError("converge needs 'exact' reference data in the model")
    grid = _grid_from(_load_descriptor(args.grid))
    scheme = _scheme_from(args.scheme)
    levels = _known_params(args.params, ("levels",), "converge").get("levels")
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

class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: an argument it does not take is reported with
    the subcommand's own usage, not the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heathsym",
        description="symmetry catalog, transforms, closed-form checks, and "
        "finite-difference cross-validation for the drift-diffusion class",
    )
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    # Each subcommand registers only the options it reads.
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--params", help="JSON object (inline or file path)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the JSON/CSV artifact here")

    pc = sub.add_parser("catalog", parents=[params, out],
                        help="list or verify catalog entries")
    pc.add_argument("action", choices=["list", "verify"])
    pc.add_argument("id", nargs="?", help="entry id for verify")
    pc.add_argument("--variant", choices=["plus", "minus"], default="plus")
    pc.add_argument("--tol", type=float, default=1e-8, help="tolerance (default %(default)g)")
    pc.add_argument("--seed", type=int, default=None,
                    help=f"RNG seed (default {DEFAULT_SEED}; "
                         "HEATHSYM_SEED overrides the default)")
    pc.add_argument("--samples", type=int, default=100,
                    help="sample count for randomized verification")
    pc.set_defaults(fn=cmd_catalog)

    pt = sub.add_parser("transform", parents=[out], help="move a model between pictures")
    pt.add_argument("--model", required=True,
                    help="JSON model descriptor (inline or file path)")
    pt.add_argument("--direction", choices=["to-heat", "to-heath"],
                    default="to-heat")
    pt.set_defaults(fn=cmd_transform)

    pk = sub.add_parser("check", parents=[params, out],
                        help="check a named closed-form solution")
    pk.add_argument("name", help="terminal | barrier | a22 | a359")
    pk.add_argument("--tol", type=float, default=1e-7, help="tolerance (default %(default)g)")
    pk.set_defaults(fn=cmd_check)

    ps = sub.add_parser("solve", parents=[out], help="finite-difference run")
    ps.add_argument("--model", required=True)
    ps.add_argument("--grid", required=True)
    ps.add_argument("--scheme", help="scheme name or JSON config")
    ps.add_argument("--stride", type=int, default=1,
                    help="snapshot stride for CSV output")
    ps.set_defaults(fn=cmd_solve)

    pv = sub.add_parser("converge", parents=[params, out], help="refinement study")
    pv.add_argument("--model", required=True)
    pv.add_argument("--grid", required=True)
    pv.add_argument("--scheme", help="scheme name or JSON config")
    pv.set_defaults(fn=cmd_converge)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
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
