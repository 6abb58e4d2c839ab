"""Workload inputs and ops for the heathsym benchmark.

An op is one question answered by heathsym.  Each op carries its known
answer; the verdict heathsym gives is compared with it after the call.  Ops
reach heathsym only through its public functions, looked up on the module at
call time, so a tracer installed on those names sees every call.

The inputs of one pass over a workload come from ``np.random.default_rng``
seeded with (seed, pass index): the same seed gives the same inputs, and a
run that outlasts one pass gets fresh parameter draws, so no op repeats
except the CLI calls whose artifacts are compared byte for byte and the two
moving-barrier studies, whose inputs are fixed (MOVING_BARRIERS).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import heathsym.catalog as cat
import heathsym.cli as cli
import heathsym.expr as ex
import heathsym.lie as lie
import heathsym.solutions as so
import heathsym.solver as sv
from heathsym.model import HeatSourceModel

# A timed run ends once its time is up and the number of ops answered is a
# multiple of the workload's cycle, so that every run answers the same mix:
# a whole pass of verify or refine (None), or whole groups of three match ops
# (a match pass is far longer than a run).
CYCLE = {"verify": None, "match": 3, "refine": None}

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# Sample points per match_fhat call.
MATCH_N = 10

# Wrong verdicts that are known defects of heathsym at the commit that added
# this benchmark, by op kind or by "kind:subject".  They stay in the draw and
# count in ``failed``; only a wrong verdict outside this set, or an op that
# raises, makes a run incorrect.
#  - match_fhat misses catalog sources: ROADMAP item 3 measures recall 20/23
#    at the entries' defaults (misses A_3_5_1, A_3_8_1, A_3_8_2); at random
#    admissible draws A_3_5_3, A_3_5_4 and A_3_8_3 are missed too.
#  - match_fhat reports spurious matches for generic sources (MATCH_LEAD).
#  - the moving-barrier CN study's observed order is erratic across barrier
#    parameters: 0.86 over nx = 32, 64, 128 at alpha = 0.0635, beta = 0.919,
#    A = 0.886, against 2.40 at criterion 7's parameters (MOVING_BARRIERS,
#    ROADMAP item 5).
KNOWN_DEFECTS = frozenset({"match_catalog", "match_generic", "study:moving-cn"})


@dataclass
class Op:
    kind: str
    args: dict
    expect: object
    # Flips the verdict check; used only by the smoke test to plant a wrong
    # known answer and see it counted.
    planted: bool = False

    @property
    def subject(self) -> str:
        return self.args.get("entry", self.args.get("name", ""))


def _ignore(name: str, value: float) -> None:
    pass


@dataclass
class Context:
    """Per-process scratch state: where CLI artifacts go, the first bytes
    written for each artifact key, and where counts go (the tracer's
    ``add`` in a traced run)."""

    tmpdir: str
    count: Callable[[str, float], None] = _ignore
    artifacts: dict = field(default_factory=dict)
    compared: int = 0

    def same_as_before(self, key: str, data: bytes) -> bool:
        """False when an earlier artifact under ``key`` had other bytes."""
        first = self.artifacts.setdefault(key, data)
        if first is data:
            return True
        self.compared += 1
        return first == data


# -- input generation -------------------------------------------------------

def _draw(spec, rng, margin: float = 0.0) -> dict[str, float]:
    """Admissible parameters drawn uniformly from the entry's ranges."""
    for _ in range(200):
        d = {p: float(rng.uniform(*spec.param_ranges.get(p, (0.4, 1.6))))
             for p in spec.params}
        if not spec.admissible(d, margin=margin):
            return d
    raise RuntimeError(f"{spec.id}: no admissible draw")


def _variants(spec) -> tuple[str, ...]:
    return ("plus", "minus") if spec.sign_variants else ("plus",)


def source_text(spec, params: dict[str, float], variant: str) -> str:
    """The entry's source in (x, phi) with parameters and signs filled in,
    built from the catalog's template text (no heathsym call)."""
    text = spec.fhat
    if spec.psi is not None:
        text = re.sub(r"\bpsi\b", f"({spec.psi})", text)
    values = {k: repr(v) for k, v in params.items()}
    if spec.sign_variants:
        values.update({"pm": "1", "mp": "-1"} if variant == "plus" else {"pm": "-1", "mp": "1"})
    if not values:
        return text
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, values)) + r")\b")
    return pattern.sub(lambda m: f"({values[m.group(1)]})", text)


def _controls() -> list[dict]:
    with open(os.path.join(DATA_DIR, "controls.json"), encoding="utf-8") as fh:
        return json.load(fh)["controls"]


def _closed_form_params(name: str, rng) -> dict[str, float]:
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    if name == "terminal":
        return {"a": u(0.5, 1.5), "b": u(0.8, 1.2), "T": u(0.8, 1.2)}
    if name == "barrier":
        # K <= 110 keeps the heat-picture field exp(alpha x^2 / (2 b^2)) within
        # double range on the sample box x <= beta K + 20
        return {"a": 1.0, "b": 1.0, "alpha": u(0.03, 0.07), "beta": u(0.85, 0.95),
                "K": u(50.0, 110.0), "T": 1.0, "A": u(0.8, 1.2)}
    if name == "a22":
        return {"a": u(0.5, 1.5), "b": u(0.8, 1.2), "c3": u(-0.2, 0.2)}
    return {"a": u(0.5, 1.5), "b": u(0.8, 1.2), "c1": u(-1.2, -0.8)}


def _transform_model(rng, linear: bool) -> dict:
    a, b = round(float(rng.uniform(0.5, 1.5)), 6), round(float(rng.uniform(0.8, 1.2)), 6)
    if linear:
        # f = (exp((a x + u)/b^2) g(x) + a^2)/2 maps to a source free of phi
        c = round(float(rng.uniform(1.0, 2.0)), 6)
        f = f"(exp(({a}*x + u)/{b}^2)*(sin(x) + {c}) + {a}^2)/2"
    else:
        c = round(float(rng.uniform(0.5, 2.0)), 6)
        f = f"{c}*u^2 + x*u"
    return {"a": a, "b": b, "f": f}


def _verify_pass(rng, smoke: bool, tag: str) -> list[Op]:
    ops: list[Op] = []
    ids = [m["id"] for m in cat.list_entries()]
    draws = 1 if smoke else 3
    for eid in (["A_3_5_9"] if smoke else ids):
        spec = cat.get_spec(eid)
        for var in _variants(spec):
            for _ in range(draws):
                ops.append(Op("verify_entry", {
                    "entry": eid, "variant": var, "params": _draw(spec, rng) or None,
                    "seed": int(rng.integers(1 << 30))}, True))
    for eid in (["A_4_4"] if smoke else ids):
        spec = cat.get_spec(eid)
        if len(spec.generators) < 2:
            continue
        for var in _variants(spec):
            ops.append(Op("verify_commutators", {
                "entry": eid, "variant": var, "params": _draw(spec, rng) or None,
                "seed": int(rng.integers(1 << 30))}, True))
    names = ("terminal", "barrier", "a22", "a359")
    for name in (names[:1] if smoke else names * 2):
        ops.append(Op("closed_form", {"name": name, "params": _closed_form_params(name, rng)},
                      True))
    for ctl in (_controls()[:1] if smoke else _controls()):
        ops.append(Op("control", {"entry": ctl["entry"], "variant": ctl["variant"],
                                  "params": ctl["params"], "fhat": ctl["fhat"],
                                  "seed": int(rng.integers(1 << 30))},
                      ctl["failing_generators"]))

    # CLI calls: each configuration twice, so its artifact is compared.
    cli_ops: list[Op] = []
    picks = ["A_4_4"] if smoke else rng.choice([i for i in ids if i != "A_1"], 3, replace=False)
    for j, eid in enumerate(picks):
        spec = cat.get_spec(eid)
        argv = ["catalog", "verify", str(eid), "--samples", "60",
                "--seed", str(int(rng.integers(1 << 30)))]
        if spec.params:
            argv += ["--params", json.dumps(_draw(spec, rng))]
        if spec.sign_variants:
            argv += ["--variant", str(rng.choice(["plus", "minus"]))]
        cli_ops.append(Op("cli", {"name": "catalog verify", "argv": argv,
                                  "key": f"{tag}-verify-{j}"}, (0, True)))
    for name in (names[:1] if smoke else names):
        argv = ["check", name, "--params", json.dumps(_closed_form_params(name, rng))]
        cli_ops.append(Op("cli", {"name": "check", "argv": argv, "key": f"{tag}-check-{name}"},
                          (0, True)))
    for linear in (True, False):
        argv = ["transform", "--direction", "to-heat",
                "--model", json.dumps(_transform_model(rng, linear))]
        cli_ops.append(Op("cli", {"name": "transform", "argv": argv,
                                  "key": f"{tag}-transform-{int(linear)}"}, (0, linear)))
    ops += cli_ops + [Op(o.kind, dict(o.args), o.expect) for o in cli_ops]
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _generic_source(rng, form: int) -> str:
    c1, c2, c3 = (round(float(rng.uniform(lo, hi)), 6)
                  for lo, hi in ((0.5, 2.0), (0.7, 1.5), (0.0, 1.0)))
    if form == 0:
        return f"{c1}*phi^2 + sin({c2}*x + {c3})*phi^3"
    return f"{c1}*phi^3 + cos({c2}*x)*phi^2 + {c3}*x*phi"


# One match op takes 6-12 s at the commit that added this benchmark, so a
# timed run answers about three, and the cost of one op moves by up to 40 %
# with its source and even with its sample points alone (A_3_5_9 at B = 1:
# 5.9-10.3 s over five sample seeds).  So the first pass leads with these
# fixed inputs, source and sample seed, and every run measures the same
# work.  The seed varies everything after them: every other catalog source
# at random admissible parameters, with random generic sources in between,
# which timed runs reach once matching is faster.  The lead is a
# one-parameter grid fit; a generic source that match_fhat wrongly matches
# to A_3_5_5 at these sample points (at A = 517, B = -1057 every point fails
# in exp(-B x), which reads as residual 0); a four-parameter random-search
# fit that misses at the entry's defaults; and two more of each kind.
MATCH_LEAD = (
    (("A_3_5_9", "plus"), 11),
    ("0.716239*phi^2 + sin(1.45892*x + 0.311831)*phi^3", 1020552622),
    (("A_3_8_1", "plus"), 13),
    (("A_4_4", "plus"), 14),
    ("0.740318*phi^3 + cos(1.190032*x)*phi^2 + 0.043942*x*phi", 15),
    (("A_3_5_2", "minus"), 16),
)


def _match_catalog_op(spec, variant: str, params: dict, seed: int) -> Op:
    return Op("match_catalog", {
        "entry": spec.id, "variant": variant if spec.sign_variants else None,
        "params": params, "fhat": source_text(spec, params, variant), "seed": seed}, True)


def _match_generic_op(fhat: str, seed: int) -> Op:
    return Op("match_generic", {"fhat": fhat, "seed": seed}, ["A_1"])


def _match_pass(rng, smoke: bool, index: int) -> list[Op]:
    ops: list[Op] = []
    # later passes draw the lead entries at random too, so no input repeats
    lead_ops = (MATCH_LEAD[:2] if smoke else MATCH_LEAD) if index == 0 else ()
    for (lead, seed) in lead_ops:
        if isinstance(lead, str):
            ops.append(_match_generic_op(lead, seed))
        else:
            spec = cat.get_spec(lead[0])
            ops.append(_match_catalog_op(spec, lead[1], dict(spec.defaults), seed))
    if smoke:
        return ops
    leads = {lead for (lead, _) in lead_ops}
    slots = [(spec, var) for spec in map(cat.get_spec, (m["id"] for m in cat.list_entries()))
             if spec.id != "A_1" and not spec.functions for var in _variants(spec)
             if (spec.id, var) not in leads]
    for i, (spec, var) in enumerate(slots):
        if i % 4 == 0:
            ops.append(_match_generic_op(_generic_source(rng, i // 4 % 2),
                                         int(rng.integers(1 << 30))))
        # margin 0.05: match_fhat rejects fits closer than this to the
        # inadmissible set by design
        ops.append(_match_catalog_op(spec, var, _draw(spec, rng, margin=0.05),
                                     int(rng.integers(1 << 30))))
    return ops


# Moving-barrier study inputs (alpha, beta, A), fixed rather than drawn.  At
# criterion 7's parameters the observed order is 2.40.  At the second set it
# is 0.86: the error at nx = 128 is 1.8 times the error at nx = 64 (the known
# defect in KNOWN_DEFECTS).  Drawn parameters hit such a spike only now and
# then (2 of 124 draws over seeds 0-30 and two passes), which would make the
# number of failed ops differ between runs of the same code.  With fixed
# inputs the defect shows once in every pass.
MOVING_BARRIERS = (
    {"alpha": 0.05, "beta": 0.9, "A": 1.0},
    {"alpha": 0.0635, "beta": 0.919, "A": 0.886},
)

# Fixed-strip CN studies per refine pass.  They are more than half of the
# pass's ops, so the median op is a fixed-strip study whatever the other
# kinds cost.  With kinds in equal numbers the median would fall between two
# kinds and swing by a quarter between runs.  A pass takes about 17 s on a
# 2-core VM, so a 12 s run answers exactly one pass: the same ops every run.
FIXED_PER_PASS = 34


def _barrier_draw(rng) -> dict[str, float]:
    return {"alpha": float(rng.uniform(0.03, 0.07)), "beta": float(rng.uniform(0.85, 0.95)),
            "A": float(rng.uniform(0.8, 1.2))}


def _wave_draw(rng) -> dict[str, float]:
    return {"c": float(rng.uniform(0.5, 2.0)), "k": float(rng.uniform(2.5, 3.5)),
            "s": float(rng.uniform(0.0, 0.5)), "tau1": float(rng.uniform(0.08, 0.12))}


def _refine_pass(rng, smoke: bool, tag: str) -> list[Op]:
    levels = [16, 32, 64] if smoke else [16, 32, 64, 128]
    rounds = 1 if smoke else 2
    fixed = [Op("study", {"name": "fixed-cn", "barrier": _barrier_draw(rng), "levels": levels},
                True) for _ in range(1 if smoke else FIXED_PER_PASS)]
    moving = [Op("study", {"name": "moving-cn", "barrier": dict(b),
                           "levels": [16, 32, 64] if smoke else [32, 64, 128]}, True)
              for b in MOVING_BARRIERS]
    wave = _wave_draw(rng)
    solve_argv = [
        "solve", "--model", json.dumps({"fhat": "0*phi", "exact": _wave(wave)}),
        "--grid", json.dumps({"x_lo": 0, "x_hi": 1, "nx": 64, "tau0": 0,
                              "tau1": wave["tau1"], "ntau": 100}),
    ]
    cli_op = Op("cli", {"name": "solve", "argv": solve_argv, "key": f"{tag}-solve"}, (0, True))
    ops = [cli_op]
    per_round = len(fixed) // rounds
    for r in range(rounds):
        ops += fixed[r * per_round:(r + 1) * per_round]
        ops += [
            Op("study", {"name": "pure-cn", "levels": levels, "wave": _wave_draw(rng)}, True),
            *moving[r::rounds],
            Op("large_solve", {"barrier": _barrier_draw(rng), "nx": 128 if smoke else 256,
                               "ntau": 512 if smoke else 1024}, True),
            Op("study", {"name": "pure-explicit", "levels": [16, 32, 64],
                         "wave": _wave_draw(rng)}, True),
        ]
    return ops + [Op(cli_op.kind, dict(cli_op.args), cli_op.expect)]


def build_pass(workload: str, seed: int, index: int, smoke: bool = False) -> list[Op]:
    """The ops of pass ``index`` of ``workload`` for ``seed``."""
    rng = np.random.default_rng([seed, index])
    tag = f"p{index}"
    if workload == "verify":
        return _verify_pass(rng, smoke, tag)
    if workload == "match":
        return _match_pass(rng, smoke, index)
    if workload == "refine":
        return _refine_pass(rng, smoke, tag)
    raise ValueError(f"unknown workload {workload!r}")


# -- ops --------------------------------------------------------------------

def _verify_entry(a, ctx):
    rep = cat.verify_entry(a["entry"], params=a["params"], sign_variant=a["variant"],
                           n=100, seed=a["seed"])
    return rep.passed, {"max_abs": rep.max_abs}


def _verify_commutators(a, ctx):
    reps = cat.verify_commutators(a["entry"], params=a["params"], sign_variant=a["variant"],
                                  n=50, seed=a["seed"], tolerance=1e-6)
    return all(r.passed for (_, _, r) in reps), {"max_abs": max(r.max_abs for (_, _, r) in reps)}


def _closed_form(a, ctx):
    p, name, tol = a["params"], a["name"], 1e-7
    if name == "terminal":
        sol = so.terminal_solution(p["a"], p["b"], p["T"])
        res = sol.residual()
        datum = max(abs(sol.evaluate(float(xv), p["T"]) - 1.0)
                    for xv in np.linspace(*sol.box["x"], 9))
        return res < tol and datum < tol, {"residual": res, "datum": datum}
    if name == "barrier":
        bs = so.barrier_solution(p["a"], p["b"], p["alpha"], p["beta"], p["K"], p["T"], p["A"])
        T, b, beta, K = p["T"], p["b"], p["beta"], p["K"]
        tp = -b * b * T / 2.0
        vals = {
            "residual": bs.heath.residual(),
            "heat_residual": bs.heat.residual(),
            "boundary": bs.boundary_residual(np.linspace(T - 1.0, T, 9)),
            "heat_boundary": bs.phi_boundary_residual(np.linspace(tp, tp + 0.4, 9)),
            "invariance": bs.invariance_residual(
                [(xv, tv) for xv in np.linspace(beta * K, beta * K + 5, 4)
                 for tv in np.linspace(tp, tp + 0.3, 4)]),
        }
        ok = (vals["residual"] < tol and vals["heat_residual"] < tol
              and vals["boundary"] < 1e-9 and vals["heat_boundary"] < tol
              and vals["invariance"] < 1e-8)
        return ok, vals
    build = so.example_A22 if name == "a22" else so.example_A359
    sol = build(p["a"], p["b"], p["c3"] if name == "a22" else p["c1"])
    if sol.domain_violation() is not None:
        return False, {"violation": sol.domain_violation()}
    res = sol.residual()
    return res < tol, {"residual": res}


def _control(a, ctx):
    entry = cat.instantiate(a["entry"], params=a["params"], sign_variant=a["variant"])
    pde = lie.EvolutionPDE(ex.sym("u_xx") + lie.parse_xtu(a["fhat"]))
    worst = []
    for i, g in enumerate(entry.generators):
        rep = lie.check_symmetry(pde, g, n=100, seed=a["seed"] + i, box=entry.box,
                                 tolerance=1e-8)
        worst.append(rep.max_abs)
    failing = [i for i, w in enumerate(worst) if not w < 1e-8]
    return failing, {"max_abs": worst}


def _cli(a, ctx):
    path = os.path.join(ctx.tmpdir, a["key"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(a["argv"] + ["--out", path])
    with open(path, "rb") as fh:
        data = fh.read()
    ctx.count("cli.out_bytes", len(out.getvalue().encode()) + len(data))
    same = ctx.same_as_before(a["key"], data)
    if a["name"] == "solve":
        answer = json.loads(out.getvalue())["final_Linf"] < 1e-3
    elif a["name"] == "transform":
        answer = json.loads(data)["linearizable"]
    else:
        answer = json.loads(data)["passed"]
    # A changed artifact for a repeated configuration is a wrong answer.
    return ((code, answer) if same else ("artifact differs", answer)), {"bytes": len(data)}


def _barrier_case(p):
    bs = so.barrier_solution(1.0, 1.0, p["alpha"], p["beta"], 1.0, 1.0, p["A"])
    return bs, ex.rename(bs.heat.u, {"tau": "t"})


def _wave(p):
    """c exp(-k^2 tau) sin(k x + s): an exact solution of phi_tau = phi_xx."""
    return "{c!r}*exp(-({k!r})^2*tau)*sin({k!r}*x + {s!r})".format(**p)


def _study(a, ctx):
    name = a["name"]
    if name in ("fixed-cn", "moving-cn"):
        bs, ref = _barrier_case(a["barrier"])
        case = sv.ConvergenceCase(
            bs.heat.model, ref, sv.GridSpec(0.3, 2.5, 32, -0.5, 0.0, 60), sv.SchemeConfig(),
            barrier=bs.spec if name == "moving-cn" else None)
        floor = 1.8 if name == "fixed-cn" else 1.0
        rep = sv.convergence_study(case, a["levels"])
        return rep["order"] >= floor, {"order": rep["order"]}
    w = a["wave"]
    if name == "pure-cn":
        grid, scheme = sv.GridSpec(0.0, 1.0, 16, 0.0, w["tau1"], 40), sv.SchemeConfig()
    else:
        # explicit Euler needs k <= h^2/2 on the base grid (h = 1/17)
        ntau = math.ceil(w["tau1"] / (0.5 / 17 ** 2)) + 1
        grid = sv.GridSpec(0.0, 1.0, 16, 0.0, w["tau1"], ntau)
        scheme = sv.SchemeConfig(scheme=sv.EXPLICIT)
    case = sv.ConvergenceCase(HeatSourceModel(ex.parse("0*phi")), _wave(w), grid, scheme)
    rep = sv.convergence_study(case, a["levels"])
    return abs(rep["order"] - 2.0) <= 0.2, {"order": rep["order"]}


def _large_solve(a, ctx):
    bs, ref = _barrier_case(a["barrier"])
    grid = sv.GridSpec(0.3, 2.5, a["nx"], -0.5, 0.0, a["ntau"])
    init = ex.substitute(ref, "t", ex.num(grid.tau0))
    snaps = sv.solve(bs.heat.model, init, grid, sv.SchemeConfig(), boundary=ref)
    norms = sv.error_norms(snaps, ref, grid)
    worst = max(n["Linf"] for n in norms)
    return worst < 1e-5, {"max_Linf": worst, "snapshots": len(snaps)}


def _match_catalog(a, ctx):
    found = cat.match_fhat(a["fhat"], n=MATCH_N, seed=a["seed"])
    ids = [m["id"] for m in found]
    hit = next((m for m in found if m["id"] == a["entry"]
                and m["sign_variant"] == a["variant"]), None)
    err = (max((abs(hit["params"][k] - v) for k, v in a["params"].items()), default=0.0)
           if hit else None)
    false_ids = [i for i in ids if i not in ("A_1", a["entry"])]
    return hit is not None, {"ids": ids, "false_ids": len(false_ids), "param_err": err}


def _match_generic(a, ctx):
    ids = [m["id"] for m in cat.match_fhat(a["fhat"], n=MATCH_N, seed=a["seed"])]
    return ids, {"ids": ids, "false_ids": len([i for i in ids if i != "A_1"])}


RUNNERS = {
    "verify_entry": _verify_entry,
    "verify_commutators": _verify_commutators,
    "closed_form": _closed_form,
    "control": _control,
    "cli": _cli,
    "match_catalog": _match_catalog,
    "match_generic": _match_generic,
    "study": _study,
    "large_solve": _large_solve,
}


def execute(op: Op, ctx: Context) -> dict:
    """Run one op and check its verdict.  Any exception is a failed op."""
    try:
        answer, detail = RUNNERS[op.kind](op.args, ctx)
    except Exception as e:  # an op that raises is a wrong answer, not a crash
        answer, detail = None, {"error": f"{type(e).__name__}: {e}"}
    right = _jsonable(answer) == _jsonable(op.expect)
    ok = right != op.planted
    known = (not op.planted and "error" not in detail
             and (op.kind in KNOWN_DEFECTS or f"{op.kind}:{op.subject}" in KNOWN_DEFECTS))
    return {"ok": ok, "known_defect": (not ok) and known, "answer": _jsonable(answer),
            "detail": detail}


def _jsonable(v):
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v
