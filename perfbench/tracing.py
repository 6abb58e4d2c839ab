"""Spans and counters recorded around calls into heathsym's public functions.

The tracer is installed from outside the package: each wrapped function is
replaced at the name its caller looks up (a module attribute, or a class
attribute for methods), so the package itself is unchanged.  Spans are kept
in memory and written out when the run ends.

A recorded span keeps (id, name, start, end, parent, op, thread).  Calls made
hundreds of thousands of times per run (the callables returned by
``expr.compile_exprs``, the tree walker ``expr.evaluate`` and the banded
solve) are leaf calls: they are counted and timed in aggregate and their time
is charged to the enclosing span, but no record is kept per call.

Every ``<name>.s`` metric is self time: a span's duration minus the part of
its interval covered by its child spans and leaf calls.  The self times of all
names add up to the wall time of the benchmark's op spans, except inside
``solver.convergence_study``, which runs its levels on a thread pool of up to
four threads: spans in those threads overlap in wall time, so their self
times are summed per thread and can exceed the study's wall time.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time
from collections import defaultdict

# Metric name -> unit, in report order.  Every name is reported on every
# workload; a layer the workload never calls reads 0.
PER_LAYER_UNITS = {
    "import.numpy_s": "s",
    "import.scipy_linalg_s": "s",
    "import.heathsym_s": "s",
    "cli.main.calls": "count",
    "cli.main.s": "s",
    "cli.out_bytes": "B",
    "expr.parse.calls": "count",
    "expr.parse.s": "s",
    "expr.diff.calls": "count",
    "expr.diff.s": "s",
    "expr.simplify.calls": "count",
    "expr.simplify.s": "s",
    "expr.compile.calls": "count",
    "expr.compile.s": "s",
    "expr.eval.calls": "count",
    "expr.eval.s": "s",
    "expr.eval.domain_errors": "count",
    "expr.evaluate.calls": "count",
    "expr.evaluate.s": "s",
    "lie.terms.calls": "count",
    "lie.terms.s": "s",
    "lie.check.calls": "count",
    "lie.check.s": "s",
    "lie.check.points": "count",
    "lie.check.skipped": "count",
    "lie.commutator.s": "s",
    "model.pde_residual.s": "s",
    "model.transform.s": "s",
    "solutions.build.s": "s",
    "solutions.residual.s": "s",
    "catalog.instantiate.calls": "count",
    "catalog.instantiate.s": "s",
    "catalog.verify_entry.s": "s",
    "catalog.verify_commutators.s": "s",
    "catalog.match.calls": "count",
    "catalog.match.s": "s",
    "catalog.match.minimize.calls": "count",
    "catalog.match.minimize.s": "s",
    "catalog.match.evals_per_call": "count",
    "catalog.match.recall": "ratio",
    "catalog.match.false_ids": "count",
    "catalog.match.param_err_max": "abs",
    "solver.solve.calls": "count",
    "solver.solve.s": "s",
    "solver.solve_barrier.s": "s",
    "solver.tridiag.calls": "count",
    "solver.tridiag.s": "s",
    "solver.error_norms.s": "s",
    "solver.convergence_study.s": "s",
    "solver.csv_rows.s": "s",
    "solver.node_steps": "count",
    "solver.node_steps_per_s": "1/s",
    "solver.norms.useful_ratio": "ratio",
    "layer.bench.s": "s",
    "layer.cli.s": "s",
    "layer.expr.s": "s",
    "layer.lie.s": "s",
    "layer.model.s": "s",
    "layer.solutions.s": "s",
    "layer.catalog.s": "s",
    "layer.solver.s": "s",
    "trace.overhead_ratio": "ratio",
}

LAYERS = ("bench", "cli", "expr", "lie", "model", "solutions", "catalog", "solver")


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._leaf_into: dict[int, float] = defaultdict(float)
        self._open: dict[int, str] = {}
        self._next = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _parent(self, st: list) -> int | None:
        if st:
            return st[-1]
        # A span opened on a pool thread belongs to the span the main thread
        # is waiting in (solver.convergence_study).
        if st is not self._main and self._main:
            return self._main[-1]
        return None

    def add(self, name: str, value: float) -> None:
        with self._lock:  # called from convergence_study's pool threads too
            self.counts[name] += value

    def caller(self) -> str:
        """Name of the innermost open span around the current call."""
        return self._open.get(self._parent(self._stack()), "")

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span named ``name``.
        ``after(result, args, kwargs)`` adds counts once the call returns."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            st = self._stack()
            parent = self._parent(st)
            with self._lock:
                self._next += 1
                sid = self._next
            self._open[sid] = name
            st.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                st.pop()
                del self._open[sid]
                with self._lock:
                    self.spans.append(
                        (sid, name, t0, t1, parent, self.op, threading.get_ident())
                    )
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapped

    def leaf(self, name: str, fn, errors: tuple = ()):
        """Wrap a high-frequency callable: aggregate its calls and time,
        charge the time to the enclosing span, count ``errors`` it raises."""

        def wrapped(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            except errors:
                self.add(name + ".domain_errors", 1)
                raise
            finally:
                dt = time.perf_counter() - t0
                parent = self._parent(self._stack())
                with self._lock:
                    self.leaf_calls[name] += 1
                    self.leaf_time[name] += dt
                    if parent is not None:
                        self._leaf_into[parent] += dt

        return wrapped

    def run_op(self, kind: str, index: int, fn):
        """Run one benchmark op as the root span of the calls it makes."""
        self.op = index
        try:
            return self.span("bench.op." + kind, fn)()
        finally:
            self.op = None

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name (leaf names included)."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for (_, _, t0, t1, parent, _, _) in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out: dict[str, float] = defaultdict(float)
        for (sid, name, t0, t1, _, _, _) in self.spans:
            covered = _union(children.get(sid, ())) + self._leaf_into.get(sid, 0.0)
            out[name] += max(0.0, (t1 - t0) - covered)
        for name, dt in self.leaf_time.items():
            out[name] += dt
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[1]] += 1
        for name, n in self.leaf_calls.items():
            out[name] += n
        return dict(out)

    def summary(self) -> dict:
        """What ``per_layer_metrics`` needs, as plain JSON data."""
        solves = ("solver.solve", "solver.solve_barrier")
        return {
            "calls": self.calls(),
            "self_s": self.self_times(),
            "counts": dict(self.counts),
            "solve_inclusive_s": sum(t1 - t0 for (_, name, t0, t1, _, _, _) in self.spans
                                     if name in solves),
            "spans": len(self.spans),
        }

    def write(self, path: str) -> None:
        """Spans as gzip'd JSON lines, then one line of leaf totals."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for (sid, name, t0, t1, parent, op, thread) in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op, "thread": thread}) + "\n")
            fh.write(json.dumps({"leaf_calls": dict(self.leaf_calls),
                                 "leaf_s": dict(self.leaf_time)}) + "\n")


def _union(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = None
    for (a, b) in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def preload() -> None:
    """Import what ``install`` patches, so a traced process and the untraced
    process it is compared with start their ops from the same state."""
    import scipy.optimize  # noqa: F401  (match_fhat imports it on first call)


def install(tr: Tracer) -> None:
    """Replace heathsym's public functions with traced wrappers at every
    name a caller looks them up by."""
    preload()
    import scipy.optimize as opt

    import heathsym.catalog as cat
    import heathsym.cli as cli
    import heathsym.expr as ex
    import heathsym.lie as lie
    import heathsym.model as model
    import heathsym.solutions as so
    import heathsym.solver as sv

    def patch(wrapper, *places):
        for (owner, attr) in places:
            setattr(owner, attr, wrapper)

    # expr
    for attr in ("parse", "diff", "simplify"):
        patch(tr.span("expr." + attr, getattr(ex, attr)), (ex, attr))
    compile_exprs = ex.compile_exprs
    domain = (ex.DomainError, OverflowError, ZeroDivisionError)
    patch(tr.span("expr.compile", lambda *a, **k: tr.leaf(
        "expr.eval", compile_exprs(*a, **k), domain)), (ex, "compile_exprs"))
    patch(tr.leaf("expr.evaluate", ex.evaluate), (ex, "evaluate"))

    # lie
    patch(tr.span("lie.terms", lie.symmetry_condition_terms),
          (lie, "symmetry_condition_terms"))

    def after_check(rep, args, kwargs):
        tr.add("lie.check.points", rep.n_points)
        tr.add("lie.check.skipped", rep.skipped_domain_errors)

    patch(tr.span("lie.check", lie.check_symmetry, after_check),
          (lie, "check_symmetry"), (cat, "check_symmetry"))
    patch(tr.span("lie.commutator", lie.commutator), (lie, "commutator"), (cat, "commutator"))

    # model
    patch(tr.span("model.pde_residual", model.pde_residual),
          (model, "pde_residual"), (so, "pde_residual"))
    for attr in ("heath_to_heat", "heat_to_heath", "is_linearizable"):
        patch(tr.span("model.transform", getattr(model, attr)), (model, attr), (cli, attr))

    # solutions
    for attr in ("terminal_solution", "barrier_solution", "example_A22",
                 "example_A359", "exponential_barrier"):
        patch(tr.span("solutions.build", getattr(so, attr)), (so, attr), (cli, attr))
    patch(tr.span("solutions.residual", so.ClosedFormSolution.residual),
          (so.ClosedFormSolution, "residual"))
    for attr in ("boundary_residual", "phi_boundary_residual", "invariance_residual",
                 "picture_consistency"):
        patch(tr.span("solutions.residual", getattr(so.BarrierSolution, attr)),
              (so.BarrierSolution, attr))

    # catalog
    patch(tr.span("catalog.instantiate", cat.instantiate), (cat, "instantiate"))
    patch(tr.span("catalog.verify_entry", cat.verify_entry),
          (cat, "verify_entry"), (cli, "verify_entry"))
    patch(tr.span("catalog.verify_commutators", cat.verify_commutators),
          (cat, "verify_commutators"))
    match = tr.span("catalog.match", cat.match_fhat)

    def match_fhat(*args, **kwargs):
        before = tr.leaf_calls["expr.eval"]
        try:
            return match(*args, **kwargs)
        finally:
            tr.add("catalog.match.evals", tr.leaf_calls["expr.eval"] - before)

    patch(match_fhat, (cat, "match_fhat"))
    patch(tr.span("catalog.match.minimize", opt.minimize), (opt, "minimize"))

    # solver
    def after_solve(snaps, args, kwargs):
        grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
        tr.add("solver.node_steps", grid.nx * grid.ntau)

    def after_norms(norms, args, kwargs):
        # ConvergenceCase.run and the CLI keep only the final-time norm; the
        # benchmark's own direct call checks every snapshot.
        tr.add("solver.norms.snapshots", len(norms))
        used = len(norms) if tr.caller().startswith("bench.op.") else min(1, len(norms))
        tr.add("solver.norms.useful", used)

    patch(tr.span("solver.solve", sv.solve, after_solve), (sv, "solve"))
    patch(tr.span("solver.solve_barrier", sv.solve_barrier, after_solve), (sv, "solve_barrier"))
    patch(tr.leaf("solver.tridiag", sv.solve_banded), (sv, "solve_banded"))
    patch(tr.span("solver.error_norms", sv.error_norms, after_norms), (sv, "error_norms"))
    patch(tr.span("solver.convergence_study", sv.convergence_study), (sv, "convergence_study"))
    patch(tr.span("solver.csv_rows", sv.csv_rows), (sv, "csv_rows"))

    # cli
    patch(tr.span("cli.main", cli.main), (cli, "main"))


def per_layer_metrics(summary: dict, imports: dict, match: dict, overhead: float) -> dict:
    """Every per-layer metric by name, from one traced run's ``summary``,
    the import split, the match verdict totals and the tracing overhead."""
    calls, selfs = summary["calls"], summary["self_s"]
    counts = defaultdict(float, summary["counts"])

    def ratio(num, den):
        return num / den if den else 0.0

    v = {
        "import.numpy_s": imports["numpy"],
        "import.scipy_linalg_s": imports["scipy_linalg"],
        "import.heathsym_s": imports["heathsym"],
        "cli.out_bytes": counts["cli.out_bytes"],
        "expr.eval.domain_errors": counts["expr.eval.domain_errors"],
        "lie.check.points": counts["lie.check.points"],
        "lie.check.skipped": counts["lie.check.skipped"],
        "catalog.match.evals_per_call": ratio(counts["catalog.match.evals"],
                                              calls.get("catalog.match", 0)),
        "catalog.match.recall": ratio(match["hits"], match["expected"]),
        "catalog.match.false_ids": match["false_ids"],
        "catalog.match.param_err_max": match["param_err_max"],
        "solver.node_steps": counts["solver.node_steps"],
        "solver.node_steps_per_s": ratio(counts["solver.node_steps"],
                                         summary["solve_inclusive_s"]),
        "solver.norms.useful_ratio": ratio(counts["solver.norms.useful"],
                                           counts["solver.norms.snapshots"]),
        "trace.overhead_ratio": overhead,
    }
    for layer in LAYERS:
        v[f"layer.{layer}.s"] = sum(s for n, s in selfs.items() if n.split(".")[0] == layer)
    for name in PER_LAYER_UNITS:
        if name not in v:
            base, _, stat = name.rpartition(".")
            v[name] = calls.get(base, 0) if stat == "calls" else selfs.get(base, 0.0)
    return {name: {"value": float(v[name]), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}
