"""One fresh interpreter of a benchmark run: set up, then answer ops.

    python3 perfbench/worker.py ROOT WORKLOAD SEED MODE [LIMIT] [FLAGS...]

MODE ``setup`` stops once the first op is ready.  MODE ``run`` then answers
ops until LIMIT seconds have passed, finishing the cycle of ops under way
(workloads.CYCLE); MODE ``ops`` answers exactly LIMIT ops.  FLAGS: ``smoke``
answers one pass of the small smoke inputs and stops, ``trace`` installs the
tracer, ``preload`` imports what the tracer patches (for the untraced side
of the overhead comparison), ``plant`` flips the known answer of the first
op.  The result is one JSON line on stdout.
"""

import time

T0 = time.perf_counter()

import collections  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402


CALIBRATE_EVERY_S = 0.25


def calibrate() -> float:
    """CPU seconds of this thread for a fixed piece of interpreter-bound work
    (small tuples, lists, dicts and floats, as in heathsym's expression
    trees).  It tracks how fast the machine runs at the moment; thread CPU
    time leaves out any wait for the interpreter lock, so a busy thread that
    heathsym might leave behind cannot make the machine look slower."""
    t0 = time.thread_time()
    memo: dict = {}
    acc = 0
    for i in range(300):
        tree = (i, (i + 1, (i + 2, None)), [j * 0.5 for j in range(24)])
        key = (i % 37, len(tree[2]))
        memo[key] = memo.get(key, 0.0) + sum(tree[2]) + hash(tree[:2]) % 7
        acc += len(repr(tree))
    return time.thread_time() - t0


class Calibrator:
    """Samples ``calibrate`` five times on entry and then every
    CALIBRATE_EVERY_S seconds from a SIGALRM handler, so that long ops are
    sampled while they run.  ``spent`` is the wall time the timed samples
    took; the op timings leave it out."""

    def __init__(self, active: bool):
        self.active = active
        self.samples = [calibrate() for _ in range(5)] if active else []
        self.spent = 0.0
        self.cpu_spent = 0.0

    def _sample(self, signum, frame):
        t0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - t0
        self.cpu_spent += time.process_time() - c0

    def __enter__(self):
        if self.active:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(argv: list[str]) -> dict:
    root, workload, seed, mode = argv[:4]
    limit = float(argv[4]) if len(argv) > 4 else 0.0
    flags = set(argv[5:])
    seed = int(seed)
    smoke = "smoke" in flags
    sys.path.insert(0, os.path.join(root, "src"))
    import heathsym.cli  # noqa: F401  (timed: part of set-up)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads as wl

    passes = [wl.build_pass(workload, seed, 0, smoke)]
    setup_s = time.perf_counter() - T0
    if mode == "setup":
        return {"setup_s": setup_s}

    warnings.simplefilter("ignore")
    if "plant" in flags:
        passes[0][0].planted = True
    tracer = None
    if flags & {"trace", "preload"}:
        import tracing

        tracing.preload()
        if "trace" in flags:
            tracer = tracing.Tracer()
            tracing.install(tracer)

    tmpdir = os.path.join(root, ".perfbench", "tmp", str(os.getpid()))
    os.makedirs(tmpdir, exist_ok=True)
    ctx = wl.Context(tmpdir) if tracer is None else wl.Context(tmpdir, tracer.add)
    records = []
    try:
        with Calibrator(active=mode == "run") as cal:
            start = time.perf_counter()
            i = 0
            while True:
                p, j = divmod(i, len(passes[0]))
                if (mode == "run" and not smoke and records
                        and time.perf_counter() - start >= limit
                        and i % (wl.CYCLE[workload] or len(passes[0])) == 0):
                    break
                if mode == "ops" and len(records) >= limit:
                    break
                if smoke and p > 0:
                    break
                while p >= len(passes):
                    passes.append(wl.build_pass(workload, seed, len(passes), smoke))
                op = passes[p][j]
                spent, cpu_spent, first = cal.spent, cal.cpu_spent, len(cal.samples)
                t0, c0 = time.perf_counter(), time.process_time()
                if tracer is None:
                    res = wl.execute(op, ctx)
                else:
                    res = tracer.run_op(op.kind, i, lambda: wl.execute(op, ctx))
                dt = time.perf_counter() - t0 - (cal.spent - spent)
                cpu = time.process_time() - c0 - (cal.cpu_spent - cpu_spent)
                records.append({"kind": op.kind, "subject": op.subject, "ms": dt * 1e3,
                                "cpu_ms": cpu * 1e3,
                                "cal": [first, len(cal.samples)], **res})
                i += 1
            elapsed = time.perf_counter() - start - cal.spent
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    out = {
        "setup_s": setup_s,
        "elapsed_s": elapsed,
        "peak_rss_mb": peak_kb / 1024.0,
        "calibration_s": cal.samples,
        "records": records,
        "artifacts_compared": ctx.compared,
        "mix": _mix(passes[0]),
        "versions": _versions(),
    }
    if tracer is not None:
        spans_dir = os.path.join(root, ".perfbench", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir, f"{workload}-seed{seed}.jsonl.gz")
        tracer.write(spans_path)
        out["trace"] = {**tracer.summary(), "spans_file": os.path.relpath(spans_path, root)}
    return out


def _mix(ops) -> dict:
    return dict(collections.Counter(op.kind for op in ops))


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


if __name__ == "__main__":
    result = main(sys.argv[1:])
    sys.stdout.write(json.dumps(result) + "\n")
