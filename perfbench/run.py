"""Benchmark for heathsym's verdicts: one closed-loop caller, three workloads.

    python3 perfbench/run.py --workload {verify,match,refine} --seed N \\
        --seconds S --trace {0,1} [--smoke] [--plant-wrong]

Run from the repository root.  Every op is one yes/no question put to
heathsym through its public functions; its verdict is checked against a
known answer (see workloads.py).  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

    setup_s      median over seven fresh interpreters of the time from start
                 until the first op is ready (import heathsym.cli + inputs)
    ops_per_s    ops answered per second of (scaled) op time
    op_p50_ms    median (scaled) time of one op
    peak_rss_mb  peak resident memory of the interpreter that ran the ops

On a machine whose cores are shared, two things move wall-clock times that
are not the program's doing.  Speed switches within seconds between two
states (about 1.8x apart on a 2-core VM), and other tenants take the cores
away for stretches, so that an op waits without running.  So an op's time is
the CPU time of the process over the op (all its threads), which leaves the
waiting out, and it is scaled to a nominal machine speed.  The interpreter
that answers the ops also times a fixed calibration loop (worker.calibrate)
every quarter second, and each op's CPU time is divided by the mean loop
time over the op (at least four seconds around it) over
NOMINAL_CALIBRATION_S.  With one caller and no other threads, CPU time is
the op's latency on an idle machine; in convergence_study it sums the work of
the study's pool threads.  The wall-clock figures, raw and scaled, are in the
result file.

With ``--trace 1`` they are the per-layer metrics of tracing.py, from a
traced interpreter that answers a fixed number of ops (TRACE_OPS), so that
counts and self times describe the same work on every version of heathsym;
an untraced interpreter answers the same ops, and the ratio of their wall
times is ``trace.overhead_ratio``.  ``failed`` counts every wrong verdict,
the known defects of workloads.KNOWN_DEFECTS included; ``correct`` is false
when any other verdict is wrong.  The full result (environment, op mix,
per-kind latencies, p90 where a run has at least 100 ops) is written to
``.perfbench/results/``.

``--smoke`` answers one small pass of each workload instead of running for
``--seconds``; ``--plant-wrong`` flips the known answer of the first op.
Both exist for the benchmark's own tests (test_perfbench.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (imports nothing from heathsym)

WORKLOADS = ("verify", "match", "refine")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
TRACE_OPS = {"verify": 120, "match": 3, "refine": 44}
NOMINAL_CALIBRATION_S = 0.005
MIN_WINDOW = 16  # calibration samples, four seconds
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 2
CHILD_TIMEOUT_S = 170


class ChildError(RuntimeError):
    pass


def _child(root: str, args: list[str], importtime: bool = False) -> tuple[dict, str]:
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + \
        [os.path.join(HERE, "worker.py"), root] + args
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise ChildError(f"worker {args} exited {proc.returncode}: " + " | ".join(tail))
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def import_split(stderr: str) -> dict[str, float]:
    """Seconds that ``import heathsym.cli`` spends in numpy, in scipy (which
    heathsym imports for scipy.linalg) and in the rest, from
    ``python -X importtime`` output.

    importtime lists each module after the modules it imported, indented one
    level deeper than its importer.  A module's self time goes to numpy or
    scipy when it or one of its importers belongs to that package, to the
    outermost such importer first (numpy.linalg pulled in by scipy.linalg
    counts for scipy, ctypes pulled in by numpy for numpy), and to heathsym
    otherwise.  The three parts add up to the cumulative time of
    heathsym.cli."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, _, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(own) / 1e6))
        if depth == 0:
            if name.strip() == "heathsym.cli":
                break
            rows.clear()  # a top-level import of the worker itself
    totals = {"numpy": 0.0, "scipy": 0.0, "heathsym": 0.0}
    owners: list[str] = []
    for (depth, name, own) in reversed(rows):
        del owners[depth:]
        top = name.split(".")[0]
        outer = owners[-1] if owners else "heathsym"
        owner = outer if outer != "heathsym" or top not in totals else top
        owners.append(owner)
        totals[owner] += own
    return {"numpy": totals["numpy"], "scipy_linalg": totals["scipy"],
            "heathsym": totals["heathsym"]}


def _imports(root: str, base: list[str]) -> dict[str, float]:
    splits = [import_split(_child(root, base + ["setup"], importtime=True)[1])
              for _ in range(IMPORT_SAMPLES)]
    return {k: statistics.median(s[k] for s in splits) for k in splits[0]}


def _slowness(samples: list[float], first: int, last: int) -> float:
    """How slow the machine ran during an op, relative to
    NOMINAL_CALIBRATION_S: the mean of the calibration samples taken while
    the op ran (samples[first:last]), widened evenly on both sides to at
    least MIN_WINDOW samples, since one quarter-second sample is too noisy
    for a short op.  The mean, not the median: the machine switches between
    a fast and a slow state within seconds, and the op saw the time average
    of the two."""
    pad = (max(0, MIN_WINDOW - (last - first)) + 1) // 2
    window = samples[max(0, first - pad):max(last, first) + pad]
    return statistics.fmean(window) / NOMINAL_CALIBRATION_S if window else 1.0


def _summary(run: dict) -> dict:
    records = run["records"]
    ms = [r["ms"] for r in records]
    kinds: dict[str, list[float]] = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r["ms"])
    out = {
        "ops": len(records),
        "elapsed_s": run["elapsed_s"],
        "ops_per_s": len(records) / run["elapsed_s"],
        "op_p50_ms": statistics.median(ms),
        "per_kind_p50_ms": {k: statistics.median(v) for k, v in kinds.items()},
        "per_kind_ops": {k: len(v) for k, v in kinds.items()},
        "failed": [{"kind": r["kind"], "subject": r["subject"], "answer": r["answer"],
                    "known_defect": r["known_defect"], "detail": r["detail"]}
                   for r in records if not r["ok"]],
    }
    if len(ms) >= 100:  # at least ten samples beyond the 90th percentile
        out["op_p90_ms"] = statistics.quantiles(ms, n=10)[-1]
    if run["calibration_s"]:
        slow = [_slowness(run["calibration_s"], *r["cal"]) for r in records]
        wall = [r["ms"] / k for r, k in zip(records, slow)]
        out["scaled_wall_ops_per_s"] = len(wall) / (sum(wall) / 1e3)
        out["scaled_wall_op_p50_ms"] = statistics.median(wall)
        cpu = [r["cpu_ms"] / k for r, k in zip(records, slow)]
        out["scaled_ops_per_s"] = len(cpu) / (sum(cpu) / 1e3)
        out["scaled_op_p50_ms"] = statistics.median(cpu)
    return out


def _match_totals(records: list[dict]) -> dict:
    expected = [r for r in records if r["kind"] == "match_catalog"]
    hits = [r for r in expected if r["answer"] is True]
    errs = [r["detail"]["param_err"] for r in hits if r["detail"].get("param_err") is not None]
    return {
        "expected": len(expected),
        "hits": len(hits),
        "false_ids": sum(r["detail"].get("false_ids", 0) for r in records
                         if r["kind"].startswith("match_")),
        "param_err_max": max(errs, default=0.0),
    }


def _verdict(run: dict) -> tuple[bool, int, int]:
    records = run["records"]
    failed = [r for r in records if not r["ok"]]
    correct = all(r["known_defect"] for r in failed)
    return correct, len(records), len(failed)


def _git_commit(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(root: str, workload: str, seed: int, seconds: int, trace: bool,
            smoke: bool, plant: bool) -> dict:
    base = [workload, str(seed)]
    flags = (["plant"] if plant else []) + (["smoke"] if smoke else [])
    imports = _imports(root, base)
    result: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "smoke": smoke, "import_split_s": imports,
                    "load": "closed loop, one caller, no extra threads; "
                            "convergence_study runs its levels on its own pool "
                            "of up to 4 threads",
                    "nproc": os.cpu_count(), "platform": platform.platform(),
                    "git_commit": _git_commit(root)}
    if not trace:
        setups = [_child(root, base + ["setup"])[0]["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        run, _ = _child(root, base + ["run", str(seconds)] + flags)
        setups.append(run["setup_s"])
        summary = _summary(run)
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": summary["scaled_ops_per_s"],
            "op_p50_ms": summary["scaled_op_p50_ms"],
            "peak_rss_mb": run["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        result.update(setup_samples_s=setups, summary=summary,
                      calibration_s=run["calibration_s"], records=run["records"])
    else:
        n = str(TRACE_OPS[workload])
        ref, _ = _child(root, base + ["ops", n] + flags + ["preload"])
        run, _ = _child(root, base + ["ops", n] + flags + ["trace"])
        overhead = run["elapsed_s"] / ref["elapsed_s"]
        summary = _summary(run)
        metrics = tracing.per_layer_metrics(run["trace"], imports,
                                            _match_totals(run["records"]), overhead)
        result.update(summary=summary, untraced_summary=_summary(ref),
                      trace={k: v for k, v in run["trace"].items() if k != "counts"},
                      trace_counts=run["trace"]["counts"])
    correct, attempted, failed = _verdict(run)
    if trace:
        correct = correct and _verdict(ref)[0]
    result.update(versions=run["versions"], ops_mix=run["mix"],
                  artifacts_compared=run["artifacts_compared"])
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "result": result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--plant-wrong", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "heathsym", "cli.py")):
        sys.stderr.write("error: run from the repository root (src/heathsym not found)\n")
        return 2
    try:
        out = measure(root, args.workload, args.seed, args.seconds, bool(args.trace),
                      args.smoke, args.plant_wrong)
    except (ChildError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    result = out.pop("result")
    res_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(res_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(res_dir, name), "w", encoding="utf-8") as fh:
        json.dump({**out, "result": result}, fh, indent=1, sort_keys=True)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
