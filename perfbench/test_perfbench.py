"""Smoke tests of the benchmark itself (not part of the package's suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs at its smallest size (``--smoke``).  The tests check that
every metric named in BENCHMARK.json is reported with its unit, that a
planted wrong verdict is counted in ``failed``, and that two runs give the
same counts.  The match workload takes about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(cwd, workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result(*args):
    proc = bench(ROOT, *args)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def runs(request):
    w = request.param
    return {
        "plain": [result(w, 0), result(w, 0)],
        "traced": [result(w, 1), result(w, 1)],
        "planted": result(w, 0, "--plant-wrong"),
    }


def _units(metrics):
    return {k: v["unit"] for k, v in metrics.items()}


def test_every_metric_is_reported_with_its_unit(runs):
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for out in runs["plain"]:
        assert _units(out["metrics"]) == want
        assert all(v["value"] > 0 for v in out["metrics"].values())
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for out in runs["traced"]:
        assert _units(out["metrics"]) == want


def test_smoke_runs_are_correct_and_repeat_their_counts(runs):
    a, b = runs["plain"]
    assert a["correct"] and b["correct"]
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    ta, tb = runs["traced"]
    assert (ta["attempted"], ta["failed"]) == (a["attempted"], a["failed"])
    counts = [{k: v["value"] for k, v in t["metrics"].items()
               if v["unit"] in ("count", "B")} for t in (ta, tb)]
    assert counts[0] == counts[1]


def test_planted_wrong_verdict_is_counted(runs):
    plain, planted = runs["plain"][0], runs["planted"]
    assert planted["attempted"] == plain["attempted"]
    assert planted["failed"] == plain["failed"] + 1
    assert not planted["correct"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(str(tmp_path), "verify", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_source_text_matches_instantiate():
    import numpy as np

    import heathsym.catalog as cat
    import heathsym.expr as ex
    import workloads

    rng = np.random.default_rng(0)
    for op in workloads.build_pass("match", 5, 0):
        if op.kind != "match_catalog":
            continue
        built = ex.rename(ex.parse(op.args["fhat"]), {"phi": "u"})
        entry = cat.instantiate(op.args["entry"], params=op.args["params"],
                                sign_variant=op.args["variant"] or "plus")
        for _ in range(5):
            env = {"x": float(rng.uniform(0.7, 1.3)), "u": float(rng.uniform(0.6, 1.4))}
            a, b = ex.evaluate(built, env), ex.evaluate(entry.fhat, env)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (op.args["entry"], a, b)


def test_import_split_adds_up_to_the_import():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | json",
        "import time:        50 |         50 |       ctypes",
        "import time:       200 |        250 |     numpy",
        "import time:        30 |         30 |         numpy.linalg",
        "import time:        70 |        100 |       scipy",
        "import time:       400 |        500 |     scipy.linalg",
        "import time:        10 |        760 |   heathsym",
        "import time:         5 |        765 | heathsym.cli",
        "import time:       999 |        999 | workloads",
    ])
    split = run.import_split(text)
    assert split == pytest.approx({"numpy": 250e-6, "scipy_linalg": 500e-6,
                                   "heathsym": 15e-6})
