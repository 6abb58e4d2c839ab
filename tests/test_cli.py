import json
import math
import os
import sys
import threading

import pytest

from heathsym.catalog import verify_entry
from heathsym.cli import _atomic_write, main

PI = math.pi
SIN_MODEL = json.dumps(
    {"fhat": "0*phi", "exact": f"exp(-({PI})^2*tau)*sin({PI}*x)"}
)
SIN_GRID = json.dumps(
    {"x_lo": 0, "x_hi": 1, "nx": 32, "tau0": 0, "tau1": 0.1, "ntau": 50}
)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 22


def test_catalog_verify_pass(capsys):
    code, out, _ = run(
        capsys, "catalog", "verify", "A_4_4",
        "--params", '{"A":1,"B":2}', "--samples", "40",
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] and data["max_abs_residual"] < 1e-8
    report = verify_entry("A_4_4", params={"A": 1, "B": 2}, n=40, seed=0)
    assert [g["skipped_domain_errors"] for g in data["generators"]] == [
        r.skipped_domain_errors for r in report.generator_reports
    ]


def test_catalog_verify_inadmissible(capsys):
    code, _, err = run(
        capsys, "catalog", "verify", "A_3_5_2", "--params", '{"B":0,"A":1}'
    )
    assert code == 2
    assert "B" in err and "admissib" in err


def test_catalog_verify_unknown(capsys):
    code, _, err = run(capsys, "catalog", "verify", "A_9_9")
    assert code == 2
    assert "unknown" in err


def test_transform_round_trip(capsys):
    code, out, _ = run(
        capsys, "transform", "--model", '{"a":0,"b":1,"f":"u"}',
        "--direction", "to-heat",
    )
    assert code == 0
    fhat = json.loads(out)["fhat"]
    code, out, _ = run(
        capsys, "transform",
        "--model", json.dumps({"a": 0, "b": 1, "fhat": fhat}),
        "--direction", "to-heath",
    )
    assert code == 0
    # round trip lands back on f = u (up to simplification spelling)
    from heathsym import expr as ex
    back = ex.parse(json.loads(out)["f"])
    for uv in (0.5, 1.0, 1.7):
        assert abs(ex.evaluate(back, {"x": 1.0, "u": uv}) - uv) < 1e-10


def test_transform_linearizable_flag(capsys):
    f = "(exp((0.5*x + u)/1)*(x^2) + 0.25)/2"
    code, out, _ = run(
        capsys, "transform", "--model",
        json.dumps({"a": 0.5, "b": 1, "f": f}), "--direction", "to-heat",
    )
    assert code == 0
    assert json.loads(out)["linearizable"] is True


def test_transform_parse_error(capsys):
    code, _, err = run(
        capsys, "transform", "--model", '{"a":1,"b":1,"f":"u +* 3"}'
    )
    assert code == 2
    assert "position" in err


def test_check_terminal(capsys):
    code, out, _ = run(
        capsys, "check", "terminal", "--params", '{"a":1,"b":1,"T":1}'
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] and data["pde_residual_max"] < 1e-7


def test_check_barrier_payoff_informational(capsys):
    code, out, _ = run(capsys, "check", "barrier")
    assert code == 0
    data = json.loads(out)
    assert data["boundary_checks"]["payoff_check"].startswith("not satisfied")


def test_check_domain_violation_exit_3(capsys):
    code, _, err = run(
        capsys, "check", "a359", "--params", '{"a":1,"b":1,"c1":0.2}'
    )
    assert code == 3
    assert "domain violation" in err and "denominator" in err


def test_check_unknown_name(capsys):
    code, _, err = run(capsys, "check", "mystery")
    assert code == 2


def test_solve_summary_and_csv(tmp_path, capsys):
    out_csv = str(tmp_path / "field.csv")
    code, out, _ = run(
        capsys, "solve", "--model", SIN_MODEL, "--grid", SIN_GRID,
        "--out", out_csv,
    )
    assert code == 0
    data = json.loads(out)
    assert data["final_Linf"] < 1e-3
    with open(out_csv) as fh:
        header = fh.readline().strip()
    assert header == "tau,x,phi"
    assert not os.path.exists(out_csv + ".partial")


def test_atomic_write_concurrent_writers(tmp_path):
    # concurrent writers of one path: none fails, the file ends up as one
    # whole text, and no temp file is left behind
    path = str(tmp_path / "out.json")
    texts = [c * 1_000_000 + "\n" for c in "abcd"]
    errors = []

    def write(text):
        try:
            for _ in range(15):
                _atomic_write(path, text)
        except Exception as e:
            errors.append(e)

    threads = [threading.Thread(target=write, args=(t,)) for t in texts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    with open(path, encoding="utf-8") as fh:
        assert fh.read() in texts
    assert os.listdir(tmp_path) == ["out.json"]


def test_solve_stability_guard_exit_2(capsys):
    code, _, err = run(
        capsys, "solve", "--model", SIN_MODEL,
        "--grid", json.dumps({"x_lo": 0, "x_hi": 1, "nx": 64,
                              "tau0": 0, "tau1": 0.1, "ntau": 10}),
        "--scheme", "explicit-euler",
    )
    assert code == 2
    assert "h^2/2" in err


def test_solve_instability_exit_4(capsys):
    code, _, err = run(
        capsys, "solve",
        "--model", json.dumps({"fhat": "100*phi", "init": "1 + 0*x",
                               "boundary": "exp(100*tau) + 0*x"}),
        "--grid", json.dumps({"x_lo": 0, "x_hi": 1, "nx": 16,
                              "tau0": 0, "tau1": 5, "ntau": 50}),
    )
    assert code == 4
    assert "instability" in err or "non-finite" in err


def test_converge_pure_heat(capsys):
    code, out, _ = run(
        capsys, "converge", "--model", SIN_MODEL,
        "--grid", json.dumps({"x_lo": 0, "x_hi": 1, "nx": 16,
                              "tau0": 0, "tau1": 0.1, "ntau": 40}),
        "--params", '{"levels":[16,32,64,128]}',
    )
    assert code == 0
    data = json.loads(out)
    assert 1.8 <= data["order"] <= 2.2


def test_converge_needs_levels(capsys):
    code, _, err = run(
        capsys, "converge", "--model", SIN_MODEL, "--grid", SIN_GRID,
        "--params", '{"levels":[16,32]}',
    )
    assert code == 2
    assert "3 levels" in err


def test_deterministic_outputs(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    for path in (a, b):
        code, _, _ = run(
            capsys, "catalog", "verify", "A_4_4", "--seed", "3",
            "--samples", "40", "--out", path,
        )
        assert code == 0
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_env_seed_override(tmp_path, capsys, monkeypatch):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    monkeypatch.setenv("HEATHSYM_SEED", "7")
    run(capsys, "catalog", "verify", "A_4_4", "--samples", "40", "--out", a)
    monkeypatch.delenv("HEATHSYM_SEED")
    run(capsys, "catalog", "verify", "A_4_4", "--seed", "7",
        "--samples", "40", "--out", b)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_model_descriptor_from_file(tmp_path, capsys):
    p = tmp_path / "model.json"
    p.write_text(SIN_MODEL)
    code, out, _ = run(capsys, "solve", "--model", str(p), "--grid", SIN_GRID)
    assert code == 0


def test_solve_domain_violation_exit_3(capsys):
    # ln(x - 0.5) is undefined on the left half of the strip
    model = json.dumps({"fhat": "ln(x-0.5)*phi", "exact": "exp(-tau)*sin(x)"})
    grid = json.dumps({"x_lo": 0, "x_hi": 1, "nx": 16, "tau0": 0, "tau1": 0.1, "ntau": 40})
    code, out, err = run(capsys, "solve", "--model", model, "--grid", grid)
    assert code == 3 and out == ""
    assert err.count("\n") == 1
    assert "domain violation" in err and "'ln(-1/2 + x)'" in err
    code, _, err = run(capsys, "converge", "--model", model, "--grid", grid,
                       "--params", '{"levels": [16, 32, 64]}')
    assert code == 3 and "'ln(-1/2 + x)'" in err
