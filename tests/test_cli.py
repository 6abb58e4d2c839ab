import json
import math
import os
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from heathsym import cli
from heathsym.catalog import verify_entry
from heathsym.cli import _atomic_write, main
from heathsym.lie import UnsamplableError

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
        phis = [float(line.split(",")[2]) for line in fh]
    assert header == "tau,x,phi"
    assert not os.path.exists(out_csv + ".partial")
    # sin(pi x) is exactly 0 at x = 0 on each of the 51 levels
    assert data["min_phi"] == min(phis) == 0.0
    assert data["nonpositive_nodes"] == sum(p <= 0.0 for p in phis) == 51


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


def test_converge_reports_min_phi_and_lambda(capsys):
    # the summary shows where phi <= 0 breaks the inverse map, even though
    # converge silences PositivityWarning
    model = json.dumps({"fhat": "0*phi", "exact": f"exp(-({PI})^2*tau)*sin({PI}*x) - 0.5"})
    code, out, _ = run(
        capsys, "converge", "--model", model,
        "--grid", json.dumps({"x_lo": 0, "x_hi": 1, "nx": 16,
                              "tau0": 0, "tau1": 0.1, "ntau": 40}),
        "--params", '{"levels":[16,33,67]}',
    )
    assert code == 0
    data = json.loads(out)
    assert data["min_phi"] == [-0.5, -0.5, -0.5]
    assert data["lam"] == pytest.approx([0.7225, 1.445, 2.89], rel=1e-12)


def _strict_json(text):
    def reject(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=reject)


def test_converge_exact_levels_print_strict_json(capsys):
    # every level's error is exactly 0: no log error, so no order
    model = json.dumps({"fhat": "0*phi", "exact": "0*x"})
    code, out, err = run(
        capsys, "converge", "--model", model,
        "--grid", json.dumps({"x_lo": 0, "x_hi": 1, "nx": 16,
                              "tau0": 0, "tau1": 0.1, "ntau": 40}),
        "--params", '{"levels":[16,32,64]}',
    )
    assert code == 0 and err == ""
    data = _strict_json(out)
    assert data["errors"] == [0.0, 0.0, 0.0]
    assert data["order"] is None
    assert data["pairwise_orders"] == [None, None]
    assert "nx = [16, 32, 64]" in data["order_reason"]


def test_solve_summary_reports_lambda_and_barrier_node(capsys):
    code, out, _ = run(capsys, "solve", "--model", SIN_MODEL, "--grid", SIN_GRID)
    data = _strict_json(out)
    assert code == 0 and "barrier_node" not in data
    assert data["lam"] == pytest.approx(0.002 * 33 * 33, rel=1e-12)
    barrier = {"a": 1, "b": 1, "alpha": 0.05, "beta": 0.9, "K": 1, "T": 1, "A": 1}
    model = json.dumps({"fhat": "0*phi", "exact": "1 + 0*x", "barrier": barrier})
    grid = json.dumps({"x_lo": 0.3, "x_hi": 2.5, "nx": 64, "tau0": -0.5, "tau1": 0,
                       "ntau": 120})
    code, out, _ = run(capsys, "solve", "--model", model, "--grid", grid)
    data = _strict_json(out)
    assert code == 0
    # the tied node recedes from 18 to 17 over the march (see test_solver)
    assert data["barrier_node"] == [17, 18]
    assert data["lam"] == pytest.approx((0.5 / 120) / (2.2 / 65) ** 2, rel=1e-12)


def test_converge_parse_error_exit_2(capsys):
    model = json.dumps({"fhat": "0*phi", "exact": "sin(x"})
    code, out, err = run(capsys, "converge", "--model", model, "--grid", SIN_GRID,
                         "--params", '{"levels": [16, 32, 64]}')
    assert code == 2 and out == ""
    assert err == "error: expression parse error: expected ')' (at position 5)\n"


@pytest.mark.parametrize("model, message", [
    ({"fhat": "y*phi", "exact": "sin(x)"}, "fhat may only contain x and phi; found ['y']"),
    ({"fhat": "0*phi", "init": "sin(x)"}, "exact-dirichlet boundary mode needs boundary data"),
    ({"fhat": "0*phi", "exact": "sin(x)+y"}, "expression may only contain ('x',); found ['y']"),
], ids=["fhat-symbol", "no-boundary", "exact-symbol"])
def test_solve_bad_model_descriptor_exit_2(capsys, model, message):
    code, out, err = run(capsys, "solve", "--model", json.dumps(model), "--grid", SIN_GRID)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["catalog", "verify", "A_4_4", "--params", '{"Z":1}'], "A_4_4: unknown parameters ['Z']"),
    (["catalog", "verify", "A_4_4", "--params", '{"A":"one"}'],
     "could not convert string to float: 'one'"),
    (["catalog", "verify", "A_4_4", "--samples", "0"], "n must be >= 1"),
    (["check", "terminal", "--params", '{"b":0}'], "b must be nonzero"),
    (["check", "terminal", "--params", '{"a":"x"}'], "cannot use str as an expression"),
    (["check", "barrier", "--params", '{"alpha":-1}'], "alpha must be positive"),
    (["check", "a22", "--params", '{"c3":null}'], "cannot use NoneType as an expression"),
], ids=["verify-unknown-param", "verify-text-param", "verify-no-samples", "terminal-b0",
        "terminal-text-a", "barrier-alpha", "a22-null-c3"])
def test_rejected_params_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_catalog_verify_unsamplable_exit_3(capsys, monkeypatch):
    def unsamplable(*args, **kwargs):
        raise UnsamplableError("could not sample enough jet points")

    monkeypatch.setattr(cli, "verify_entry", unsamplable)
    code, out, err = run(capsys, "catalog", "verify", "A_4_4")
    assert code == 3 and out == ""
    assert err == "error: domain violation: could not sample enough jet points\n"


_BASE_ARGV = {
    "transform": ["transform", "--model", '{"a":0,"b":1,"f":"u"}'],
    "check": ["check", "terminal"],
    "solve": ["solve", "--model", SIN_MODEL, "--grid", SIN_GRID],
    "converge": ["converge", "--model", SIN_MODEL, "--grid", SIN_GRID,
                 "--params", '{"levels":[16,32,64]}'],
}
_DROPPED = [("transform", "--params", "{}"), ("transform", "--tol", "1e-3"),
            ("transform", "--seed", "1"), ("transform", "--samples", "5"),
            ("check", "--seed", "1"), ("check", "--samples", "5"),
            ("solve", "--params", "{}"), ("solve", "--tol", "1e-3"),
            ("solve", "--seed", "1"), ("solve", "--samples", "5"),
            ("converge", "--tol", "1e-3"), ("converge", "--seed", "1"),
            ("converge", "--samples", "5")]


@pytest.mark.parametrize("command, flag, value", _DROPPED,
                         ids=[f"{c}{f}" for c, f, _ in _DROPPED])
def test_options_a_subcommand_never_reads_exit_2(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(_BASE_ARGV[command] + [flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


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


def _readme_commands() -> list[list[str]]:
    """The argument lists of the README's "Command line" examples."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("heathsym ")]


def test_readme_examples_exit_0(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 7
    codes = {" ".join(argv[:2]): run(capsys, *argv)[0] for argv in commands}
    assert codes == dict.fromkeys(codes, 0)


def test_check_rejects_unknown_params_exit_2(capsys):
    code, out, err = run(capsys, "check", "terminal", "--params", '{"T":2,"bb":0}')
    assert code == 2 and out == ""
    assert err == "error: check terminal: unknown parameters ['bb']; accepted: ['a', 'b', 'T']\n"
    code, _, err = run(capsys, "check", "a359", "--params", '{"c3":0.1}')
    assert code == 2
    assert err == "error: check a359: unknown parameters ['c3']; accepted: ['a', 'b', 'c1']\n"


def test_check_params_override_defaults(capsys):
    # the parameters given replace the defaults, the others keep theirs
    code, out, _ = run(capsys, "check", "terminal", "--params", '{"T":2}')
    assert code == 0
    singular = json.loads(out)["boundary_checks"]["singular_time"]
    assert singular == pytest.approx(2 - 2 * math.log(2.0))


def test_converge_rejects_unknown_params_exit_2(capsys):
    code, out, err = run(capsys, "converge", "--model", SIN_MODEL, "--grid", SIN_GRID,
                         "--params", '{"levels":[16,32,64],"level":[8]}')
    assert code == 2 and out == ""
    assert err == "error: converge: unknown parameters ['level']; accepted: ['levels']\n"


def test_unknown_flag_shows_the_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--model", SIN_MODEL, "--grid", SIN_GRID, "--tol", "1e-3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: heathsym solve [-h]")
    assert "heathsym solve: error: unrecognized arguments: --tol 1e-3" in err


def test_answers_without_a_solve_leave_scipy_linalg_unloaded():
    # scipy.linalg loads on the first Crank-Nicolson factorisation only
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "\n".join([
        "import contextlib, io, sys",
        "import heathsym",
        "from heathsym.catalog import match_fhat",
        "from heathsym.cli import main",
        "def loaded(): return 'scipy.linalg' in sys.modules",
        "assert not loaded(), 'import heathsym'",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(['catalog', 'verify', 'A_4_4']) == 0",
        "    assert not loaded(), 'catalog verify'",
        "    assert main(['check', 'barrier']) == 0",
        "    assert not loaded(), 'check'",
        "    assert main(['transform', '--model', '{\"a\":0,\"b\":1,\"f\":\"u^2\"}']) == 0",
        "    assert not loaded(), 'transform'",
        "    match_fhat('phi^2 + sin(x)*phi^3', n=10)",
        "    assert not loaded(), 'match_fhat'",
        f"    assert main(['solve', '--model', {SIN_MODEL!r}, '--grid', {SIN_GRID!r}]) == 0",
        "    assert loaded(), 'solve'",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
