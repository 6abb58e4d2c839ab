import json
import os
import subprocess
import sys

import numpy as np
import pytest

from heathsym import catalog as cat
from heathsym import expr as ex
from heathsym import lie
from heathsym.lie import check_symmetry
from heathsym.catalog import (
    ENTRIES,
    LITERAL_READINGS,
    InadmissibleParamsError,
    _constraint_text_one,
    UnknownEntryError,
    export_json,
    get_spec,
    instantiate,
    list_entries,
    match_fhat,
    verify_commutators,
    verify_entry,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_catalog_has_22_entries():
    entries = list_entries()
    assert len(entries) == 22
    dims = sorted({e["dimension"] for e in entries})
    assert dims == [1, 2, 3, 4]


def test_every_entry_passes_at_defaults():
    for meta in list_entries():
        spec = get_spec(meta["id"])
        variants = spec.variant_names() if spec.sign_variants else ("plus",)
        for var in variants:
            rep = verify_entry(meta["id"], sign_variant=var, n=60, seed=0)
            assert rep.passed, (meta["id"], var, rep.max_abs)
            assert rep.max_abs < 1e-8


def test_random_admissible_draws_pass():
    rng = np.random.default_rng(11)
    for meta in list_entries():
        spec = get_spec(meta["id"])
        if not spec.params:
            continue
        params = spec.sample_params(rng)
        rep = verify_entry(meta["id"], params=params, n=50, seed=5)
        assert rep.passed, (meta["id"], params, rep.max_abs)


def test_unknown_entry():
    with pytest.raises(UnknownEntryError):
        get_spec("A_9_9")
    with pytest.raises(UnknownEntryError):
        verify_entry("A_9_9")


def test_inadmissible_params_named():
    with pytest.raises(InadmissibleParamsError) as ei:
        instantiate("A_3_5_2", params={"A": 1.0, "B": 0.0})
    assert "B" in str(ei.value)
    with pytest.raises(InadmissibleParamsError):
        instantiate("A_4_4", params={"A": 0.0, "B": 1.0})


def test_sign_variants_differ():
    plus = instantiate("A_3_5_2", sign_variant="plus")
    minus = instantiate("A_3_5_2", sign_variant="minus")
    env = {"x": 0.9, "u": 1.1}
    assert abs(ex.evaluate(plus.fhat, env) - ex.evaluate(minus.fhat, env)) > 1e-6


def test_arbitrary_function_slot():
    # the 2d algebra with a free profile of its invariant: swap in a
    # different profile and the generators still pass
    rep = verify_entry("A_2_2_1", functions={"F_psi": "s^3 + sin(s)"}, n=50, seed=2)
    assert rep.passed, rep.max_abs


def test_function_slot_rejects_wrong_symbol():
    with pytest.raises(ValueError):
        instantiate("A_2_2_1", functions={"F_psi": "s + x"})


def test_commutator_closure_representatives():
    for entry_id in ("A_4_4", "A_2_2_2", "A_3_5_9"):
        reports = verify_commutators(entry_id, n=40, seed=1, tolerance=1e-6)
        assert reports, entry_id
        for (i, j, rep) in reports:
            assert rep.passed, (entry_id, i, j, rep.max_abs)


def test_match_fhat_finds_quadratic_family():
    # phi^2 * e^{3x} plus the matching x-profile belongs to the
    # quadratic-source family at B = 3
    fhat = "-exp(3*x)*phi^2 - (81/4)*exp(-3*x)"
    matches = match_fhat(fhat, n=40, seed=0, tolerance=1e-6)
    ids = [m["id"] for m in matches]
    assert "A_3_5_9" in ids
    m = next(m for m in matches if m["id"] == "A_3_5_9")
    assert abs(m["params"]["B"] - 3.0) < 1e-6


def test_match_fhat_rejects_generic_source():
    # a generic source admits only the one-dimensional translation algebra
    matches = match_fhat("phi^2 + sin(x)*phi^3", n=30, seed=0, tolerance=1e-6)
    assert [m["id"] for m in matches] == ["A_1"]


def test_match_fhat_no_defined_point_is_no_match():
    # At the best draw for A_3_5_5 (A ~ 517, B ~ -1057) every sample point
    # fails in exp(-B x) for all generators but the time translation; such a
    # draw must not read as a perfect fit.
    matches = match_fhat("0.716239*phi^2 + sin(1.45892*x + 0.311831)*phi^3",
                         n=10, seed=1020552622)
    assert [m["id"] for m in matches] == ["A_1"]


def test_match_fhat_needs_a_sample_point():
    with pytest.raises(ValueError):
        match_fhat("phi^2", n=0)


def test_match_fhat_one_point_tries_only_overdetermined_entries():
    # At n = 1 the generators of A_3_5_1, A_3_5_3, A_3_5_4 and A_3_8_1/2/3
    # give no more equations than the parameters they involve, so exact fits
    # pass through almost any source and those entries are not tried.  A_4_1
    # and A_4_4 are overdetermined by one equation, which one point does not
    # rule out: A_4_1 fits the first source and A_4_4 the second there, and
    # the confirmation sample rejects both fits.
    matches = match_fhat("-exp(3*x)*phi^2 - (81/4)*exp(-3*x)", n=1, seed=0)
    assert sorted(m["id"] for m in matches) == ["A_1", "A_3_5_9"]
    assert sorted(m["id"] for m in match_fhat("phi^2 + sin(x)*phi^3", n=1, seed=0)) == ["A_1"]


def test_match_fhat_is_deterministic():
    # A_3_5_1 has five parameters, so its candidates are random draws
    fhat = instantiate("A_3_5_1").fhat
    first, second = match_fhat(fhat, n=10, seed=0), match_fhat(fhat, n=10, seed=0)
    assert first == second
    assert any(m["id"] == "A_3_5_1" for m in first)


def test_match_fhat_leaves_scipy_optimize_unloaded():
    code = ("import sys; from heathsym.catalog import match_fhat; "
            "match_fhat('phi^2 + sin(x)*phi^3', n=10); "
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def _matchable():
    return [(spec, var) for spec in ENTRIES if spec.id != "A_1" and not spec.functions
            for var in spec.variant_names()]


# Co-matches each catalog source must have at its defaults (n = 10, seeds 0
# and 1).  A_3_5_1 at Delta = E = 0 and A_3_5_3 at Delta = 0 have the
# generators of A_3_5_2 and A_3_5_4, so those sources lie in both families.
CO_MATCHES = {
    ("A_3_5_2", "plus"): {("A_3_5_1", "none")},
    ("A_3_5_4", "none"): {("A_3_5_3", "none")},
}


def test_match_fhat_recall_at_defaults():
    # Each catalog source is matched to its own entry and to its recorded
    # co-matches, with every parameter that appears in a generator
    # recovered.  A parameter that appears only in the source template (A of
    # A_3_5_2/3/5/6/8/10) is not identified by the symmetry residual and is
    # left out.  Any other match must be genuine: the matched entry's
    # generators at the fitted parameters pass an independent symmetry check
    # of the source.  (The A_3_5_2 minus source lies in A_3_5_1 at A = -1/3,
    # Delta = E = 0; the random candidates reach that fit at some seeds only.)
    # Every fit lies in the candidate box [-4, 4]^k: A_3_5_3 reaches the
    # A_3_5_5 source only in a limit, with B and Delta near 2e8 at a
    # residual near 1e-8, which is not a member of the family.
    for spec, var in _matchable():
        entry = instantiate(spec.id, sign_variant="plus" if var == "none" else var)
        sym = cat._symbolic(spec.id, var, (), None)
        required = {(spec.id, var)} | CO_MATCHES.get((spec.id, var), set())
        for seed in (0, 1):
            matches = [m for m in match_fhat(entry.fhat, n=10, seed=seed) if m["id"] != "A_1"]
            got = {(m["id"], m["sign_variant"] or "none") for m in matches}
            assert required <= got, (spec.id, var, seed)
            assert all(abs(v) <= 4.0 for m in matches for v in m["params"].values()), (spec.id, var, seed)
            found = next(m for m in matches if (m["id"], m["sign_variant"] or "none") == (spec.id, var))
            for name in set().union(*(g.free_parameters() for g in sym.generators)):
                assert abs(found["params"][name] - spec.defaults[name]) < 1e-6, (spec.id, var, seed, name)
            for m in matches:
                if (m["id"], m["sign_variant"] or "none") not in required:
                    other = instantiate(m["id"], params=m["params"], sign_variant=m["sign_variant"] or "plus")
                    for g in other.generators:
                        assert check_symmetry(entry.pde(), g, n=60, seed=5).passed, (spec.id, var, seed, m)


def test_class_condition_matches_derived_condition():
    # the condition derived once for u_t = u_xx + F, given the source's
    # partials, is the condition derived for the source itself; x < 0 and
    # u < 0 reach points where sources or generators are undefined
    rng = np.random.default_rng(3)
    jet = {"x": rng.uniform(-0.4, 1.4, 60), "t": rng.uniform(-0.5, 0.5, 60),
           "u": rng.uniform(-0.5, 1.5, 60), "u_x": rng.uniform(-1, 1, 60),
           "u_xx": rng.uniform(-1, 1, 60), "u_xxx": rng.uniform(-1, 1, 60)}
    masked = 0
    for spec, var in _matchable():
        entry = instantiate(spec.id, sign_variant="plus" if var == "none" else var)
        partials = [entry.fhat] + [ex.diff(entry.fhat, v) for v in ("x", "t", "u")]
        source, _ = ex.compile_exprs(partials, ("x", "t", "u"))(jet["x"], jet["t"], jet["u"])
        values, _ = cat._class_condition(spec.id, var)(
            *(jet[k] for k in lie.CONDITION_ARGS), *source,
            *(entry.params[p] for p in spec.params))
        got, got_mask = ex.scale_residuals(values, 6)
        for i, g in enumerate(entry.generators):
            want, want_mask = ex.scaled_residual(lie.symmetry_condition_terms(entry.pde(), g), jet)
            assert np.array_equal(got_mask[i], want_mask), (spec.id, var, i)
            assert np.max(np.abs(got[i] - want), where=~want_mask, initial=0.0) <= 1e-12
            masked += int(want_mask.sum())
    assert masked > 0


def test_match_fhat_derives_no_condition_on_a_later_call(monkeypatch):
    match_fhat("phi^2 + sin(x)*phi^3", n=3, seed=0)
    calls = []
    prolong = lie._prolong

    def counting(g, u_t, u_xt):
        calls.append(g)
        return prolong(g, u_t, u_xt)

    monkeypatch.setattr(lie, "_prolong", counting)
    match_fhat("-exp(3*x)*phi^2 - (81/4)*exp(-3*x)", n=3, seed=1)
    assert calls == []
    # the counter sees every derivation of a class condition
    lie.class_condition_terms(lie.Generator.parse("1", "0", "0"))
    assert len(calls) == 1


def test_admissible_verdicts():
    # verdicts from sympy on the constraint text, at every entry's defaults
    # and at boundary points of each constraint
    sympy = pytest.importorskip("sympy")
    cases = [(spec, dict(spec.defaults)) for spec in map(get_spec, (m["id"] for m in list_entries()))]
    a41, a42, a224 = get_spec("A_4_1"), get_spec("A_4_2"), get_spec("A_2_2_4")
    cases += [
        (a41, {"A": 4.0, "B": 1.0}), (a41, {"A": 0.0, "B": 0.5}), (a41, {"A": 4.0, "B": 0.9}),
        (a42, {"A": 4.0, "B": 1.0}), (a42, {"A": 2.0, "B": 0.0}),
        (a224, {"A": 1.0, "B": 0.0, "Gamma": 0.0, "Delta": 0.0}),
        (get_spec("A_3_5_1"), {"A": 1.0, "B": -1.0, "Gamma": 1.0, "Delta": 0.3, "E": 0.2}),
        (get_spec("A_3_5_4"), {"A": -2.0, "B": 0.6}),
        (get_spec("A_3_8_2"), {"A": 0.8, "B": 0.0, "Gamma": 0.5, "Delta": 0.3}),
        (get_spec("A_4_4"), {"A": 0.0, "B": 2.0}),
    ]
    for spec, params in cases:
        for margin in (0.0, 0.05):
            want = []
            for kind, quantity, data in spec.constraints:
                v = float(sympy.sympify(quantity.replace("^", "**")).subs(params))
                ok = {"nonzero": lambda: abs(v) > margin,
                      "notin": lambda: min(abs(v - b) for b in data) > margin,
                      "pos": lambda: v > margin,
                      "neg": lambda: v < -margin}[kind]()
                if not ok:
                    want.append(_constraint_text_one(kind, quantity, data))
            assert spec.admissible(params, margin=margin) == want, (spec.id, params, margin)
        assert not spec.admissible(spec.defaults)
    assert get_spec("A_4_1").admissible({"A": 4.0, "B": 1.0}) == ["A^2 - 16*B > 0"]


def test_export_json_round_trips():
    data = json.loads(export_json())
    assert len(data) == 22
    ids = {e["id"] for e in data}
    assert "A_1" in ids and "A_4_4" in ids
    assert all("generators" in e and "constraints" in e for e in data)


def _variants(spec):
    return spec.variant_names() if spec.sign_variants else ("plus",)


def test_cached_verify_matches_instantiated_check():
    # the symbolic build with the draw as arguments gives the verdicts of a
    # derivation from the instantiated entry, at the same jet points
    rng = np.random.default_rng(4)
    for spec in ENTRIES:
        for var in _variants(spec):
            for params in ({}, spec.sample_params(rng) if spec.params else {}):
                rep = verify_entry(spec.id, params=params or None, sign_variant=var, n=30, seed=9)
                entry = instantiate(spec.id, params=params or None, sign_variant=var)
                pde = entry.pde()
                for i, (g, got) in enumerate(zip(entry.generators, rep.generator_reports)):
                    want = lie.check_symmetry(pde, g, n=30, seed=9 + i, box=entry.box)
                    assert got.passed == want.passed, (spec.id, var, params, i)
                    assert abs(got.max_abs - want.max_abs) <= 1e-12, (spec.id, var, params, i)
                    assert got.skipped_domain_errors == want.skipped_domain_errors


def test_condition_derived_once_per_generator(monkeypatch):
    calls = []
    derive = lie.symmetry_condition_terms

    def counting(pde, g):
        calls.append(g)
        return derive(pde, g)

    lie._condition.cache_clear()
    monkeypatch.setattr(lie, "symmetry_condition_terms", counting)
    first = verify_entry("A_4_4", params={"A": 1.0, "B": 2.0}, n=20, seed=0)
    second = verify_entry("A_4_4", params={"A": 0.7, "B": 1.3}, n=20, seed=0)
    assert first.passed and second.passed
    assert len(calls) == len(get_spec("A_4_4").generators)


def test_function_choices_compile_separately():
    forms = []
    for choice in ("s^3", "s^3 + sin(s)"):
        rep = verify_entry("A_2_2_1", functions={"F_psi": choice}, n=20, seed=2)
        assert rep.passed, (choice, rep.max_abs)
        sym = cat._resolve("A_2_2_1", None, {"F_psi": choice}, "plus", None)[3]
        forms.append(lie._condition(sym.pde, sym.generators[1])[0])
    assert forms[0] is not forms[1]


# (literal id, variant where the correction matters, generators that fail
# there, the worst of them); verify_entry at n = 100, seed 0, defaults
NEGATIVE_CONTROLS = [
    ("A_3_5_2:literal", "minus", [1, 2], 2),
    ("A_3_5_4:literal", "plus", [1, 2], 2),
    ("A_3_5_8:literal", "minus", [1, 2], 2),
    ("A_3_5_10:literal", "plus", [2], 2),
    ("A_4_3:literal", "minus", [3], 3),
    ("A_2_2_2:literal", "plus", [1], 1),
    ("A_3_5_3:literal", "plus", [1, 2], 2),
]


@pytest.mark.parametrize("literal_id, variant, failing, worst", NEGATIVE_CONTROLS)
def test_literal_reading_fails(literal_id, variant, failing, worst):
    corrected = literal_id.split(":")[0]
    rep = verify_entry(literal_id, sign_variant=variant, n=100, seed=0)
    assert not rep.passed
    assert [i for i, r in enumerate(rep.generator_reports) if not r.passed] == failing
    assert rep.generator_reports[worst].max_abs >= 0.1
    assert rep.generator_reports[worst].max_abs == rep.max_abs
    for var in _variants(get_spec(literal_id)):
        assert verify_entry(corrected, sign_variant=var, n=100, seed=0).passed, (corrected, var)
        if var != variant and get_spec(literal_id).sign_variants:
            # the literal reading differs only where the correction matters
            assert verify_entry(literal_id, sign_variant=var, n=100, seed=0).passed


def test_literal_readings_stay_out_of_the_catalog():
    ids = {spec.id for spec in LITERAL_READINGS}
    assert {e["id"] for e in list_entries()}.isdisjoint(ids)
    assert {e["id"] for e in json.loads(export_json())}.isdisjoint(ids)
    assert all(get_spec(i).id == i for i in ids)


def test_literal_and_corrected_share_no_compiled_form():
    # a compiled form is shared only where the condition is the same
    # expression, so never for a generator whose check the literal reading fails
    for literal_id, variant, failing, _ in NEGATIVE_CONTROLS:
        lit = cat._resolve(literal_id, None, None, variant, None)[3]
        cor = cat._resolve(literal_id.split(":")[0], None, None, variant, None)[3]
        for i, (g_lit, g_cor) in enumerate(zip(lit.generators, cor.generators)):
            same = lit.pde == cor.pde and g_lit == g_cor
            shared = lie._condition(lit.pde, g_lit)[0] is lie._condition(cor.pde, g_cor)[0]
            assert shared == same, (literal_id, i)
            assert not (shared and i in failing), (literal_id, i)
