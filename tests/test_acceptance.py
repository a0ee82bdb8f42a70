"""Go/no-go gate: one test per batch criterion, in batch order.

Each test prints a single [PASS]/[FAIL] line (visible under pytest -s or
on failure) and asserts the criterion result, plus the frozen regression
anchors where the criterion carries them.
"""

from nilbloch import acceptance as ac


def _check(func):
    result = ac._run_one(func)
    print(f"[{'PASS' if result.passed else 'FAIL'}] {result.name}")
    assert result.passed, result.details
    return result


def test_01_vanishing_full_truncations():
    result = _check(ac.vanishing_full_truncations)
    assert len(result.details["cases"]) == 12


def test_02_homotopy_identity_scan():
    result = _check(ac.homotopy_identity_scan)
    assert result.details["basis_forms"] >= 60


def test_03_dual_numbers_value():
    result = _check(ac.dual_numbers_value)
    assert result.details["got"] == result.details["want"]


def test_04_key_identity_range():
    result = _check(ac.key_identity_range)
    assert result.details["primitive_1_1"]


def test_05_filtration_window():
    result = _check(ac.filtration_window)
    assert all(s["certified"] for s in result.details["strictness"])


def test_06_steinberg_random():
    result = _check(ac.steinberg_random)
    assert result.details["instances"] == 50


def test_07_slot_independence():
    result = _check(ac.slot_independence)
    assert result.details["instances"] == 100


def test_08_bloch_span():
    result = _check(ac.bloch_span)
    dims = {(c["N"], c["m"], c["n"]): c["dim"] for c in result.details["cases"]}
    assert dims[(3, 1, 0)] == 2 and dims[(3, 2, 1)] == 3


def test_09_gap_example():
    result = _check(ac.gap_example)
    rep = result.details["report"]
    assert (rep["mu"], rep["tau"], rep["gap"]) == (ac.CURVE_MU, ac.CURVE_TAU, 1)


def test_10_substitution_isomorphism():
    _check(ac.substitution_isomorphism)


def test_11_sequence_additivity():
    result = _check(ac.sequence_additivity)
    nested = [c for c in result.details["cases"] if c["kind"] == "jacobian"]
    assert nested and nested[0]["correction"] == ac.CURVE_NESTED["correction"]


def test_12_engine_agreement():
    result = _check(ac.engine_agreement)
    assert len(result.details["cases"]) == 16
    assert all(c["dims_agree"] and c["verdicts_agree"]
               for c in result.details["cases"])


def test_batch_runner_matches_order():
    names = [f.__name__ for f in ac.CRITERIA]
    assert names == [
        "vanishing_full_truncations", "homotopy_identity_scan",
        "dual_numbers_value", "key_identity_range", "filtration_window",
        "steinberg_random", "slot_independence", "bloch_span", "gap_example",
        "substitution_isomorphism", "sequence_additivity", "engine_agreement"]


def test_filtration_scan_rechecks_the_witness(monkeypatch):
    rows, strict, ok = ac.filtration_scan(4)
    assert ok and strict["found"] and len(rows) == 7
    real = ac.ks.filtration_strictness_witness

    def misprinted(p):
        wit = real(p)
        wit["rep"] = "a*t*dt"       # not the class the certificate is for
        return wit

    monkeypatch.setattr(ac.ks, "filtration_strictness_witness", misprinted)
    rows, strict, ok = ac.filtration_scan(4)
    assert not ok and strict["found"] is False
    assert (strict["i"], strict["j"]) == (1, 2)


def test_filtration_scan_given_pairs_skips_the_witness():
    rows, strict, ok = ac.filtration_scan(5, [(2, 3)])
    assert ok and strict is None
    assert [(r["i"], r["j"], r["vanishes"]) for r in rows] == [(2, 3, True)]
    assert ac.filtration_scan(2)[1] is None


def test_steinberg_scan_is_seeded():
    rows, ok = ac.steinberg_scan(3, 4)
    assert ok and len(rows) == 4 and all(r["zero"] for r in rows)
    assert ac.steinberg_scan(3, 4)[0] == rows
