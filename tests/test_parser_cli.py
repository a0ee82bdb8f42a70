import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilbloch import cli, parser
from nilbloch.algebra import MAX_RINGS, Algebra
from nilbloch.forms import d, form_of_element, form_str
from nilbloch.ksymbols import bloch, dlog_symbol
from nilbloch.parser import (MAX_DEPTH, MAX_POWER_BITS, algebra_from_json, algebra_to_json,
                             degree_bound, parse_element, parse_form, parse_symbol_sum,
                             polynomial_terms)
from test_forms import FORM_ALGEBRAS

R3 = Algebra(1, 3)
PAR = Algebra(1, 3, params=[("a", False), ("b", True)])


def test_polynomial_terms_infers_width(capsys):
    assert polynomial_terms("t1^4+t1^2*t2^3+t2^5") == {
        (4, 0): Fraction(1), (2, 3): Fraction(1), (0, 5): Fraction(1)}
    assert polynomial_terms("t^3 - 2*t") == {(3,): Fraction(1),
                                             (1,): Fraction(-2)}
    assert polynomial_terms("t2^2", m=3) == {(0, 2, 0): Fraction(1)}
    # with one nilpotent, t1 names t
    assert polynomial_terms("t1^2") == {(2,): 1}
    assert polynomial_terms("t^2+t1", 1, 4) == {(2,): 1, (1,): 1}
    code, out, _ = run_cli(capsys, ["cohom", "--m", "1", "--N", "4", "--ideal", "t1^3"])
    assert code == 0 and json.loads(out)["algebra"]["ideal"] == ["t^3"]
    # a constant divisor of the truncated algebra is a unit
    assert polynomial_terms("1/(t-t+1)") == {(0,): 1}
    assert polynomial_terms("3/2*t") == {(1,): Fraction(3, 2)}


def test_polynomial_terms_rejects():
    with pytest.raises(ValueError, match="exp/log not allowed"):
        polynomial_terms("exp(t)")
    with pytest.raises(ValueError, match="unknown variable"):
        polynomial_terms("t3^2", m=2)
    with pytest.raises(ValueError, match="no nilpotent variables"):
        polynomial_terms("3")
    for text, bound in [("1/(1+t)", None), ("1/t^3", 3)]:
        with pytest.raises(ValueError, match="division by non-unit"):
            polynomial_terms(text, 1, bound)
    for text in ("(1+t)^-1", "2^-1*t"):
        with pytest.raises(ValueError, match="negative exponent"):
            polynomial_terms(text)
    with pytest.raises(ValueError, match="duplicate variable name 't1'"):
        Algebra(1, 3, params=[("t1", False)])


def _memo_delta(call):
    """(hits, misses) that call() adds to the polynomial_terms memo."""
    before = parser._polynomial_terms.cache_info()
    call()
    after = parser._polynomial_terms.cache_info()
    return after.hits - before.hits, after.misses - before.misses


def test_polynomial_terms_memo_hands_out_fresh_dicts():
    first = polynomial_terms("t1^3 - 2*t1*t2", 2, 5)
    first[(0, 0)] = 7
    assert _memo_delta(lambda: polynomial_terms("t1^3 - 2*t1*t2", m=2, bound=5)) == (1, 0)
    again = polynomial_terms("t1^3 - 2*t1*t2", 2, 5)
    assert again == {(3, 0): 1, (1, 1): -2}
    assert again is not polynomial_terms("t1^3 - 2*t1*t2", 2, 5)


def test_polynomial_terms_memo_keeps_no_errors():
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            polynomial_terms("t3^2", m=2)
        messages.append(str(err.value))
    assert messages == ["unknown variable 't3'"] * 2
    assert _memo_delta(lambda: pytest.raises(ValueError, polynomial_terms, "t3^2", 2)) == (0, 1)


def test_algebra_from_json_repeat_evaluates_nothing():
    spec = {"nilpotents": 2, "bound": 6, "ideal": ["t1^3+t2^4", "t1*t2^2"]}
    ring = algebra_from_json(spec)
    again = []
    assert _memo_delta(lambda: again.append(algebra_from_json(dict(spec)))) == (2, 0)
    assert again[0] is ring


def test_polynomial_terms_memo_is_bounded():
    for k in range(MAX_RINGS + 5):
        polynomial_terms(f"t^2 + {k + 2}*t", 1, 9)
    info = parser._polynomial_terms.cache_info()
    assert info.maxsize == MAX_RINGS and info.currsize <= MAX_RINGS


def test_polynomial_terms_memo_hit_records_one_parse_span(monkeypatch):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.layers = {"parser.parse": tracer.layers["parser.parse"]}
    # install() patches for good: record each binding it replaces, for undoing
    originals = [getattr(owner, attr) for owner, attr in tracer.layers["parser.parse"]]
    for name, mod in list(sys.modules.items()):
        if name == "nilbloch" or name.startswith("nilbloch."):
            for key, value in list(vars(mod).items()):
                if any(value is fn for fn in originals):
                    monkeypatch.setattr(mod, key, value)
    from nilbloch.linalg import RowSpace
    monkeypatch.setattr(RowSpace, "__init__", RowSpace.__init__)
    tracer.install()
    parser.polynomial_terms("t1^5+t2^2*t1", 2, 7)
    assert _memo_delta(lambda: parser.polynomial_terms("t1^5+t2^2*t1", 2, 7)) == (1, 0)
    assert list(tracer.kind) == [0, 0]      # one parser.parse span per call, the hit too


def test_parse_element_basics():
    u = parse_element("1+a*t", PAR)
    assert u == PAR.one() + PAR.var("a") * PAR.nil(0)
    v = parse_element("(1+t)^2 - 2*t", R3)
    assert v == R3.one() + R3.nil(0) ** 2
    w = parse_element("b^-1", PAR)
    assert w * PAR.var("b") == PAR.one()
    assert parse_element("-t/2", R3) == R3.const(Fraction(-1, 2)) * R3.nil(0)


def test_parse_element_exp_log():
    assert parse_element("exp(t)", R3) == R3.exp_nil(R3.nil(0))
    t = R3.nil(0)
    assert parse_element("log(1+t)", R3) == t - t * t / 2
    with pytest.raises(ValueError, match="negative exponent"):
        parse_element("t^-1", R3)


def test_syntax_errors_carry_position():
    with pytest.raises(ValueError, match=r"syntax error at 1:5"):
        parse_element("1+a*", PAR)
    with pytest.raises(ValueError, match=r"syntax error at 1:3"):
        parse_element("t $ t", R3)


@pytest.mark.parametrize("text, message", [
    ("1+\n 2*$", "syntax error at 2:4"),
    ("1+\n\n  (3", "syntax error at 3:5"),
    ("1+\n 2 3", "syntax error at 2:4"),
    ("(t\n", "syntax error at 2:1"),
    ("1+\n\t1/0", "division by zero at 2:4"),
    ("\n  " + "(" * (MAX_DEPTH + 1) + "t" + ")" * (MAX_DEPTH + 1),
     f"nested too deeply at 2:{MAX_DEPTH + 3}"),
], ids=["bad_char", "open_paren", "leftover", "trailing_newline", "zero_denominator", "depth"])
def test_error_positions_count_lines(text, message):
    with pytest.raises(ValueError, match=message):
        parse_element(text, R3)


def test_element_print_parse_round_trip():
    for text in ["1+a*t", "b^-1*t^2-3", "a^2*b^-2*t+1/2"]:
        u = parse_element(text, PAR)
        assert parse_element(str(u), PAR) == u


def test_symbol_sum_round_trip():
    s = parse_symbol_sum("{1+a*t^2, b}", PAR)
    assert s.arity == 2
    assert parse_symbol_sum(str(s), PAR).terms == s.terms
    z = parse_symbol_sum("2*{1+t, b} - {1+t, b^2}", PAR)
    assert len(z.terms) == 2
    assert parse_symbol_sum(str(z), PAR).terms == z.terms
    assert bloch(z).rep == bloch(parse_symbol_sum(str(z), PAR)).rep


def test_symbol_sum_arity_and_zero_multiplicity():
    with pytest.raises(ValueError, match="arity mismatch"):
        parse_symbol_sum("{1+t, b} + {1+t, b, b}", PAR)
    with pytest.raises(ValueError, match="arity mismatch"):
        parse_symbol_sum("0*{1+t, b, b} + {1+t, b}", PAR)
    with pytest.raises(ValueError, match="not a unit"):
        parse_symbol_sum("{1+t, b} + 0*{t, b}", PAR)
    assert parse_symbol_sum("0*{1+t, b}", PAR).terms == ()


def test_parse_form_matches_exterior_derivative():
    w = parse_form("1*dt - t*dt", R3)
    assert w == d(form_of_element(parse_element("t - t^2/2", R3)))
    assert parse_form("1 * 1 * dt", R3) == parse_form("dt", R3)


def test_parse_form_orders_differentials_with_sign():
    a = parse_form("t*da∧db", PAR)
    b = parse_form("-t*db∧da", PAR)
    assert a == b
    assert parse_form(form_str(a), PAR) == a


def test_parse_form_rejects():
    with pytest.raises(ValueError, match="repeated differential"):
        parse_form("t*da∧da", PAR)
    with pytest.raises(ValueError, match="coefficient after differential"):
        parse_form("dt*t", R3)
    with pytest.raises(ValueError, match="mixed form degrees"):
        parse_form("dt + t*da∧db", PAR)


def test_parse_form_coefficient_error_comes_before_misplaced_differential():
    with pytest.raises(ValueError, match="negative exponent on non-invertible"):
        parse_form("t^-1*dt*t", R3)
    with pytest.raises(ValueError, match="unknown variable 'x'"):
        parse_form("x*dt*t", R3)
    with pytest.raises(ValueError, match="unknown variable 'x'"):
        parse_form("t*x*dt∧dt", R3)       # before the repeated differential, too


def _factorwise_form(text, A):
    """The Form of text with each coefficient multiplied out one factor at a time."""
    from nilbloch.forms import Form
    from nilbloch.linalg import vec_iadd
    from nilbloch.parser import _differential_index, _parse, _Parser, to_elem
    terms, degree = {}, 0
    for sign, (factors, tail) in _parse(text, _Parser.form_sum):
        elem, idxs = A.one(), []
        for node in factors + tail:
            idx = _differential_index(A, node[1]) if node[0] == "var" else None
            if idx is not None:
                idxs.append(idx)
            else:
                elem = elem * to_elem(node, A)
        inversions = sum(i > j for k, i in enumerate(idxs) for j in idxs[k + 1:])
        degree = len(idxs)
        part = sign * (-1) ** inversions * elem
        vec_iadd(terms, {(mono, tuple(sorted(idxs))): c for mono, c in part.terms.items()})
    return Form(A, degree, terms)


@pytest.mark.parametrize("A, pool", [
    (Algebra(2, 4), ["t1", "t2", "t1^2", "t2^3", "2", "3/2", "(1+t1)", "(t1-t2/3)^2"]),
    (Algebra(2, 4, ideal=[{(2, 0): 1, (0, 2): -1}]),
     ["t1", "t2", "t1^2", "t2^2", "5/7", "(1-t2)", "(2+t1*t2)^-1"]),
    (Algebra(2, 4, params=[("a", True), ("b", False)]),
     ["t1", "t2^2", "a", "a^-1", "a^-2", "b", "b^2", "4/3", "(a+b)", "(a-t1)^-1", "a^0"]),
], ids=["monomial", "non_monomial", "parametric"])
def test_parse_form_folds_like_factorwise_product(A, pool):
    import random
    rng = random.Random(25)
    diffs = [f"d{n}" for n in A.nil_names + tuple(p.name for p in A.params)]
    for _ in range(40):
        degree = rng.randint(0, 2)
        terms = []
        for _ in range(rng.randint(1, 4)):
            word = rng.sample(diffs, degree)
            head = "*".join(rng.choices(pool, k=rng.randint(0, 3)) + word[:1]) or "1"
            terms.append((rng.choice(["+ ", "- "]), "∧".join([head] + word[1:])))
        text = " ".join(s + t for s, t in terms)
        assert parse_form(text, A) == _factorwise_form(text, A), text


def _per_term_form(text, A):
    """The Form of text with each term's coefficient evaluated by to_elem, a monomial
    included (normalized in A before the terms are summed)."""
    from nilbloch.forms import Form
    from nilbloch.linalg import vec_iadd
    from nilbloch.parser import _differential_index, _parse, _Parser, to_elem
    terms, degree = {}, 0
    for sign, (factors, tail) in _parse(text, _Parser.form_sum):
        coeff, idxs = [("num", sign)], []
        for node in factors + tail:
            idx = _differential_index(A, node[1]) if node[0] == "var" else None
            (idxs.append(idx) if idx is not None else coeff.append(node))
        inversions = sum(i > j for k, i in enumerate(idxs) for j in idxs[k + 1:])
        degree = len(idxs)
        part = to_elem(("prod", coeff), A).terms
        vec_iadd(terms, {(mono, tuple(sorted(idxs))): c for mono, c in part.items()},
                 (-1) ** inversions)
    return Form(A, degree, terms)


@pytest.mark.parametrize("name", sorted(FORM_ALGEBRAS))
def test_parse_form_matches_per_term_path(name):
    """A monomial coefficient goes into the raw terms as it is and Form normalizes each
    word once: the same form as normalizing every term."""
    import random
    A = FORM_ALGEBRAS[name]()
    rng = random.Random(29)
    names = list(A.nil_names) + [p.name for p in A.params]
    pool = names + [f"{v}^{k}" for v in A.nil_names for k in (2, 3, 4)] + [
        "2", "3/2", "1/3", "0", "(1+t1)", "(t1-t2/3)^2", "(2+t1*t2)^-1"]
    pool += ["a^2", "b^-1", "(a+b)"] if A.params else []
    diffs = [f"d{n}" for n in names]
    for _ in range(60):
        degree = rng.randint(0, 2)
        terms = []
        for _ in range(rng.randint(1, 4)):
            word = rng.sample(diffs, degree)
            head = "*".join(rng.choices(pool, k=rng.randint(0, 3)) + word[:1]) or "1"
            terms.append((rng.choice(["+ ", "- "]), "∧".join([head] + word[1:])))
        text = " ".join(s + t for s, t in terms)
        assert parse_form(text, A) == _per_term_form(text, A), text


@pytest.mark.parametrize("text", ["t1*dt2 garbage", "t1*dt2 )"])
def test_parse_form_refuses_trailing_input(text):
    with pytest.raises(ValueError, match="syntax error at 1:8"):
        parse_form(text, Algebra(2, 4))


def test_form_round_trip_through_printer():
    s = parse_symbol_sum("{1+a*t, b}", PAR)
    w = dlog_symbol(s)
    assert parse_form(form_str(w), PAR) == w


def test_algebra_json_round_trip():
    A = Algebra(2, 4, params=[("a", False), ("b", True)],
                ideal=[{(1, 1): Fraction(1)}])
    B = algebra_from_json(algebra_to_json(A))
    assert B.describe() == A.describe()
    assert json.dumps(algebra_to_json(A))  # JSON-serializable as-is


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_cohom_all_zero(capsys):
    code, out, _ = run_cli(capsys, ["cohom", "--m", "1", "--N", "4"])
    data = json.loads(out)
    assert code == 0
    assert data["all_zero"] is True
    assert data["command"] == "cohom"


def test_cli_cohom_power_relative(capsys):
    code, out, _ = run_cli(
        capsys, ["cohom", "--m", "1", "--N", "4", "--relative", "power:3"])
    data = json.loads(out)
    assert code == 0
    assert data["all_zero"] is True


def test_cli_cohom_nonzero_for_curve_ring(capsys):
    code, out, _ = run_cli(
        capsys, ["cohom", "--m", "2", "--N", "7",
                 "--ideal", "t1^4+t1^2*t2^3+t2^5"])
    data = json.loads(out)
    assert code == 0
    assert data["all_zero"] is False
    h1 = [r["dim_h"] for r in data["rows"] if r["degree"] == 1]
    assert h1 == [1]


def test_cli_bloch_assert_zero_exit_codes(capsys):
    argv = ["bloch", "--m", "1", "--N", "3", "--symbol"]
    code, out, _ = run_cli(capsys, argv + ["{t+2, -t-1} - {2, -1}",
                                           "--assert-zero"])
    assert code == 0
    assert json.loads(out)["zero"] is True
    code, out, _ = run_cli(capsys, argv + ["{1+t}", "--assert-zero"])
    assert code == 1
    assert json.loads(out)["zero"] is False


def test_cli_bloch_huge_exponent_returns_quickly():
    import nilbloch
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilbloch.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "nilbloch", "bloch", "--m", "1", "--N", "4",
         "--symbol", "{1+t^30000000, 2}"],
        env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["zero"] is True


def test_cli_cohom_huge_ideal_exponent_returns_quickly():
    import nilbloch
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilbloch.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "nilbloch", "cohom", "--m", "1", "--N", "3",
         "--ideal", "t^30000000"],
        env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_zero"] is True


def test_cli_dense_ideal_power_is_truncated_while_parsed():
    import nilbloch
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilbloch.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    base = [sys.executable, "-m", "nilbloch", "cohom", "--N", "3"]
    proc = subprocess.run(base + ["--m", "1", "--ideal", "(1+t)^200000"],
                          env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and "degree-zero" in proc.stderr
    proc = subprocess.run(base + ["--m", "2", "--ideal", "t1*(1+t2)^200000",
                                  "--relative", "explicit:t2*(1-t1)^200000"],
                          env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["algebra"]["ideal"] == ["200000*t1*t2+t1"]


def test_cli_jacobian_of_is_truncated_while_parsed():
    import nilbloch
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilbloch.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    base = [sys.executable, "-m", "nilbloch", "verify-sequence", "--bound", "4"]
    proc = subprocess.run(base + ["--jacobian-of", "(1+t1+t2)^2000"],
                          env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and "degree-zero" in proc.stderr
    # every term dies at the bound, so m comes from the names, not a term
    proc = subprocess.run(base + ["--jacobian-of", "t1^9+t2^9"],
                          env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["reports"][0]
    assert report["algebra"]["nilpotents"] == 2 and report["passed"] is True


def test_cli_bloch_high_arity_returns_quickly(tmp_path):
    import nilbloch
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilbloch.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    spec = tmp_path / "alg.json"
    spec.write_text(json.dumps({"nilpotents": 1, "bound": 3,
                                "params": [{"name": "b", "invertible": True}]}))
    # 22 slots would be 2^22 sub-tensors; Omega^21 is 0 in both algebras
    for entry, flags in (("1+t", []), ("2", []), ("b+b*t", ["--algebra", str(spec)])):
        proc = subprocess.run(
            [sys.executable, "-m", "nilbloch", "bloch", "--m", "1", "--N", "3",
             "--symbol", "{" + ",".join([entry] * 22) + "}"] + flags,
            env=env, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert (data["degree"], data["zero"]) == (21, True)


def test_cli_oversized_algebra_exits_two():
    import nilbloch
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilbloch.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for args in (["cohom", "--m", "9", "--N", "9"], ["cohom", "--m", "20", "--N", "20"],
                 ["bloch", "--m", "20", "--N", "20", "--symbol", "{2,3}"]):
        proc = subprocess.run([sys.executable, "-m", "nilbloch"] + args,
                              env=env, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2, proc.stderr
        assert "above the limit 2000000" in proc.stderr


def test_cli_table_and_whole_block_budgets_exit_two(capsys, tmp_path):
    from math import comb
    from nilbloch.derham import MAX_TABLE_ROWS
    from nilbloch.forms import MAX_WHOLE_COORDS
    spec = tmp_path / "A.json"
    spec.write_text(json.dumps({"nilpotents": 2, "bound": 4, "params": [
        {"name": "a", "invertible": False}, {"name": "b", "invertible": True}]}))
    # m = 8, N = 8: 6435 nilpotent monomials; the first degree over the limit is named.
    # The gap curve gives R/I the weight w' = (0, 0, 1, ..., 1), so its table is solved;
    # t1^7+t2^7 has w = (1, ..., 1) and 6434 monomials, and its counted dims sum blocks.
    whole = next(c for c in (comb(8, n) * 6435 for n in range(9)) if c > MAX_WHOLE_COORDS)
    gap = "explicit:t1^4+t1^2*t2^3+t2^5"
    for argv, count, limit in [
            (["--algebra", str(spec), "--param-bound", "300"], 5 * 601 * 301, MAX_TABLE_ROWS),
            (["--m", "8", "--N", "8", "--relative", gap], whole, MAX_WHOLE_COORDS),
            (["--m", "8", "--N", "8", "--ideal", "t1^7+t2^7"], comb(8, 4) * 6434,
             MAX_WHOLE_COORDS)]:
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, ["cohom"] + argv)
        assert time.perf_counter() - t0 < 1
        assert code == 2 and not out
        assert f"has {count} " in err and f"above the limit {limit}" in err


def test_cli_budget_message_names_the_ideal(capsys):
    """An acyclic EXPLICIT table over a monomial algebra checks only R/I, so the
    message must say that the count is of R/I's ideal, not of the given algebra."""
    from math import comb
    code, out, err = run_cli(capsys, ["cohom", "--m", "8", "--N", "8", "--relative",
                                      "explicit:t1^7+t2^7"])
    assert code == 2 and not out
    assert (f"degree 4 of m = 8, N = 8 with ideal (t1^7+t2^7) has {comb(8, 4) * 6434} "
            "coordinates") in err
    # an algebra without an ideal names none
    code, _, err = run_cli(capsys, ["cohom", "--m", "8", "--N", "8", "--relative",
                                    "explicit:t1^4+t1^2*t2^3+t2^5"])
    assert code == 2 and f"degree 4 of m = 8, N = 8 has {comb(8, 4) * 6435} " in err


def test_cli_counted_explicit_table_needs_no_budget(capsys):
    """w' = (1, ..., 1) for explicit:t1: counted, with no kernel of the 1.65M coordinates."""
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, ["cohom", "--m", "8", "--N", "8", "--relative", "explicit:t1"])
    assert time.perf_counter() - t0 < 1
    data = json.loads(out)
    assert code == 0 and data["all_zero"] is True
    assert all(r["dim_h"] == 0 for r in data["rows"]) and data["rows"][1]["dim"] > 0


def test_cli_singular_poly_degree_budget():
    import nilbloch
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilbloch.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    base = [sys.executable, "-m", "nilbloch", "singular", "--poly", "(1+t1+t2)^3000"]
    proc = subprocess.run(base, env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and not proc.stdout
    assert "raise --N-max to at least 3002" in proc.stderr
    proc = subprocess.run(base[:-1] + ["t^23"], env=env, capture_output=True, text=True,
                          timeout=10)
    assert proc.returncode == 2 and "--N-max" in proc.stderr


def test_singular_refuses_exp_log_before_the_degree_budget(capsys):
    # raising --N-max would not help: the polynomial check comes first
    code, out, err = run_cli(capsys, ["singular", "--poly", "exp(t1^30)"])
    assert code == 2 and not out and "exp/log not allowed in polynomials" in err
    with pytest.raises(ValueError, match="exp/log not allowed"):
        degree_bound("t + log(1+t)")


def test_degree_bound_covers_every_parsed_degree():
    for text, bound in [("t1^4+t1^2*t2^3+t2^5", 5), ("(1+t1+t2)^3000", 3000),
                        ("3/2*t1^2*t2 - (t2)^2", 3), ("(t1*(1+t2)^3)^0 + t2", 4),
                        ("7", 0), ("-t/2", 1), ("(t-t)^5", 5)]:
        assert degree_bound(text) == bound, text
    for text in ("(1+t1-2*t2)^5*(t2-t1)", "t1^4*t2 + t2^3", "(t1*t2)^2 + t1"):
        assert max(map(sum, polynomial_terms(text, 2))) <= degree_bound(text)


def test_unbounded_text_evaluates_past_a_cancelled_bound(capsys):
    """Without a bound, a text whose _walk bound names a ring over the forms budget is
    evaluated in one past the degree its nonzero terms reach."""
    squares = "+t1^2+t2^2+t3^2+t4^2+t5^2+t6^2"
    code, out, _ = run_cli(capsys, ["singular", "--poly", "(t1-t1)^20" + squares])
    data = json.loads(out)
    assert code == 0 and data["f"] == squares[1:]
    assert (data["mu"], data["tau"], data["h_dim"], data["N_used"]) == (1, 1, 0, 4)
    want = polynomial_terms(squares[1:])
    for zero in ("(t1-t1)^20", "0*(t1+t2+t3+t4+t5+t6)^20", "(t1^2-t1^2)^15",
                 "(t1+t2+t3+t4+t5+t6)^0*(t6-t6+1)^20-1"):
        assert polynomial_terms(zero + squares) == want, zero
    assert polynomial_terms("(t6-t6+1/(2-t1+t1))^30*t1^2" + squares) == {
        **want, (2, 0, 0, 0, 0, 0): Fraction(2 ** 30 + 1, 2 ** 30)}
    # a true degree past the budget still names it, as does m past it at once
    for text, msg in (("(1+t1+t2)^3000", "m = 2, N = 3001 have 18018004"),
                      ("(t1-t1)^40+(t1+t6)^20", "m = 6, N = 21 have 14734720"),
                      ("0*(1/(1+t1^30))+t6^2", "m = 6, N = 31"),
                      ("t21^2", r"m = 21, N = 3 have over 2\^21")):
        with pytest.raises(ValueError, match=msg):
            polynomial_terms(text)


def test_unbounded_refinement_interns_only_the_evaluation_ring(fresh_rings):
    """The probe ring that finds the degree of a cancelled text takes no slot in the
    ring table: only the ring the text is evaluated in is left there."""
    from nilbloch.algebra import _RINGS
    parser._polynomial_terms.cache_clear()      # a memo hit would build no ring at all
    terms = polynomial_terms("(t1-t1)^20+t1^2+t2^2+t3^2+t4^2+t5^2+t6^2")
    assert terms == {tuple(2 * (v == i) for v in range(6)): 1 for i in range(6)}
    assert [(A.m, A.N) for A in _RINGS.values()] == [(6, 3)]


def test_polynomial_terms_bound_drops_high_degrees():
    assert polynomial_terms("(1+t)^200000", 1, 3) == {
        (0,): 1, (1,): 200000, (2,): 200000 * 199999 // 2}
    for text in ("(1+t1-2*t2)^5*(t2-t1)", "3/2*t1^2*t2 - t2", "t1^4", "(t1*t2)^2 + t1"):
        full = polynomial_terms(text, 2)
        for bound in range(1, 7):
            assert polynomial_terms(text, 2, bound) == {
                e: c for e, c in full.items() if sum(e) < bound}, (text, bound)


def test_huge_numeric_powers_exit_two(capsys):
    # refused from the exponent and the coefficient's bit length, before the power is formed
    for argv in (["cohom", "--m", "1", "--N", "3", "--ideal", "2^400000000*t"],
                 ["bloch", "--m", "1", "--N", "3", "--symbol", "{2^99999999, 1+t}"],
                 ["singular", "--poly", "2^99999999*t1^2+t2^2"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and not out and f"above the limit {MAX_POWER_BITS}" in err, argv
    assert polynomial_terms("(3/2)^40*t") == {(1,): Fraction(3, 2) ** 40}


def test_cli_long_symbol_sum_returns_quickly(capsys):
    import nilbloch
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilbloch.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "nilbloch", "bloch", "--m", "1", "--N", "3",
         "--symbol", " + ".join(["{1+t, 2}"] * 3000)],
        env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run_cli(capsys, ["bloch", "--m", "1", "--N", "3",
                                    "--symbol", "3000*{1+t, 2}"])
    assert code == 0
    assert json.loads(proc.stdout)["class"] == json.loads(out)["class"]


def test_polynomial_powers_match_repeated_products():
    for text in ("1+t1-2*t2", "3/2*t1^2*t2 - t2", "t1"):
        for e in range(7):
            want = polynomial_terms("*".join([f"({text})"] * e) or "1", 2)
            assert polynomial_terms(f"({text})^{e}", 2) == want, (text, e)
    assert polynomial_terms("(t-t)^5") == {}


def test_cli_zero_denominator_exits_two(capsys):
    code, out, err = run_cli(capsys, ["bloch", "--m", "1", "--N", "3",
                                      "--symbol", "{1+t, 1/0}"])
    assert code == 2 and not out and "division by zero at 1:9" in err


@pytest.mark.parametrize("argv, message", [
    (["--m", "1", "--N", "3", "--relative", "power:0"], "power:k needs k >= 1, not 0"),
    (["--m", "1", "--N", "3", "--relative", "power:99"], "power:99 needs k <= N = 3"),
    (["--m", "2", "--N", "3", "--relative", "power:2"], "power:k needs m = 1, not m = 2"),
    (["--m", "1", "--N", "4", "--ideal", "t^2+t^3", "--relative", "power:2"],
     "power:k needs a monomial ideal"),
    (["--relative", "explicit:t"], "explicit generators need an algebra without parameters"),
], ids=["k_zero", "k_above_N", "two_nilpotents", "non_monomial", "explicit_parametric"])
def test_cli_relative_spec_faults_exit_two(capsys, tmp_path, argv, message):
    spec = tmp_path / "alg.json"
    spec.write_text(json.dumps({"nilpotents": 1, "bound": 3, "params": [{"name": "a"}]}))
    if "--m" not in argv:
        argv = ["--algebra", str(spec)] + argv
    code, out, err = run_cli(capsys, ["cohom"] + argv)
    assert code == 2 and not out
    assert err == f"error: invalid relative spec: {message}\n"


def test_cli_param_without_name_exits_two(capsys, tmp_path):
    spec = tmp_path / "alg.json"
    spec.write_text(json.dumps({"nilpotents": 1, "bound": 3,
                                "params": [{"invertible": True}]}))
    code, out, err = run_cli(capsys, ["cohom", "--algebra", str(spec)])
    assert code == 2 and not out and "'name'" in err


def test_cli_deep_nesting_exits_two(capsys):
    deep = "(" * 3000 + "1+t" + ")" * 3000
    code, out, err = run_cli(capsys, ["bloch", "--m", "1", "--N", "3",
                                      "--symbol", "{" + deep + ", 2}"])
    assert code == 2 and not out and "nested too deeply" in err
    ok = "(" * (MAX_DEPTH - 1) + "1+t" + ")" * (MAX_DEPTH - 1)
    assert parse_element(ok, R3) == parse_element("1+t", R3)


def test_cli_usage_errors_exit_two(capsys):
    code, out, err = run_cli(capsys, ["bloch", "--m", "1", "--N", "3",
                                      "--symbol", "{1+t,"])
    assert code == 2 and not out and "syntax error" in err
    code, _, err = run_cli(capsys, ["cohom", "--N", "4"])
    assert code == 2 and "underspecified" in err
    for argv in [["verify-filtration", "--p", "4", "--i", "1"],
                 ["verify-filtration", "--p", "4", "--j", "2"]]:
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and not out and "--i and --j" in err, argv


def test_cli_verify_commands_pass(capsys):
    for argv in [["verify-homotopy", "--N", "4", "--max-degree", "2"],
                 ["verify-key-identity", "--i", "1", "--j", "2"],
                 ["verify-sigma", "--N", "5"],
                 ["verify-sequence", "--N", "5", "--degree", "0"],
                 ["verify-steinberg", "--count", "5", "--seed", "3"],
                 ["verify-filtration", "--p", "4"],
                 ["verify-sequence", "--jacobian-of", "t1^4+t1^2*t2^3+t2^5",
                  "--bound", "6", "--degree", "1"]]:
        code, out, _ = run_cli(capsys, argv)
        assert code == 0, argv
        assert json.loads(out)["passed"] is True


def test_cli_singular_report(capsys):
    code, out, _ = run_cli(capsys, ["singular", "--poly", "t1^3+t2^3"])
    data = json.loads(out)
    assert code == 0
    assert (data["mu"], data["tau"], data["gap"]) == (4, 4, 0)


def test_cli_singular_failed_cross_check_exits_one(capsys, monkeypatch):
    from nilbloch import singularities
    monkeypatch.setattr(singularities, "hypersurface_h_dim", lambda f, N: 7)
    code, out, err = run_cli(capsys, ["--summary", "singular", "--poly", "t1^3+t2^3"])
    data = json.loads(out)     # the report is printed: a disproof, not bad input
    assert code == 1
    assert (data["mu"], data["tau"], data["h_dim"], data["gap"]) == (4, 4, 7, 0)
    assert "dim H^1 = 7 (!= mu - tau)" in err


def test_cli_output_deterministic(capsys):
    argv = ["verify-key-identity", "--i", "1", "--j", "1"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    strip = lambda s: [l for l in s.splitlines() if "timing_seconds" not in l]
    assert strip(out1) == strip(out2)


def test_cli_algebra_file(tmp_path, capsys):
    spec = tmp_path / "alg.json"
    spec.write_text(json.dumps(algebra_to_json(
        Algebra(1, 4, params=[("b", True)]))))
    code, out, _ = run_cli(capsys, ["bloch", "--algebra", str(spec),
                                    "--symbol", "{1+b*t, b}"])
    assert code == 0
    assert json.loads(out)["zero"] is False


def test_cli_summary_goes_to_stderr(capsys):
    code, out, err = run_cli(
        capsys, ["--summary", "verify-sigma", "--N", "4"])
    assert code == 0
    json.loads(out)
    assert "bijective" in err


# -- long flat input, zero generators, exit codes ----------------------------------

LONG = 3000


def test_long_flat_sums_and_products_parse():
    total = "+".join(["t"] * (LONG - 1) + ["1"])
    assert parse_element(total, R3) == 1 + (LONG - 1) * R3.nil(0)
    assert polynomial_terms(total) == {(1,): LONG - 1, (0,): 1}
    assert polynomial_terms("-" + "-".join(["t"] * LONG)) == {(1,): -LONG}
    t = R3.nil(0)
    assert parse_element("*".join(["(1+t)"] * LONG), R3) == (1 + t) ** LONG
    assert parse_element("/".join(["(1+t)"] * LONG), R3) == (1 + t) ** (2 - LONG)
    assert polynomial_terms("*".join(["2"] * (LONG - 1) + ["t"])) == {(1,): 2 ** (LONG - 1)}


def test_cli_long_flat_sum_and_product(capsys):
    def bloch_class(symbol):
        code, out, _ = run_cli(capsys, ["bloch", "--m", "1", "--N", "3", "--symbol", symbol])
        assert code == 0
        return json.loads(out)["class"]

    total = "+".join(["t"] * (LONG - 1) + ["1"])
    assert bloch_class("{" + total + ", 2}") == bloch_class(f"{{1+{LONG - 1}*t, 2}}")
    prod = "*".join(["(1+t)"] * LONG)
    expected = f"{{1+{LONG}*t+{LONG * (LONG - 1) // 2}*t^2, 2}}"
    assert bloch_class("{" + prod + ", 2}") == bloch_class(expected)
    poly = "+".join(["t1^3"] * (LONG // 2) + ["t2^3"] * (LONG // 2))
    code, out, _ = run_cli(capsys, ["singular", "--poly", poly])
    data = json.loads(out)
    assert code == 0 and (data["mu"], data["tau"]) == (4, 4)


def test_zero_ideal_generators_are_dropped(capsys):
    assert polynomial_terms("0", 1) == {}
    assert polynomial_terms("t-t", 1) == {}
    assert polynomial_terms("2*t - 2*t + t^2", 1) == {(2,): 1}
    A = Algebra(1, 3, ideal=[polynomial_terms("t-t", 1), {(2,): 0}])
    assert A.monomial_ideal and A.nil_basis == Algebra(1, 3).nil_basis
    B = algebra_from_json({"nilpotents": 1, "bound": 3, "ideal": ["0"],
                           "params": [{"name": "a"}]})
    assert B.monomial_ideal and B.n_params == 1
    code, out, _ = run_cli(capsys, ["cohom", "--m", "1", "--N", "3", "--ideal", "0"])
    assert code == 0 and json.loads(out)["all_zero"] is True


BAD_TYPES = [
    ({"nilpotents": 2.5, "bound": 4}, "integer 'nilpotents' and 'bound'"),
    ({"nilpotents": "2", "bound": 4}, "integer 'nilpotents' and 'bound'"),
    ({"nilpotents": True, "bound": 4}, "integer 'nilpotents' and 'bound'"),
    ({"nilpotents": 1, "bound": 3.0}, "integer 'nilpotents' and 'bound'"),
    ({"nilpotents": 1, "bound": 3, "params": [{"name": "a", "invertible": "no"}]},
     "'invertible' must be true or false"),
    ({"nilpotents": 1, "bound": 3, "params": [{"name": "a", "invertible": 1}]},
     "'invertible' must be true or false"),
]


@pytest.mark.parametrize("spec, message", BAD_TYPES,
                         ids=["float", "string", "bool", "float_bound", "string_flag", "int_flag"])
def test_algebra_spec_needs_json_integers_and_booleans(spec, message):
    with pytest.raises(ValueError, match=message):
        algebra_from_json(spec)


@pytest.mark.parametrize("spec, message", BAD_TYPES[::2], ids=["float", "bool", "string_flag"])
def test_cli_algebra_file_with_wrong_json_types_exits_two(tmp_path, capsys, spec, message):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, ["cohom", "--algebra", str(path), "--param-bound", "1"])
    assert code == 2 and not out and message in err


@pytest.mark.parametrize("spec, key", [
    ({"nilpotents": 2, "bound": 5, "ideals": ["t1^2+t2^3"]}, "'ideals' in algebra spec"),
    ({"nilpotents": 1, "bound": 3, "params": [{"name": "a", "inverible": True}]},
     "'inverible' in 'params' entry"),
], ids=["top_level", "params_entry"])
def test_algebra_spec_refuses_unknown_keys(tmp_path, capsys, spec, key):
    with pytest.raises(ValueError, match=f"unknown key {key}"):
        algebra_from_json(spec)
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, ["cohom", "--algebra", str(path)])
    assert code == 2 and not out and f"unknown key {key}" in err


@pytest.mark.parametrize("argv, message", [
    (["cohom", "--m", "1", "--N", "3", "--relative", "power:x"],
     "relative spec 'power:k' needs an integer k, not 'x'"),
    (["bloch", "--m", "1", "--N", "3", "--symbol", "{log(2), 3}"],
     "log needs an argument 1 + x with x nilpotent"),
    (["bloch", "--m", "1", "--N", "3", "--symbol", "{exp(1+t), 3}"],
     "exp needs a nilpotent argument"),
], ids=["power_spec", "log", "exp"])
def test_cli_messages_name_the_input_not_internals(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and not out and message in err
    assert "int()" not in err and "log1p" not in err and "exp_nil" not in err


def test_algebra_spec_flags_are_json_booleans():
    A = algebra_from_json({"nilpotents": 1, "bound": 3, "params": [
        {"name": "a", "invertible": False}, {"name": "b", "invertible": True}, {"name": "c"}]})
    assert [p.invertible for p in A.params] == [False, True, False]


def test_cli_algebra_file_holding_a_list_exits_two(tmp_path, capsys):
    spec = tmp_path / "alg.json"
    spec.write_text("[1, 2]")
    code, out, err = run_cli(capsys, ["cohom", "--algebra", str(spec), "--N", "3"])
    assert code == 2 and not out and "JSON object" in err


@pytest.mark.parametrize("argv", [
    ["bloch", "--m", "1", "--N", "3", "--symbol", "{1+t, 2}", "--cutoff", "-1"],
    ["cohom", "--algebra", "-", "--param-bound", "-1"],
    ["verify-steinberg", "--count", "-5"],
    ["verify-homotopy", "--max-degree", "-1"],
    ["singular", "--poly", "t1^3+t2^3", "--N-max", "-2"],
    ["verify-filtration", "--p", "-2"],
    ["verify-sequence", "--N", "3", "--degree", "-1"],
])
def test_cli_negative_counts_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and not out and "must not be negative" in err


def test_cli_scan_limits_exit_two(capsys):
    """verify-steinberg and verify-homotopy refuse a scan over their limit before
    any work, naming the count and the limit; a scan at the limit runs."""
    from nilbloch.acceptance import MAX_HOMOTOPY_BLOCKS, MAX_STEINBERG_COUNT
    over = MAX_STEINBERG_COUNT + 1
    for argv, count, limit in [
            (["verify-steinberg", "--count", str(over)], over, MAX_STEINBERG_COUNT),
            # (max_degree + 1) (N + m) blocks per multidegree; a = 0, 1, 2 when parametric
            (["verify-homotopy", "--N", "4", "--max-degree", "30000"], 30001 * 5,
             MAX_HOMOTOPY_BLOCKS),
            (["verify-homotopy", "--max-degree", "3000000"], 3000001 * 5, MAX_HOMOTOPY_BLOCKS),
            (["verify-homotopy", "--N", "999999", "--max-degree", "1"], 2 * 1000000,
             MAX_HOMOTOPY_BLOCKS),
            (["verify-homotopy", "--max-degree", "600", "--parametric"], 601 * (5 + 3 * 5),
             MAX_HOMOTOPY_BLOCKS)]:
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - t0 < 1
        assert code == 2 and not out, argv
        assert f" {count} " in err and f"above the limit {limit}" in err, argv
    code, out, _ = run_cli(capsys, ["verify-homotopy", "--N", "4", "--max-degree",
                                    str(MAX_HOMOTOPY_BLOCKS // 5 - 1)])
    assert code == 0 and len(json.loads(out)["rows"]) == MAX_HOMOTOPY_BLOCKS // 5


def test_cli_param_bound_without_params_exits_two(capsys):
    code, out, err = run_cli(capsys, ["cohom", "--m", "1", "--N", "3", "--param-bound", "1"])
    assert code == 2 and not out and "parameters" in err


def test_cli_internal_error_exits_three(capsys, monkeypatch):
    def boom(args):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli, "_cmd_singular", boom)
    code, out, err = run_cli(capsys, ["singular", "--poly", "t1^3+t2^3"])
    assert code == 3 and "ZeroDivisionError: boom" in err
    assert json.loads(out) == {"command": "singular",
                               "error": {"type": "ZeroDivisionError", "message": "boom"}}


def test_cli_sequence_degree_above_m_plus_one_exits_two(capsys):
    code, out, err = run_cli(capsys, ["verify-sequence", "--N", "4", "--degree", "9"])
    assert code == 2 and not out and "every term is 0" in err
    code, out, _ = run_cli(capsys, ["verify-sequence", "--N", "4", "--degree", "2"])
    assert code == 0 and json.loads(out)["passed"] is True


@pytest.mark.parametrize("argv", [["verify-sequence", "--N", "1"],
                                  ["verify-homotopy", "--N", "1"],
                                  ["verify-homotopy", "--N", "1", "--parametric"]])
def test_cli_verifiers_refuse_n_below_two(capsys, argv, fresh_rings):
    """At N = 1 the power case names (t^0) and the homotopy scan checks no form, so both
    exit 2 before any ring is built, like verify-sigma."""
    from nilbloch.algebra import _RINGS
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and not out and "--N must be at least 2" in err
    assert not _RINGS


def _src_env(**extra):
    import nilbloch
    env = dict(os.environ, **extra)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilbloch.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_unknown_variable_is_named_in_input_order():
    # with m inferred, the first unknown name in the text is reported, whatever the hash seed
    for seed in range(6):
        proc = subprocess.run(
            [sys.executable, "-m", "nilbloch", "singular", "--poly", "t*t2+a*x+b"],
            env=_src_env(PYTHONHASHSEED=str(seed)), capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2 and "unknown variable 't'" in proc.stderr, proc.stderr


def test_text_flags_take_values_beginning_with_dash(capsys):
    code, out, err = run_cli(capsys, ["singular", "--poly", "-t1^2-t2^2"])
    assert code == 0, err
    assert json.loads(out)["mu"] == 1
    code, out, err = run_cli(capsys, ["cohom", "--m", "1", "--N", "2", "--ideal", "-t"])
    assert code == 0, err
    assert json.loads(out)["algebra"]["ideal"] == ["-t"]
    # a text flag with no value is still a usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(["cohom", "--m", "1", "--N", "2", "--ideal"])
    assert exc.value.code == 2


# -- fuzzed text input --------------------------------------------------------------

_ATOM = st.sampled_from(["t", "t1", "t2", "t3", "a", "0", "1", "2", "3/2"])
_BINARY = st.tuples(st.sampled_from("+-*/"), _ATOM)
_POLY = st.recursive(
    _ATOM,
    lambda inner: st.one_of(
        st.tuples(inner, st.lists(_BINARY, min_size=1, max_size=3)).map(
            lambda p: p[0] + "".join(op + atom for op, atom in p[1])),
        st.tuples(inner, st.sampled_from(["0", "2", "3", "-1"])).map("({0[0]})^{0[1]}".format),
        st.tuples(inner, st.sampled_from("+-*"), inner).map("({0[0]}){0[1]}({0[2]})".format),
        st.tuples(st.sampled_from(["exp", "log"]), inner).map("{0[0]}({0[1]})".format)),
    max_leaves=8)
# a third of the texts get one token inserted anywhere, spaced so it joins no name
_TOKEN = st.one_of(st.just(""), st.just(""), st.sampled_from(
    ["t", "t2", "a", "7", "+", "-", "*", "/", "^", "(", ")", "exp("]))


@st.composite
def _fuzzed_poly(draw):
    text, token = draw(_POLY), draw(_TOKEN)
    at = draw(st.integers(0, len(text)))
    return f"{text[:at]} {token} {text[at:]}" if token else text


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["ideal", "explicit", "singular", "jacobian", "bloch"]),
       _fuzzed_poly(), _fuzzed_poly(), st.integers(1, 3), st.integers(1, 5))
def test_fuzzed_text_inputs_never_crash(command, text, other, m, N):
    # "--flag=value", so a text that begins with "-" stays a value
    argv = {"ideal": ["cohom", f"--m={m}", f"--N={N}", f"--ideal={text}"],
            "explicit": ["cohom", f"--m={m}", f"--N={N}", f"--relative=explicit:{text}"],
            "singular": ["singular", f"--poly={text}", "--N-max=12"],
            "jacobian": ["verify-sequence", f"--jacobian-of={text}", f"--bound={N}"],
            "bloch": ["bloch", f"--m={m}", f"--N={N}", f"--symbol={{{text}, {other}}}"]}[command]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())


def _exact(terms):
    """Some coefficients, each an int or a Fraction, never a float or a bool."""
    return terms and all(type(c) in (int, Fraction) for c in terms.values())


def test_coefficients_stay_exact_rationals():
    from nilbloch.forms import Form
    A = Algebra(2, 5, params=[("a", False), ("b", True)])
    zero = ((0, 0), (0, 0))
    t1 = ((0, 0), (1, 0))
    for text in ("1+2*t1-3/4*t2^2", "b^-2*(1+a*t1)", "exp(1/3*t1)*log(1+t2)", "(2+t1)/(4-t2)"):
        assert _exact(parse_element(text, A).terms), text
    assert _exact(parse_form("-1/2*t1*dt1∧dt2 + 3*b^-1*t2*dt1∧db", A).terms)
    for c, want in ((0.5, Fraction(1, 2)), (2.0, 2), (True, 1), (Fraction(6, 3), 2)):
        for terms in (A.element({t1: c}).terms, A.const(c).terms,
                      Form(A, 1, {(t1, (1,)): c}).terms):
            assert _exact(terms) and list(terms.values()) == [want], (c, terms)
    assert Form(A, 1, {(zero, (0,)): 0.5}).terms == {(zero, (0,)): Fraction(1, 2)}
    R = Algebra(2, 5)
    for text in ("{1+t1+t2^2, 1-t1*t2}", "{1/2+3/2*t1, 2/3-t2^2}", "{exp(t1*t2), 1+t1}"):
        rep = bloch(parse_symbol_sum(text, R)).rep
        assert _exact(rep.terms), text


def test_cli_bloch_witness_values_are_json_strings(capsys):
    for symbol in ("{1+t1, 1+t2}", "{1/2+3/2*t1, 2/3-t2^2}"):
        code, out, _ = run_cli(capsys, ["bloch", "--m", "2", "--N", "5", "--symbol", symbol])
        witness = json.loads(out)["witness"]
        assert code == 0 and witness and all(isinstance(v, str) for v in witness.values())
