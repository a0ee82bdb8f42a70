"""The package's record classes, and what importing the package loads.

The records (algebra.Record and its subclasses) are plain classes, so
`import nilbloch` needs neither dataclasses nor inspect. These tests pin
the behaviour the records share: constructor by position or keyword,
field-wise equality, hashing only for the frozen specs, and the repr
Name(field=value!r, ...) that `cli` prints through json's default=str.
"""

import os
import subprocess
import sys

import pytest

import nilbloch
from nilbloch.acceptance import CriterionResult
from nilbloch.algebra import Algebra, ParamSpec, RingMap
from nilbloch.derham import (EXPLICIT, FULL, POWER, CohomologyReport, ExactnessCertificate,
                             RelativeSpec, SequenceReport, SigmaReport, cohomology, relative)
from nilbloch.ksymbols import (BlochClass, FiltrationReport, KeyIdentityReport, SkewReport,
                               SpanReport)
from nilbloch.singularities import SingularityReport

# every unhashable record, with its fields in constructor order
REPORTS = {
    RingMap: "source target images",
    ExactnessCertificate: "exact degree cutoff primitive witness witness_block",
    CohomologyReport: "algebra relative_spec rows",
    SequenceReport: "algebra inner outer degree degreewise dim_inner_classes "
                    "dim_outer_classes dim_quotient_classes h_prev_outer h_prev_quotient "
                    "rank_alpha rank_beta rank_inclusion rank_projection correction_dim "
                    "alpha_injective additivity_ok exact_at_h exact_at_inner exact_at_outer "
                    "surjective passed",
    SigmaReport: "N rows passed",
    BlochClass: "algebra degree rep base slot",
    KeyIdentityReport: "i j passed cutoff bloch_rep target_rep certificate",
    FiltrationReport: "p i j vanishes rep",
    SkewReport: "passed rep",
    SpanReport: "degree dim_target rank count full",
    SingularityReport: "f m mu tau h_dim N_used stabilization_degree",
    CriterionResult: "name passed details seconds",
}

COLD = """
import sys
before = set(sys.modules)
import nilbloch, nilbloch.dense, nilbloch.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""

CRASH = """
import sys
from nilbloch import cli
def boom(args):
    raise ZeroDivisionError("boom")
cli._cmd_singular = boom
sys.exit(cli.main(["singular", "--poly", "t1^3+t2^3"]))
"""


def _python(code):
    """Run code in a fresh interpreter that imports this package's sources."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilbloch.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


def test_import_loads_no_dataclasses_traceback_or_acceptance():
    proc = _python(COLD)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "nilbloch.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "traceback",
                              "nilbloch.acceptance", "nilbloch.sampling"}), loaded


def test_crashing_subcommand_still_exits_three_with_its_traceback():
    proc = _python(CRASH)
    assert proc.returncode == 3
    assert "Traceback (most recent call last)" in proc.stderr
    assert "ZeroDivisionError: boom" in proc.stderr
    assert '"type": "ZeroDivisionError"' in proc.stdout


def test_specs_compare_and_hash_by_fields():
    assert FULL == RelativeSpec("full") == RelativeSpec(kind="full", k=1, gens=())
    assert hash(FULL) == hash(RelativeSpec("full"))
    assert POWER(2) == RelativeSpec("power", k=2) != POWER(3)
    assert FULL != "full" and FULL != ParamSpec("full")
    assert ParamSpec("a") == ParamSpec(name="a", invertible=False) != ParamSpec("a", True)
    assert len({ParamSpec("a"), ParamSpec("a", False), ParamSpec("a", True)}) == 2
    assert Algebra(1, 3, params=[ParamSpec("c", True)]) is Algebra(1, 3, params=[("c", True)])


def test_equal_explicit_specs_share_one_presentation():
    A = Algebra(2, 4)
    first = relative(A, EXPLICIT([{(1, 1): 1}]))
    size = len(A.__dict__["_rel_cache"])
    assert relative(A, EXPLICIT([{(1, 1): 1}])) is first
    assert len(A.__dict__["_rel_cache"]) == size


@pytest.mark.parametrize("spec", [ParamSpec("a"), FULL, POWER(2)], ids=repr)
def test_specs_are_immutable(spec):
    for name in ("name", "invertible", "kind", "k", "gens", "extra"):
        with pytest.raises(AttributeError):
            setattr(spec, name, 1)
        with pytest.raises(AttributeError):
            delattr(spec, name)


@pytest.mark.parametrize("cls", REPORTS, ids=lambda c: c.__name__)
def test_reports_compare_field_wise_and_are_unhashable(cls):
    fields = REPORTS[cls].split()
    values = [[i] for i in range(len(fields))]       # unhashable values compare too
    a, b = cls(*values), cls(**dict(zip(fields, values)))
    assert a == b and not a != b
    setattr(b, fields[-1], None)
    assert a != b and a != tuple(values)
    with pytest.raises(TypeError):
        hash(a)
    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"


def test_repr_keeps_the_former_dataclass_text():
    assert repr(ParamSpec("a")) == "ParamSpec(name='a', invertible=False)"
    assert repr(POWER(2)) == "RelativeSpec(kind='power', k=2, gens=())"
    assert str(cohomology(Algebra(1, 1))) == (
        "CohomologyReport(algebra={'nilpotents': 1, 'bound': 1, 'ideal': [], 'params': []}, "
        "relative_spec='full', rows=[{'degree': 0, 'dim': 0, 'dim_ker': 0, 'dim_im': 0, "
        "'dim_h': 0}, {'degree': 1, 'dim': 0, 'dim_ker': 0, 'dim_im': 0, 'dim_h': 0}])")
    assert repr(CriterionResult("x", True)) == (
        "CriterionResult(name='x', passed=True, details={}, seconds=0.0)")


def test_defaults_and_argument_errors():
    cert = ExactnessCertificate(True, 1, None)
    assert (cert.primitive, cert.witness, cert.witness_block) == (None, None, None)
    assert BlochClass(None, 0, None, []).slot == "first"
    with pytest.raises(TypeError):
        SkewReport(True)                    # a field is missing
    with pytest.raises(TypeError):
        SkewReport(True, "0", "extra")
    with pytest.raises(TypeError):
        SkewReport(True, passed=False)      # a field given twice
    with pytest.raises(TypeError):
        SkewReport(True, bad="0")


def test_criterion_results_never_share_details():
    a, b = CriterionResult("a", True), CriterionResult("b", False)
    a.details["k"] = 1
    assert b.details == {} and a.details is not b.details
    assert CriterionResult("c", True, {"n": 2}, 1.5).to_json() == {
        "name": "c", "passed": True, "details": {"n": 2}, "seconds": 1.5}


def test_to_json_gives_each_field_by_name_through_its_own_to_json():
    cert = ExactnessCertificate(False, 1, 3, witness={((0, 1), (2,)): 1}, witness_block=(2, ()))
    rep = KeyIdentityReport(1, 2, False, 3, "b", "t", cert)
    assert rep.to_json() == {"i": 1, "j": 2, "passed": False, "cutoff": 3, "bloch_rep": "b",
                             "target_rep": "t", "certificate": {
                                 "exact": False, "degree": 1, "cutoff": 3,
                                 "witness": {"(0, 1)|(2,)": "1"}}}
    assert SigmaReport(3, [{"degree": 0}], True).to_json() == {
        "N": 3, "rows": [{"degree": 0}], "passed": True}
    assert SingularityReport("f", 2, 4, 3, 1, 6, 5).to_json()["gap"] == 1
