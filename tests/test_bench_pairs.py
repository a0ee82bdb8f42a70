"""The verdict of scripts/bench_pairs.py on synthetic per-pair values, and its
refusal to compare a byte-compiled side with one that is not."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [0.200, 0.204, 0.198, 0.206, 0.201, 0.203, 0.199, 0.205, 0.202, 0.200]


def test_clear_gain_on_every_pair():
    change = [p * 0.8 for p in PARENT]
    assert verdict(PARENT, change, "lower", 0.15) == "gain"
    # a higher-is-better metric mirrors it
    assert verdict(change, PARENT, "higher", 0.15) == "gain"


def test_gain_needs_nine_of_ten_pairs():
    change = [p * 0.8 for p in PARENT]
    change[0] = change[1] = 0.3         # two lost pairs: 8/10
    assert verdict(PARENT, change, "lower", 0.15) == "same"
    change[1] = PARENT[1] * 0.8         # one lost pair: 9/10
    assert verdict(PARENT, change, "lower", 0.15) == "gain"


def test_gain_needs_medians_apart_by_more_than_the_parent_iqr():
    # the change wins every pair, but by far less than the parent's spread
    change = [p - 0.0001 for p in PARENT]
    assert verdict(PARENT, change, "lower", 0.15) == "same"


def test_worse_past_the_bound_only():
    assert verdict(PARENT, [p * 1.2 for p in PARENT], "lower", 0.15) == "worse"
    assert verdict(PARENT, [p * 1.1 for p in PARENT], "lower", 0.15) == "same"
    assert verdict(PARENT, [p * 0.8 for p in PARENT], "higher", 0.15) == "worse"


def test_identical_runs_are_the_same():
    assert verdict(PARENT, list(PARENT), "lower", 0.15) == "same"
    assert verdict([1.0] * 4, [1.0] * 4, "lower", 0.1) == "same"


def _checkout(root, pyc):
    cache = root / "src" / "nilbloch" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / ("algebra.cpython-311.pyc" if pyc else "notes.txt")).write_bytes(b"")
    return root


def test_bytecode_state_is_read_per_side(tmp_path):
    assert not bench_pairs.has_bytecode(tmp_path)           # no __pycache__ at all
    assert not bench_pairs.has_bytecode(_checkout(tmp_path / "a", pyc=False))
    assert bench_pairs.has_bytecode(_checkout(tmp_path / "b", pyc=True))


def test_sides_in_different_bytecode_states_exit_two_before_any_run(tmp_path, capsys):
    parent, change = _checkout(tmp_path / "p", pyc=True), _checkout(tmp_path / "c", pyc=False)
    out = tmp_path / "bench.json"
    before = sorted(p.name for p in tmp_path.rglob("*"))
    assert bench_pairs.main([str(parent), str(change), "--out", str(out)]) == 2
    assert "only the parent checkout has .pyc files" in capsys.readouterr().err
    assert bench_pairs.main([str(change), str(parent), "--out", str(out)]) == 2
    assert "only the change checkout has .pyc files" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == before    # nothing written
