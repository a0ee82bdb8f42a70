"""The verdict of scripts/bench_pairs.py on synthetic per-pair values and on the
runs of recorded reports, its refusal to compare a byte-compiled side with one
that is not, and the label it gives a checkout."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "bench_pairs.py"
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


# the parent's IQR (0.1) is wider than the 0.15 bound times its median (0.2)
WIDE = [0.15, 0.25] * 5


def test_wide_interleaved_spread_is_unresolved_either_way():
    # change medians 0.19 (better) and 0.24 (worse by more than the bound)
    for change in ([0.14, 0.24] * 5, [0.18, 0.30] * 5):
        assert verdict(WIDE, change, "lower", 0.15) == "unresolved"
        assert verdict(WIDE, change, "higher", 0.15) == "unresolved"
    # every change run worse, but the medians within the bound
    skewed = [0.1] * 3 + [0.2] * 7
    assert verdict(skewed, [0.21] * 10, "lower", 0.15) == "unresolved"


def test_wide_spread_every_change_run_better_is_the_same_not_a_gain():
    assert verdict(WIDE, [0.1] * 10, "lower", 0.15) == "same"
    assert verdict(WIDE, [0.3] * 10, "higher", 0.15) == "same"


def test_wide_spread_every_change_run_worse_past_the_bound_is_worse():
    assert verdict(WIDE, [0.3] * 10, "lower", 0.15) == "worse"
    assert verdict(WIDE, [0.1] * 10, "higher", 0.15) == "worse"


def _bench_values(run):
    return {name: m["value"] for name, m in run["result"]["metrics"].items()}


def test_replay_of_bench_30_reproduces_its_verdicts():
    """No cell of BENCH_30.json is wide, so every recorded verdict stands."""
    report = json.loads((REPO / "BENCH_30.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"])
               for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]}
    summary = bench_pairs.summarize(report["runs"], lambda r: f"{r['workload']}/{r['seed']}",
                                    _bench_values, metrics)
    recorded = {(unit, key): v for unit, out in report["summary"].items()
                for key, v in out.items() if key.endswith("_verdict")}
    assert len(recorded) == 40
    assert {(unit, key): summary[unit][key] for unit, key in recorded} == recorded


def test_replay_of_cli_29_reads_its_worse_cells_unresolved():
    """CLI_29.json recorded `worse` on 13 command/metric cells from 5 pairs whose
    parent runs spread wider than the wall_s bound, with overlapping runs."""
    report = json.loads((REPO / "CLI_29.json").read_text())
    names = ("timing_seconds", "wall_s")
    summary = bench_pairs.summarize(report["runs"], lambda r: r["cmd"],
                                    lambda r: {name: r[name] for name in names},
                                    dict.fromkeys(names, ("lower", 0.15)))
    worse = [(cmd, name) for cmd, out in report["summary"].items()
             for name, m in out.items() if m["verdict"] == "worse"]
    assert len(worse) == 13
    assert {summary[cmd][f"{name}_verdict"] for cmd, name in worse} == {"unresolved"}


def _sources(root, text="x = 1\n"):
    src = root / "src" / "nilbloch"
    src.mkdir(parents=True)
    (src / "algebra.py").write_text(text)
    (src / "notes.txt").write_text("not a source")
    return root


def _git(root, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                          cwd=root, capture_output=True, text=True, check=True).stdout.strip()


def test_a_copy_is_named_by_the_digest_of_its_sources(tmp_path):
    label = bench_pairs.commit_of(_sources(tmp_path / "a"))
    assert re.fullmatch(r"src_sha256:[0-9a-f]{16}", label)
    assert bench_pairs.commit_of(_sources(tmp_path / "b")) == label
    assert bench_pairs.commit_of(_sources(tmp_path / "c", "x = 2\n")) != label
    # the digest perfbench/run.py records as src_sha256, on a copy of this repository
    shutil.copytree(REPO / "src" / "nilbloch", tmp_path / "copy" / "src" / "nilbloch",
                    ignore=shutil.ignore_patterns("__pycache__"))
    digest = subprocess.run([sys.executable, "-c", "import run; print("
                             "run._provenance()['src_sha256'])"], cwd=REPO / "perfbench",
                            capture_output=True, text=True, check=True).stdout.strip()
    assert bench_pairs.commit_of(tmp_path / "copy") == f"src_sha256:{digest}"


def test_only_the_top_of_a_clean_work_tree_is_named_by_its_commit(tmp_path):
    tree = _sources(tmp_path / "tree")
    _sources(tree / "copy")
    _git(tree, "init", "-q")
    _git(tree, "add", "-A")
    _git(tree, "commit", "-q", "-m", "sources")
    assert bench_pairs.commit_of(tree) == _git(tree, "rev-parse", "--short", "HEAD")
    # a subdirectory is named by its sources, as the same sources outside git are
    assert bench_pairs.commit_of(tree / "copy") == bench_pairs.commit_of(
        _sources(tmp_path / "loose"))
    (tree / "src" / "nilbloch" / "algebra.py").write_text("x = 3\n")
    assert bench_pairs.commit_of(tree).startswith("src_sha256:")


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
