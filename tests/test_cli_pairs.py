"""scripts/cli_pairs.py on faked runs of two small checkouts.

run_cli and commit_of are replaced, so no command runs and no subprocess
starts. Each checkout lists three commands: `nilbloch selftest`, one
README line (bloch) and one scripts/explicit_cmds.txt line (cohom). The
last test reads the repository's own command list instead.
"""

import json
import shlex
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "scripts"))
import cli_pairs  # noqa: E402

BLOCH = 'nilbloch bloch --m 1 --N 3 --symbol "{1+t, 2}"'
COHOM = "nilbloch cohom --m 1 --N 3"
README = f"# nilbloch\n\n## CLI\n\n```sh\n{BLOCH}\n```\n\nnilbloch outside the block\n"
BENCHMARK = {"end_to_end": [{"name": "setup_s", "bound": 0.5}, {"name": "wall_s", "bound": 0.15}]}


def _checkout(root, pyc=False):
    (root / "scripts").mkdir(parents=True)
    (root / "README.md").write_text(README)
    (root / "scripts" / "explicit_cmds.txt").write_text(f"# a comment\n{COHOM}\n")
    (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    cache = root / "src" / "nilbloch" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / ("algebra.cpython-311.pyc" if pyc else "notes.txt")).write_bytes(b"")
    return root


def same(side, pair, sub):
    """Equal reports whose timing fields change with every run."""
    seconds = 0.1 * pair + (side == "change")
    if sub == "selftest":
        report = {"criteria": [{"name": "a", "passed": True, "seconds": seconds}],
                  "passed": True}
    else:
        report = {"command": sub, "class": "1 * t * dt"}
    return 0, json.dumps(dict(report, timing_seconds=seconds)), "", 0.2


@pytest.fixture
def run(tmp_path, monkeypatch, capsys):
    """run(answer): cli_pairs on two fake checkouts, where answer(side, pair, subcommand)
    gives a run's (exit code, stdout, stderr, wall seconds). Returns the exit code,
    stdout, the --out JSON and the (side, args) of every run in order."""
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    out = tmp_path / "cli.json"
    monkeypatch.setattr(cli_pairs, "commit_of", lambda root: "abc1234")

    def go(answer):
        calls = []

        def fake_run(root, args):
            side = Path(root).name
            pair = 1 + sum(c == (side, args) for c in calls)
            if calls and len(calls) % 6 == 0:
                # the first run of a pair: --out holds every run of the pairs before it
                assert len(json.loads(out.read_text())["runs"]) == len(calls)
            calls.append((side, args))
            return answer(side, pair, args[0])

        monkeypatch.setattr(cli_pairs, "run_cli", fake_run)
        code = cli_pairs.main([str(parent), str(change), "--out", str(out)])
        return code, capsys.readouterr().out, json.loads(out.read_text()), calls
    return go


def test_reports_equal_apart_from_timing_exit_zero(run):
    code, out, report, _ = run(same)
    assert code == 0 and "differs" not in out
    assert list(report["summary"]) == ["nilbloch selftest", BLOCH, COHOM]
    assert report["differs"] == {}
    assert len(report["runs"]) == 3 * 2 * cli_pairs.PAIRS
    assert report["parent"] == "abc1234" and report["bytecode"] == {"parent": False,
                                                                    "change": False}


def test_changed_class_names_command_and_path(run):
    def changed(side, pair, sub):
        code, stdout, stderr, wall = same(side, pair, sub)
        if sub == "bloch" and side == "change":
            stdout = stdout.replace("1 * t * dt", "0")
        return code, stdout, stderr, wall
    code, out, report, _ = run(changed)
    assert code == 1
    assert f'differs: {BLOCH}: pair 1 change: differ at $.class: "1 * t * dt" != "0"' in out
    assert list(report["differs"]) == [BLOCH]


def test_output_that_is_not_deterministic_differs(run):
    def flaky(side, pair, sub):
        code, stdout, stderr, wall = same(side, pair, sub)
        if pair == 3:
            stdout = stdout.replace("1 * t * dt", "2 * t * dt")
        return code, stdout, stderr, wall
    code, out, _, _ = run(flaky)
    assert code == 1
    assert f"differs: {BLOCH}: pair 3 parent: differ at $.class" in out
    assert f"differs: {COHOM}: pair 3 parent: differ at $.class" in out


def test_report_missing_on_one_side_is_named(run):
    def missing(side, pair, sub):
        if sub == "bloch" and side == "change":
            return 2, "", "error: no report", 0.2
        return same(side, pair, sub)
    code, out, _, _ = run(missing)
    assert code == 1
    assert f'differs: {BLOCH}: pair 1 change: differ at $.class: "1 * t * dt" != <missing>' in out


def test_non_json_stdout_is_compared_as_text(run):
    def text(message):
        def answer(side, pair, sub):
            if sub == "cohom":
                return 2, "", message(side), 0.2
            if sub == "bloch":
                return 0, "[PASS] not json", "", 0.2
            return same(side, pair, sub)
        return answer
    code, out, report, _ = run(text(lambda side: "error: bad input"))
    assert code == 0 and "differs" not in out
    assert "timing_seconds" not in report["summary"][COHOM]        # no JSON, no timing
    assert f"{COHOM} wall_s: same, change won 0/10 pairs, median 0.2 -> 0.2" in out
    code, out, _, _ = run(text(lambda side: f"error: bad input on the {side}"))
    assert code == 1
    assert (f'differs: {COHOM}: pair 1 change: differ at $.text: '
            f'"error: bad input on the parent" != "error: bad input on the change"') in out


def test_pairs_alternate_which_side_runs_first(run):
    _, _, report, calls = run(same)
    for args in (["selftest"], ["cohom", "--m", "1", "--N", "3"]):
        sides = [side for side, a in calls if a == args]
        assert sides == ["parent", "change", "change", "parent"] * 5
    assert [r["side"] for r in report["runs"][:6]] == ["parent", "change"] * 3
    assert [r["side"] for r in report["runs"][6:12]] == ["change", "parent"] * 3


def test_differing_exit_code_is_a_difference(run):
    def failing(side, pair, sub):
        code, stdout, stderr, wall = same(side, pair, sub)
        return (1 if sub == "selftest" and side == "change" else code), stdout, stderr, wall
    code, out, _, _ = run(failing)
    assert code == 1
    assert "differs: nilbloch selftest: pair 1 change: differ at $.exit_code: 0 != 1" in out


def test_spread_pairs_won_and_verdict_per_command(run):
    def timed(side, pair, sub):
        code, stdout, stderr, _ = same(side, pair, sub)
        report = json.loads(stdout)
        report["timing_seconds"] = 1.0 + 0.01 * pair if side == "parent" else 0.5
        return code, json.dumps(report), stderr, 0.2 if side == "parent" else 0.3
    code, out, report, _ = run(timed)
    assert code == 0
    bloch = report["summary"][BLOCH]
    # the layout of BENCH_N.json: a spread per metric and side, then its wins and verdict
    assert sorted(bloch) == ["timing_seconds", "timing_seconds_pairs_won",
                             "timing_seconds_verdict", "wall_s", "wall_s_pairs_won",
                             "wall_s_verdict"]
    assert bloch["timing_seconds"]["parent"] == pytest.approx(
        {"median": 1.055, "min": 1.01, "max": 1.1, "iqr": 0.055, "n": 10})
    assert bloch["timing_seconds"]["change"]["median"] == 0.5
    assert (bloch["timing_seconds_pairs_won"], bloch["timing_seconds_verdict"]) == (
        "10/10", "gain")
    assert bloch["wall_s"]["change"] == {"median": 0.3, "min": 0.3, "max": 0.3, "iqr": 0,
                                         "n": 10}
    # 50% slower is past the 0.15 bound of wall_s (not setup_s's 0.5)
    assert (bloch["wall_s_pairs_won"], bloch["wall_s_verdict"]) == ("0/10", "worse")
    assert f"{BLOCH} timing_seconds: gain, change won 10/10 pairs, median 1.055 -> 0.5" in out
    assert f"{BLOCH} wall_s: worse, change won 0/10 pairs, median 0.2 -> 0.3" in out
    assert len(out.splitlines()) == 3 * 2


def test_few_ms_command_with_wide_interleaved_spread_reads_unresolved(run):
    """A command of a few ms whose parent runs spread wider than the wall_s bound
    cannot show a shift of 20%: with the change's runs among the parent's, it reads
    unresolved; with a narrow spread the same shift reads worse."""
    def fast(parent):
        def answer(side, pair, sub):
            code, stdout, stderr, _ = same(side, pair, sub)
            seconds = parent[pair - 1] if side == "parent" else 0.0036
            return (code, json.dumps(dict(json.loads(stdout), timing_seconds=seconds)),
                    stderr, seconds)
        return answer
    _, out, report, _ = run(fast([0.002, 0.004] * 5))
    for name in ("timing_seconds", "wall_s"):
        assert (report["summary"][COHOM][f"{name}_pairs_won"],
                report["summary"][COHOM][f"{name}_verdict"]) == ("5/10", "unresolved")
    assert (f"{COHOM} timing_seconds: unresolved, change won 5/10 pairs, "
            f"median 0.003 -> 0.0036") in out
    _, _, report, _ = run(fast([0.003] * 10))
    assert report["summary"][COHOM]["wall_s_verdict"] == "worse"


def test_bytecode_mismatch_exits_two_before_any_run(tmp_path, monkeypatch, capsys):
    def no_run(root, args):
        raise AssertionError("no command may run")
    monkeypatch.setattr(cli_pairs, "run_cli", no_run)
    parent = _checkout(tmp_path / "p", pyc=True)
    change = _checkout(tmp_path / "c", pyc=False)
    out = tmp_path / "cli.json"
    before = sorted(p.name for p in tmp_path.rglob("*"))
    assert cli_pairs.main([str(parent), str(change), "--out", str(out)]) == 2
    assert "only the parent checkout has .pyc files" in capsys.readouterr().err
    assert cli_pairs.main([str(change), str(parent), "--out", str(out)]) == 2
    assert "only the change checkout has .pyc files" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == before    # nothing written


def test_every_gate_command_parses(monkeypatch, capsys):
    """Every command of the repository's gate gets past cli.main's parser to its
    subcommand, each `_cmd_*` replaced by a stub, so no command runs. A mistyped
    flag exits 2 on both sides of a gate run and so reads as no difference there."""
    from nilbloch import cli
    called = []
    for name in [n for n in vars(cli) if n.startswith("_cmd_")]:
        monkeypatch.setattr(cli, name,
                            lambda args, name=name: called.append(name) or ({}, True, []))
    cmds = cli_pairs.commands(REPO)
    assert len(cmds) > 50
    for cmd in cmds:
        argv = shlex.split(cmd)[1:]
        try:
            assert cli.main(argv) == 0, cmd
        except SystemExit as exc:
            pytest.fail(f"{cmd}: exit {exc.code}: {capsys.readouterr().err}")
        assert called.pop() == "_cmd_" + argv[0].replace("-", "_"), cmd
