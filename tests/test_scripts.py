"""Smoke tests: both experiment scripts run end to end through certify; the mutant
list is current, the last sweep killed every mutant, and the mutation sweep's
runs are bounded in time."""

import importlib.util
import subprocess
import sys
import time
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, cwd):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_adversary_knows_all(tmp_path):
    out_dir = tmp_path / "eka"
    lines = run_script("run_adversary_knows_all.py", "--max-m", 2, "--out-dir", out_dir, cwd=tmp_path)
    # the fourth column is a wall time
    assert [line.split("\t")[:3] for line in lines] == [
        ["M", "verdict", "optimum"],
        ["0", "inconclusive", "1/2"],
        ["1", "inconclusive", "1/4"],
        ["2", "inconclusive", "1/4"],
    ]
    assert (out_dir / "cert_m2.json").is_file()


def test_run_family_sweep(tmp_path):
    lines = run_script("run_family_sweep.py", "--dists", 2, "--max-m", 2, "--seed", 0, cwd=tmp_path)
    assert lines == [
        "dist\tM=0\tM=1\tM=2",
        "g0\t13/7\t113/126\t113/126",
        "g1\t9/5\t9/10\t9/10",
    ]


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPTS / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants


def test_every_mutant_applies_exactly_once():
    mutants = load_mutants()
    names = [name for name, *_ in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for name, file, old, new, killer in mutants.MUTANTS:
        assert old != new, name
        assert (mutants.ROOT / file).read_text().count(old) == 1, name
        # the recorded killer names a test function of the suite
        path, _, test = killer.partition("::")
        assert path.startswith("tests/") and test, name
        assert f"\ndef {test.partition('[')[0]}(" in (mutants.ROOT / path).read_text(), name


def test_the_last_sweep_killed_every_mutant():
    mutants = load_mutants()
    rows = [line.split("\t") for line in mutants.SWEEP_FILE.read_text().splitlines()]
    assert sorted(name for name, *_ in rows) == sorted(name for name, *_ in mutants.MUTANTS)
    for name, outcome, killer, seconds in rows:
        assert outcome == "killed" and killer.startswith("tests/") and seconds.isdigit(), name


def test_a_run_past_the_time_limit_is_timed_out(tmp_path, monkeypatch):
    mutants = load_mutants()
    monkeypatch.setattr(mutants, "RUN_TIMEOUT_S", 1)
    (tmp_path / "tests").mkdir()
    sleeper = "import time\n\n\ndef test_sleep():\n    time.sleep(60)\n"
    (tmp_path / "tests" / "test_sleep.py").write_text(sleeper)
    run_tests, targets = mutants.run_tests, []

    def counted(tree, target="tests"):
        targets.append(target)
        return run_tests(tree, target)

    monkeypatch.setattr(mutants, "run_tests", counted)
    killer = "tests/test_sleep.py::test_sleep"
    t0 = time.perf_counter()
    assert mutants.killed_by(tmp_path, killer) == mutants.TIMED_OUT
    assert time.perf_counter() - t0 < 10
    # the killer's run timed out, so the suite was not run after it
    assert targets == [killer]


def test_the_killing_test_id_keeps_its_spaces():
    first_failure = load_mutants().first_failure
    stdout = "\n".join([
        "..F",
        "=========================== short test summary info ============================",
        "FAILED tests/test_a.py::test_b[x y] - assert 1 == 2",
        "ERROR tests/test_c.py::test_d",
        "1 failed, 2 passed in 0.10s",
    ])
    assert first_failure(stdout) == "tests/test_a.py::test_b[x y]"
    assert first_failure("ERROR tests/test_c.py::test_d\n") == "tests/test_c.py::test_d"
    assert first_failure("1 passed in 0.01s\n") is None
