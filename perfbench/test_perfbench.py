"""Checks of the benchmark's own gate, tracer and host-speed sampler.  Run: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import shutil
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, import_program, resealed  # noqa: E402

import_program()

from nodistill import certifier, cli, ratlp  # noqa: E402

from gate import evaluate, load_refs  # noqa: E402
from hostspeed import REFERENCE_PROBE_S, HostSampler  # noqa: E402
from run import run_pass  # noqa: E402
from tracing import LAYERS, SEARCHES, Tracer, lost_count  # noqa: E402
from workloads import build  # noqa: E402


@pytest.fixture(scope="module")
def unif_run():
    """The UNDISTILLABLE command of certify-det (dual certificate), run once."""
    workdir = OUT / "test-perfbench"
    cmd = next(c for c in build("certify-det", 0, workdir) if "/unif-M4/" in c.key)
    outcome = run_pass(cli, [cmd])[0]
    yield cmd, outcome
    shutil.rmtree(workdir, ignore_errors=True)


def _failed_frac(cmd, outcomes, refs):
    failed, _, _ = evaluate([cmd], [outcomes], refs)
    return failed / len(outcomes)


def _reasons(cmd, outcomes, refs):
    return evaluate([cmd], [outcomes], refs)[1]


def test_reference_run_passes(unif_run):
    cmd, outcome = unif_run
    refs = load_refs()
    assert cmd.key in refs
    assert _failed_frac(cmd, [outcome], refs) == 0


@pytest.mark.parametrize("refs", [load_refs(), {}], ids=["referenced", "unreferenced"])
def test_tampered_multiplier_raises_failed_frac(unif_run, refs):
    """One multiplier raised and the digest recomputed: only the dual check can tell."""
    cmd, outcome = unif_run
    cert = certifier.Certificate.loads(outcome.cert.decode())
    dual = list(cert.dual)
    r = next(i for i, y in enumerate(dual) if y)
    dual[r] += 1
    tampered = resealed(dataclasses.replace(cert, dual=tuple(dual)))
    assert tampered.digest != cert.digest
    tampered_run = dataclasses.replace(outcome, cert=tampered.dumps().encode())
    assert _failed_frac(cmd, [outcome, tampered_run], refs) == 0.5
    assert _failed_frac(cmd, [tampered_run], refs) == 1
    if not refs:
        [reason] = _reasons(cmd, [tampered_run], refs)
        assert "certificate fails verification: dual infeasible" in reason


@pytest.mark.parametrize("refs", [load_refs(), {}], ids=["referenced", "unreferenced"])
def test_changed_stdout_line_raises_failed_frac(unif_run, refs):
    cmd, outcome = unif_run
    changed = dataclasses.replace(outcome, stdout="INCONCLUSIVE optimum=0/1\n")
    assert _failed_frac(cmd, [outcome, changed], refs) == 0.5


def test_tracing_keeps_outputs_and_restores_the_library(unif_run):
    cmd, outcome = unif_run
    originals = (cli.main, ratlp.solve, certifier.build_lp, certifier.Certificate.loads)
    tracer = Tracer()
    with tracer:
        traced = run_pass(cli, [cmd], tracer)[0]
    assert (cli.main, ratlp.solve, certifier.build_lp, certifier.Certificate.loads) == originals
    assert (traced.code, traced.stdout, traced.cert) == (outcome.code, outcome.stdout, outcome.cert)

    names = [s[0] for s in tracer.spans]
    for name in ("cli.main", "certifier.certify", "certifier.build_lp", "ratlp.solve",
                 "ratlp.check_solution", "certifier.problem_fingerprint",
                 "certifier.Certificate.dumps", "families.deterministic_family",
                 "probvec.JointDist.loads"):
        assert name in names
    root = tracer.spans[0]
    assert root[0] == "cli.main" and root[3] == -1
    self_times = tracer.self_times()
    assert set(self_times) == set(LAYERS)
    assert all(t >= 0 for t in self_times.values())
    assert sum(self_times.values()) == pytest.approx(root[2] - root[1])
    counts = tracer.take_counts()
    assert counts["ratlp.solve.calls"] == 1
    assert counts["families.pairs"] == 4


def test_sampler_keeps_outputs_and_scales_by_the_probes(unif_run):
    cmd, outcome = unif_run
    before = signal.getsignal(signal.SIGALRM)
    with HostSampler() as sampler:
        sampled = run_pass(cli, [cmd], sampler=sampler)[0]
    assert signal.getsignal(signal.SIGALRM) is before
    assert (sampled.code, sampled.stdout, sampled.cert) == (outcome.code, outcome.stdout, outcome.cert)
    assert len(sampler.samples) >= 2
    assert sampled.scaled > 0

    # probes at twice the reference time halve the scaled time, and their own
    # time inside the interval is not counted as work
    sampler.samples = [(9.95, 2 * REFERENCE_PROBE_S), (10.5, 2 * REFERENCE_PROBE_S)]
    net, scaled = sampler.scaled(10.0, 11.0)
    assert net == pytest.approx(1.0 - 2 * REFERENCE_PROBE_S)
    assert scaled == pytest.approx(net / 2)


def test_stored_tampered_certificates_are_rejected_by_the_full_checks():
    """verify-stored's tampered certificates keep a valid digest; verify must rebuild and reject them."""
    refs = load_refs()
    cmds = [c for c in build("verify-stored", 0, OUT) if "-bad-" in c.key]
    assert len(cmds) == 2
    outcomes = run_pass(cli, cmds)
    assert [o.code for o in outcomes] == [1, 1]
    failed, reasons, unreferenced = evaluate(cmds, [[o] for o in outcomes], refs)
    assert (failed, reasons, unreferenced) == (0, [], [])
    by_key = {c.key: o.stdout for c, o in zip(cmds, outcomes)}
    assert by_key["verify-stored/unif-M5-bad-dual"].startswith("certificate INVALID: dual infeasible")
    assert by_key["verify-stored/aka-M5-bad-primal"].startswith("certificate INVALID: witness violates row")
    # a verify that accepted it, or rejected it for another reason, fails the gate
    for cmd, o in zip(cmds, outcomes):
        for wrong in (dataclasses.replace(o, code=0, stdout="certificate valid\n"),
                      dataclasses.replace(o, stdout="certificate INVALID: digest mismatch\n")):
            assert _failed_frac(cmd, [wrong], refs) == 1
            assert _failed_frac(cmd, [wrong], {}) == 1


def test_lost_pair_count_is_a_failure():
    counts = {"measures.pairs_examined": 0, SEARCHES: 1}
    assert lost_count(counts) is not None
    assert lost_count({**counts, "measures.pairs_examined": 6561}) is None
    assert lost_count({**counts, SEARCHES: 0}) is None
