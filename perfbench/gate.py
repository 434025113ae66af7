"""Output checks: reference bytes, repeat identity and independent rechecks.

A command fails when its exit code, its stdout or its certificate bytes differ
from the reference recorded for its key, when its output differs from its
first run in the same benchmark run (traced runs included), or when the independent
recheck rejects it: verify_certificate for a fresh certificate, an exact
recomputation of the printed witness for lambda-max, and the verdict a
stored certificate is known to deserve for verify.  Keys without a
reference (lambda-max seeds that were not recorded) get the last two checks
only.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from common import REFS
from workloads import Command, witness_fraction


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: str
    cert: bytes | None
    seconds: float  # wall time, less the probes sampled inside it (hostspeed.py)
    scaled: float | None = None  # wall time at the reference host speed (hostspeed.py)


def sha256(data: str | bytes | None) -> str | None:
    if data is None:
        return None
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def reference_of(outcome: Outcome) -> dict:
    return {
        "exit": outcome.code,
        "stdout_sha256": sha256(outcome.stdout),
        "stdout_head": outcome.stdout.splitlines()[0] if outcome.stdout else "",
        "cert_sha256": sha256(outcome.cert),
    }


def load_refs() -> dict:
    return json.loads(REFS.read_text())["commands"]


def _against_reference(cmd: Command, outcome: Outcome, ref: dict | None) -> str | None:
    if ref is None:
        return None if outcome.code == cmd.expect_exit else f"exit code {outcome.code}"
    if outcome.code != ref["exit"]:
        return f"exit code {outcome.code}, reference {ref['exit']}"
    if sha256(outcome.stdout) != ref["stdout_sha256"]:
        return f"stdout differs from reference (first line {ref['stdout_head']!r})"
    if sha256(outcome.cert) != ref["cert_sha256"]:
        return "certificate bytes differ from reference"
    return None


def _recheck(cmd: Command, outcome: Outcome) -> str | None:
    """Check the output against the inputs without trusting the solver."""
    from nodistill import certifier
    from nodistill.probvec import JointDist
    from nodistill.rat import format_rational

    if cmd.cert_path is not None:
        if outcome.cert is None:
            return "no certificate written"
        g = JointDist.loads(cmd.g_path.read_text())
        cert = certifier.Certificate.loads(outcome.cert.decode())
        result = certifier.verify_certificate(g, cmd.family(), Fraction(1, 2), cert)
        if not result:
            return f"certificate fails verification: {result.failure}"
        verdict = (
            "UNDISTILLABLE" if cert.verdict == certifier.UNDISTILLABLE
            else f"INCONCLUSIVE optimum={format_rational(cert.optimum)}"
        )
        if outcome.stdout != verdict + "\n":
            return f"stdout {outcome.stdout!r} does not state the certificate's verdict"
    elif cmd.argv[0] == "verify":
        if outcome.code != cmd.expect_exit or not outcome.stdout.startswith(cmd.expect_stdout):
            return f"verify printed {outcome.stdout!r} (exit {outcome.code}), expected {cmd.expect_stdout!r}"
    elif cmd.argv[0] == "lambda-max":
        head, _, body = outcome.stdout.partition("\n")
        if not head.startswith("lower bound "):
            return f"unexpected stdout {head!r}"
        bound = Fraction(head[len("lower bound "):])
        witness = json.loads(body)
        p = JointDist.loads(cmd.g_path.read_text())
        if Fraction(witness["value"]) != bound or witness_fraction(p, witness) != bound:
            return "printed witness does not attain the printed lower bound"
    return None


def evaluate(commands: list[Command], runs: list[list[Outcome]], refs: dict):
    """Check runs[c], every outcome of commands[c].

    Returns (failed executions, failure reasons, keys without a reference).
    """
    failed = 0
    reasons = []
    unreferenced = [c.key for c in commands if c.key not in refs]
    for cmd, outcomes in zip(commands, runs):
        first = outcomes[0]
        rechecked: dict[tuple, str | None] = {}
        for n, o in enumerate(outcomes):
            why = _against_reference(cmd, o, refs.get(cmd.key))
            if why is None and (o.code, o.stdout, o.cert) != (first.code, first.stdout, first.cert):
                why = "output differs from the first run of this command"
            if why is None:
                key = (sha256(o.stdout), sha256(o.cert))
                if key not in rechecked:
                    try:
                        rechecked[key] = _recheck(cmd, o)
                    except (ValueError, KeyError, UnicodeDecodeError) as exc:
                        rechecked[key] = f"output cannot be read back: {exc!r}"
                why = rechecked[key]
            if why is not None:
                failed += 1
                reasons.append(f"{cmd.key} (run {n}): {why}")
    return failed, reasons, unreferenced
