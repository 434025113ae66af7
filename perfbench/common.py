"""Paths, program import, environment record and seeded input generators."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import platform
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STORED = HERE / "stored"
REFS = HERE / "refs.json"
OUT = ROOT / ".perfbench_out"

KNOWN_GAPS = (
    "lambda-max passes no --refine-rounds: measures._refine is undefined at the "
    "commit the references were recorded at",
    "the batch command is not measured",
    "the lifting module is not reached by any command and has no metric",
    "rat is called at too fine a grain to time from outside; its cost shows in "
    "its callers' self time",
    "phase-1/phase-2 pivot counts and the time split between phases are not "
    "visible through the public API",
)


class ProgramMissing(RuntimeError):
    """The checkout has no importable nodistill package under src/."""


def import_program():
    """Import nodistill from this checkout's src/ and nowhere else."""
    if not (SRC / "nodistill" / "__init__.py").is_file():
        raise ProgramMissing(f"no nodistill package under {SRC}")
    sys.path.insert(0, str(SRC))
    import nodistill

    if Path(nodistill.__file__).resolve().parent != (SRC / "nodistill").resolve():
        raise ProgramMissing(f"nodistill imported from {nodistill.__file__}, not from {SRC}")
    return nodistill


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        import gmpy2  # noqa: F401

        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {
        "python": platform.python_version(),
        "gmpy2_importable": has_gmpy2,
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": git_commit(),
        "known_gaps": list(KNOWN_GAPS),
    }


# -- distributions --------------------------------------------------------------


def named_distributions() -> dict:
    from nodistill.probvec import Axis, JointDist

    half, quarter = Fraction(1, 2), Fraction(1, 4)
    return {
        # the honest bit that the adversary knows fully
        "aka": JointDist(
            (Axis("A", 2), Axis("B", 2), Axis("E", 2)),
            {(0, 0, 0): half, (1, 1, 1): half},
        ),
        # independent uniform bits, trivial adversary
        "unif": JointDist(
            (Axis("A", 2), Axis("B", 2), Axis("E", 1)),
            {(a, b, 0): quarter for a in range(2) for b in range(2)},
        ),
    }


def random_tripartite(rng: random.Random, d: int, denom_max: int = 12):
    """Binary honest alphabets, adversary alphabet d, entries num/den or zero."""
    from nodistill.probvec import Axis, JointDist

    entries = {}
    for idx in itertools.product(range(2), range(2), range(d)):
        den = rng.randint(1, denom_max)
        num = rng.randint(0, den)
        if num:
            entries[idx] = Fraction(num, den)
    if not entries:
        entries[(0, 0, 0)] = Fraction(1)
    return JointDist((Axis("A", 2), Axis("B", 2), Axis("E", d)), entries)


def random_full_support(rng: random.Random, sizes: tuple[int, int, int], denom: int = 12):
    """Every entry k/denom with k uniform in 1..denom.

    One denominator keeps the cost of exact sums the same from seed to seed.
    """
    from nodistill.probvec import Axis, JointDist

    entries = {
        idx: Fraction(rng.randint(1, denom), denom)
        for idx in itertools.product(*(range(s) for s in sizes))
    }
    axes = tuple(Axis(p, s) for p, s in zip(("A", "B", "E"), sizes))
    return JointDist(axes, entries)


def relabel_adversary(g, perm: tuple[int, ...]):
    """g with adversary symbol e renamed perm[e]; every optimum is unchanged."""
    from nodistill.probvec import JointDist

    return JointDist(g.axes, {(a, b, perm[e]): v for (a, b, e), v in g.items()})


def resealed(cert):
    """cert with its content digest recomputed for its current body.

    The digest is the SHA-256 of the body's canonical JSON, as the program
    computes it; a changed certificate that is resealed passes the digest
    check, so only the substantive primal or dual check can reject it.
    """
    blob = json.dumps(cert.body_json_dict(), sort_keys=True, separators=(",", ":")).encode()
    return dataclasses.replace(cert, digest=hashlib.sha256(blob).hexdigest())
