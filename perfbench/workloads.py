"""The four workloads: seeded inputs and the nodistill commands run on them.

Each workload turns a seed into input files and a list of commands, run in
order by one client (closed loop).  The program sees only the files.

Solve time of a random certification program varies over an order of
magnitude between random draws (0.06-1.2 s at d = 2, M = 2; 1.5-8 s at
d = 3, M = 3), which would swamp any change the benchmark is meant to show.
So the two certify workloads draw their distributions once, from fixed
per-instance seeds.  In certify-det the workload seed renames each
distribution's adversary alphabet: that keeps every program's size and
optimum, changes its variable order, pivot path and certificate bytes, and
moves its solve time by at most about 15%.  In sweep-randfam renaming moves
single solves by up to 2x (0.96 s against 1.87 s), so there the seed only
sets the order of the 10 commands.  verify-stored's seed orders its six
commands.  lambda-max enumerates every map pair whatever the values, so its
distributions are drawn from the workload seed itself.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from common import (
    STORED,
    named_distributions,
    random_full_support,
    random_tripartite,
    relabel_adversary,
)

NAMES = ("certify-det", "sweep-randfam", "verify-stored", "lambda-max")

SWEEP_INSTANCES = 10
VALID = "certificate valid"
# verify-stored: (certificate name, g, M, how verify's stdout must begin) of the
# committed triples; see stored/PROVENANCE.json.  The last two certificates
# are copies of the M = 5 ones with one number changed and the digest
# recomputed, so that only the full dual or primal check can reject them.
STORED_TRIPLES = (
    ("aka-M5", "aka", 5, VALID),
    ("aka-M6", "aka", 6, VALID),
    ("unif-M5", "unif", 5, VALID),
    ("unif-M6", "unif", 6, VALID),
    ("unif-M5-bad-dual", "unif", 5, "certificate INVALID: dual infeasible at variable "),
    ("aka-M5-bad-primal", "aka", 5, "certificate INVALID: witness violates row "),
)


@dataclass(frozen=True)
class Command:
    """One nodistill invocation plus what the checks need to know about it."""

    key: str  # reference key: workload/instance/variant
    argv: tuple[str, ...]
    g_path: Path
    family: Callable[[], object] | None = None  # the family certify generates
    cert_path: Path | None = None  # where a certify command writes its certificate
    expect_exit: int = 0
    expect_stdout: str | None = None  # how a verify command's stdout must begin


def build(name: str, seed: int, workdir: Path) -> list[Command]:
    """Write the workload's inputs for this seed into workdir; return its commands."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}/{seed}")
    if name == "certify-det":
        return _certify_det(rng, workdir)
    if name == "sweep-randfam":
        return _sweep_randfam(rng, workdir)
    if name == "verify-stored":
        return _verify_stored(rng)
    if name == "lambda-max":
        return _lambda_max(rng, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


def _write_dist(dist, path: Path) -> Path:
    """Write a distribution and read it back, as the program will."""
    from nodistill.probvec import JointDist

    text = dist.dumps()
    path.write_text(text)
    if JointDist.loads(path.read_text()) != dist:
        raise RuntimeError(f"{path} does not read back as written")
    return path


def _certify_cmd(key, g, family_args, family, workdir, stem) -> Command:
    g_path = _write_dist(g, workdir / f"{stem}.g.json")
    cert_path = workdir / f"{stem}.cert.json"
    argv = ("certify", str(g_path), *family_args, "--out", str(cert_path))
    return Command(key=key, argv=argv, g_path=g_path, family=family, cert_path=cert_path)


def _variant(perm) -> str:
    return "e" + "".join(map(str, perm))


def _relabelled(rng: random.Random, g):
    d = g.axis("E").size
    perm = tuple(rng.sample(range(d), d))
    return relabel_adversary(g, perm), _variant(perm)


def _det_problems():
    named = named_distributions()
    return (
        ("aka-M4", named["aka"], 4),  # phase-1 heavy, INCONCLUSIVE at 1/4
        ("unif-M4", named["unif"], 4),  # UNDISTILLABLE, dual certificate
        ("rand3-M3", random_tripartite(random.Random("certify-det/rand3"), 3), 3),
    )


def _sweep_instances():
    return tuple(
        (i, random_tripartite(random.Random(f"sweep-randfam/g{i}"), 2)) for i in range(SWEEP_INSTANCES)
    )


def relabelled_keys() -> set[str]:
    """Every key certify-det can produce, whatever the seed."""
    return {
        f"certify-det/{name}/{_variant(perm)}"
        for name, g, _ in _det_problems()
        for perm in itertools.permutations(range(g.axis("E").size))
    }


def _certify_det(rng, workdir) -> list[Command]:
    from nodistill.families import deterministic_family

    cmds = []
    for name, g, m in _det_problems():
        g2, variant = _relabelled(rng, g)
        cmds.append(_certify_cmd(
            f"certify-det/{name}/{variant}", g2,
            ("--gen", "deterministic", "--M", str(m)),
            functools.partial(deterministic_family, 2, 2, cap=m), workdir, name,
        ))
    return cmds


def _sweep_randfam(rng, workdir) -> list[Command]:
    from nodistill.families import random_filter_family

    cmds = []
    for i, g in rng.sample(_sweep_instances(), SWEEP_INSTANCES):
        cmds.append(_certify_cmd(
            f"sweep-randfam/i{i:02d}", g,
            ("--gen", "random", "--M", "2", "--denom-bound", "4", "--seed", str(i)),
            functools.partial(random_filter_family, 2, 2, m=2, seed=i, denom_bound=4),
            workdir, f"i{i:02d}",
        ))
    return cmds


def _verify_stored(rng) -> list[Command]:
    """Load each committed triple and check the certificate was issued for it."""
    from nodistill import certifier
    from nodistill.families import MapFamily
    from nodistill.probvec import JointDist

    cmds = []
    for name, g_name, m, expect in rng.sample(STORED_TRIPLES, len(STORED_TRIPLES)):
        g_path = STORED / f"g_{g_name}.json"
        fam_path = STORED / f"family_M{m}.json"
        cert_path = STORED / f"cert_{name}.json"
        g = JointDist.loads(g_path.read_text())
        family = MapFamily.loads(fam_path.read_text())
        cert = certifier.Certificate.loads(cert_path.read_text())
        if cert.fingerprint != certifier.problem_fingerprint(g, family, cert.lambda0):
            raise RuntimeError(f"{cert_path} was not issued for ({g_path.name}, {fam_path.name})")
        argv = ("verify", str(g_path), str(fam_path), str(cert_path))
        cmds.append(Command(
            key=f"verify-stored/{name}", argv=argv, g_path=g_path,
            expect_exit=0 if expect == VALID else 1, expect_stdout=expect,
        ))
    return cmds


def _lambda_max(rng, seed, workdir) -> list[Command]:
    from nodistill.probvec import tensor_power

    dists = [(f"p{e}", random_full_support(rng, (4, 4, e))) for e in (2, 3)]
    dists.append(("g2x2x2-pow2", tensor_power(random_full_support(rng, (2, 2, 2)), 2)))
    cmds = []
    for name, p in dists:
        g_path = _write_dist(p, workdir / f"{name}.json")
        cmds.append(Command(key=f"lambda-max/s{seed}/{name}", argv=("lambda-max", str(g_path)), g_path=g_path))
    return cmds


def witness_fraction(p, witness: dict) -> Fraction:
    """Secret bit fraction of p filtered by a printed witness, computed here.

    Independent of nodistill.measures: the lower bound lambda-max prints must
    be attained by the maps it prints.
    """
    map_a = [[Fraction(c) for c in row] for row in witness["map_a"]["coeffs"]]
    map_b = [[Fraction(c) for c in row] for row in witness["map_b"]["coeffs"]]
    pos_a, pos_b = p.axis_pos("A"), p.axis_pos("B")
    diag: dict[tuple, list[Fraction]] = {}
    mass = Fraction(0)
    for idx, v in p.items():
        eve = tuple(i for n, i in enumerate(idx) if n not in (pos_a, pos_b))
        for a in range(2):
            for b in range(2):
                w = v * map_a[a][idx[pos_a]] * map_b[b][idx[pos_b]]
                mass += w
                if a == b and w:
                    diag.setdefault(eve, [Fraction(0), Fraction(0)])[a] += w
    return 2 * sum((min(c) for c in diag.values()), Fraction(0)) / mass
