#!/usr/bin/env python3
"""Mutation check of the checkers, the input decoders, build_lp's row dedup, the
simplex tableau's row scans and the stage-1 search: every mutant below must
fail a test.

A mutant is one exact string replacement in one file: (name, file, old, new).
The runner copies src/, tests/, scripts/, pyproject.toml and the stored
certificates the tests read (perfbench/stored/) to a temporary directory and
runs `python -m pytest -x -q tests` there (less the test that checks this
list against the tree), first unmutated (which must pass), then once per
mutant on a fresh copy with that one replacement applied, printing
the first test that failed.  A mutant whose run passes has survived: the tests
do not pin the check it breaks.  The exit code is 1 if any mutant survived.
A full run takes about a minute per mutant; it is not part of the test suite.

Usage:
    python scripts/mutants.py
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "pyproject.toml", "perfbench/stored")
# It checks the mutant list against the tree it runs in, so every mutated copy
# fails it; it is left out of mutant runs, or every mutant would count as killed.
STALENESS_TEST = "tests/test_scripts.py::test_every_mutant_applies_exactly_once"

RATLP = "src/nodistill/ratlp.py"
CERTIFIER = "src/nodistill/certifier.py"
RAT = "src/nodistill/rat.py"
CLI = "src/nodistill/cli.py"
MEASURES = "src/nodistill/measures.py"

MUTANTS = (
    # verify_certificate
    ("unknown-verdict", CERTIFIER,
     'return fail(f"unknown verdict {cert.verdict!r}")', "pass"),
    ("undistillable-optimum-boundary", CERTIFIER,
     "if cert.optimum > 0:", "if cert.optimum > 1:"),
    ("inconclusive-optimum-boundary", CERTIFIER,
     "if cert.optimum <= 0:", "if cert.optimum < 0:"),
    ("witness-axes-unchecked", CERTIFIER,
     "if cert.primal.axes != setup.q_axes():", "if False:"),
    ("fingerprint-unchecked", CERTIFIER,
     "if cert.fingerprint != problem_fingerprint(g, family, lambda0):", "if False:"),
    ("digest-unchecked", CERTIFIER,
     "if cert.digest != _certificate_digest(cert):", "if False:"),
    ("size-guard-boundary", CERTIFIER,
     "if dm > self.max_dm:", "if dm > self.max_dm + 1:"),
    ("certify-self-check-skipped", CERTIFIER,
     "if not ratlp.check_solution(build.problem, sol):", "if False:"),
    # build_lp
    ("row-key-without-block", CERTIFIER,
     "key = tuple((k, keys[(k >> shift) & 1]) for k in ks",
     "key = tuple(keys[(k >> shift) & 1] for k in ks"),
    # ratlp.violation and the problem it checks against
    ("negative-entry-allowed", RATLP,
     "            if v < 0:\n", "            if v < -1:\n"),
    ("equality-row-as-le", RATLP,
     "if lhs > row.rhs if row.sense == SENSE_LE else lhs != row.rhs:", "if lhs > row.rhs:"),
    ("le-row-off-by-one", RATLP,
     "if lhs > row.rhs if row.sense", "if lhs > row.rhs + 1 if row.sense"),
    ("objective-unchecked", RATLP,
     "if obj != value:", "if False:"),
    ("short-dual-allowed", RATLP,
     "if len(y) != len(problem.rows):", "if len(y) > len(problem.rows):"),
    ("multiplier-sign-on-any-row", RATLP,
     "if row.sense == SENSE_LE and yr < 0:", "if yr < 0:"),
    ("multiplier-sign-unchecked", RATLP,
     "if row.sense == SENSE_LE and yr < 0:", "if False:"),
    ("negative-multipliers-skipped", RATLP,
     "            if yr:\n", "            if yr > 0:\n"),
    ("objective-columns-unchecked", RATLP,
     "if total * c.denominator < c.numerator * d:", "if False:"),
    ("outside-columns-unchecked", RATLP,
     "if j not in problem.objective and total < 0:", "if False:"),
    ("bound-unchecked", RATLP,
     "if bound != value:", "if False:"),
    ("row-variable-range-unchecked", RATLP,
     'raise ValueError(f"row {r} references variable {j} out of range")', "pass"),
    ("lp-row-accepts-any-value", RATLP,
     "return c if type(c) in (int, Fraction) else ensure_fraction(c)", "return c"),
    ("int-row-admits-bools", RATLP,
     "set(map(type, coeffs.values())) <= types", "set(map(type, coeffs.values())) <= types | {bool}"),
    ("dual-denominator-without-row", RATLP,
     "den = yr.denominator * scale", "den = yr.denominator"),
    ("lp-row-truncates-keys", RATLP,
     'raise ValueError(f"variable index must be an int, got {j!r}")\n    return {j: convert(c)',
     "pass\n    return {int(j): convert(c)"),
    # the simplex tableau's row scans
    ("pivot-skips-objective-row", RATLP,
     "for rr, row in enumerate(self.rows):", "for rr, row in enumerate(self.rows[:self.m]):"),
    ("pivot-clears-later-rows-only", RATLP,
     "if j in row and rr != r:", "if j in row and rr > r:"),
    ("ratio-tie-to-greatest-basic", RATLP,
     "basis[r] > basis[leaving]", "basis[r] < basis[leaving]"),
    # input decoding
    ("rational-underscores", RAT,
     '(?P<num>[+-]?[0-9]+)', '(?P<num>[+-]?[0-9_]+)'),
    ("rational-zero-denominator", RAT,
     "if den == 0:", "if den < 0:"),
    ("manifest-unknown-keys", CLI,
     '_known_keys(entry, "manifest entry", ("g", "family", "lambda0"))', "pass"),
    ("manifest-g-any-type", CLI,
     "if not isinstance(g_path, str):", "if False:"),
    # the stage-1 search
    ("best-pair-tie-to-last", MEASURES,
     "if best is None or num * best[1] > best[0] * den:",
     "if best is None or num * best[1] >= best[0] * den:"),
    ("coin-mass-not-doubled", MEASURES,
     "mass += mass_a[y] * len(OUTPUTS[action])", "mass += mass_a[y]"),
    ("distillable-at-lambda0", MEASURES,
     "if num * lambda0.denominator > lambda0.numerator * den:",
     "if num * lambda0.denominator >= lambda0.numerator * den:"),
)


def run_tests(tree: Path) -> str | None:
    """The first failing test's id, or None if the tests pass."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--deselect",
         STALENESS_TEST, "tests"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode == 0:
        return None
    return first_failure(proc.stdout) or f"pytest exit {proc.returncode}"


def first_failure(stdout: str) -> str | None:
    """The test id of pytest's first FAILED or ERROR summary line, or None.

    A summary line is "FAILED <id> - <message>", and a parametrised id may
    hold spaces, so the id is all of the text up to the first " - ".
    """
    for line in stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.partition(" ")[2].partition(" - ")[0]
    return None


def copy_tree(dest: Path) -> Path:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)
    return dest


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        failed = run_tests(copy_tree(Path(tmp) / "base"))
        if failed:
            print(f"the unmutated tree fails {failed}; fix that first")
            return 2
        survivors = []
        for i, (name, file, old, new) in enumerate(MUTANTS):
            tree = copy_tree(Path(tmp) / f"m{i}")
            path = tree / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name}: the old string occurs {text.count(old)} times in {file}")
                return 2
            path.write_text(text.replace(old, new))
            t0 = time.perf_counter()
            killer = run_tests(tree)
            print(f"{name}\t{f'killed by {killer}' if killer else 'SURVIVED'}\t"
                  f"{time.perf_counter() - t0:.0f}s", flush=True)
            if not killer:
                survivors.append(name)
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
