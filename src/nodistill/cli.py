"""Command-line front end.

Commands: lambda, lambda-max, certify, verify, batch, gen-family.
Exit codes: 0 = completed (any verdict), 1 = certificate INVALID (verify),
2 = input error, 3 = size-guard refusal, 4 = solver or internal failure.
Verdicts are results, not errors.  All stdout output is byte-deterministic
for fixed inputs and flags; timings go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import certifier, families, measures, ratlp
from .probvec import JointDist, _json_int, _json_list, _json_object, _json_str
from .rat import format_rational, parse_rational

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_SOLVER = 4
_STDERR_PREFIX = {EXIT_GUARD: "refused", EXIT_INPUT: "error", EXIT_SOLVER: "solver failure"}
GENERATORS = ("deterministic", "random")
GEN_FIELDS = ("M", "seed", "denom_bound")


def _exit_code(exc: Exception) -> int:
    """The exit code of a refusal: the size guard 3, an input error 2, anything else 4."""
    if isinstance(exc, certifier.SizeGuardError):
        return EXIT_GUARD
    return EXIT_INPUT if isinstance(exc, ValueError) else EXIT_SOLVER


def _read(kind: str, path: str, loads):
    """loads(text of path); a failure becomes one line naming the file and why.

    JSON nested deeper than the interpreter's recursion limit is refused too.
    """
    try:
        return loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read {kind} {path}: {exc}") from exc


def _write(kind: str, path: str, text: str):
    """Write text to path; a failure becomes one line naming the file and why."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {kind} {path}: {exc}") from exc


def _load_dist(path: str) -> JointDist:
    return _read("distribution", path, JointDist.loads)


def _load_family(path: str) -> families.MapFamily:
    return _read("family", path, families.MapFamily.loads)


def _parse_lambda0(text: str) -> Fraction:
    lam = parse_rational(text)
    if not (Fraction(1, 2) <= lam < 1):
        raise ValueError(f"lambda0 must lie in [1/2, 1), got {text}")
    return lam


def _family_for(args, g: JointDist) -> families.MapFamily:
    """Resolve --family / --gen flags against g's alphabet sizes."""
    if args.family is not None:
        for name in ("gen", *GEN_FIELDS):
            if getattr(args, name) is not None:
                raise ValueError(f"--family and --{name.replace('_', '-')} cannot be combined")
        return _load_family(args.family)
    if args.gen is None:
        raise ValueError("need --family PATH or --gen deterministic|random")
    sizes = certifier.alphabet_sizes(g)
    return _generate(args.gen, sizes, args.M, args.seed, args.denom_bound)


def _generate(kind, sizes, m, seed, denom_bound) -> families.MapFamily:
    """A `kind` family on the copy alphabets of sizes = (|A|, |B|, d), drawn only
    after the size guard has passed it.

    Its size M is required; a field the kind does not read is refused.
    """
    if kind not in GENERATORS:
        raise ValueError(f"unknown generator {kind!r}")
    unread = {"seed": seed, "denom_bound": denom_bound} if kind == "deterministic" else {}
    for name, value in unread.items():
        if value is not None:
            raise ValueError(f"{kind} family generation does not read {name}")
    if m is None:
        raise ValueError(f"{kind} family generation needs --M")
    certifier.check_size_guard(*sizes, m)
    if kind == "deterministic":
        return families.deterministic_family(sizes[0], sizes[1], m)
    return families.random_filter_family(
        sizes[0], sizes[1], m=m, seed=seed if seed is not None else 0,
        denom_bound=denom_bound if denom_bound is not None else 4,
    )


# -- commands -----------------------------------------------------------------


def cmd_lambda(args) -> int:
    print(format_rational(measures.secret_bit_fraction(_load_dist(args.dist))))
    return EXIT_OK


def cmd_lambda_max(args) -> int:
    p = _load_dist(args.dist)
    witness = measures.estimate_lambda_max(p, args.refine_rounds)
    print(f"lower bound {format_rational(witness.value)}")
    print(json.dumps(witness.to_json_dict(), indent=1, sort_keys=True))
    return EXIT_OK


def cmd_certify(args) -> int:
    g = _load_dist(args.g)
    family = _family_for(args, g)
    lambda0 = _parse_lambda0(args.lambda0)
    t0 = time.perf_counter()
    if args.dump_lp is not None:
        build = certifier.build_lp(certifier.CertificationProblem(g, family, lambda0))
        _write("program", args.dump_lp, ratlp.dump_lp(build.problem))
        cert = certifier.certify_lp(build)
    else:
        cert = certifier.certify(g, family, lambda0=lambda0)
    if args.out is not None:
        _write("certificate", args.out, cert.dumps())
    print(f"solved in {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    if cert.verdict == certifier.UNDISTILLABLE:
        print("UNDISTILLABLE")
    else:
        print(f"INCONCLUSIVE optimum={format_rational(cert.optimum)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load_dist(args.g)
    family = _load_family(args.family)
    cert = _read("certificate", args.cert, certifier.Certificate.loads)
    lambda0 = _parse_lambda0(args.lambda0) if args.lambda0 is not None else cert.lambda0
    result = certifier.verify_certificate(g, family, lambda0, cert)
    if result:
        print("certificate valid")
        return EXIT_OK
    print(f"certificate INVALID: {result.failure}")
    return EXIT_INVALID


def _batch_row(entry: dict, base: Path):
    entry = _json_object(entry, "manifest entry", ("g", "family"), ("lambda0",))
    g_path = _json_str(entry["g"], "manifest g")
    g = _load_dist(str(base / g_path))
    fam_spec = entry["family"]
    if isinstance(fam_spec, str):
        family = _load_family(str(base / fam_spec))
        fam_desc = fam_spec
    elif not isinstance(fam_spec, dict):
        raise ValueError(f"family must be a path or an object, got {json.dumps(fam_spec)}")
    else:
        _json_object(fam_spec, "family", ("gen",), GEN_FIELDS)
        gen = _json_str(fam_spec["gen"], "family gen")
        ints = [
            None if fam_spec.get(k) is None else _json_int(fam_spec[k], f"family {k}")
            for k in GEN_FIELDS
        ]
        family = _generate(gen, certifier.alphabet_sizes(g), *ints)
        fam_desc = json.dumps(fam_spec, sort_keys=True, separators=(",", ":"))
    lambda0 = _parse_lambda0(entry.get("lambda0", "1/2"))
    cert = certifier.certify(g, family, lambda0=lambda0)
    return (g_path, fam_desc, format_rational(lambda0), cert.verdict, format_rational(cert.optimum))


def cmd_batch(args) -> int:
    base = Path(args.manifest).parent
    manifest = _read("manifest", args.manifest,
                     lambda text: _json_list(json.loads(text), "manifest"))

    results = []
    for entry in manifest:
        t0 = time.perf_counter()
        g = entry.get("g") if isinstance(entry, dict) else None
        label = g if isinstance(g, str) else "?"
        try:
            row, code = _batch_row(entry, base), EXIT_OK
        except (ValueError, RuntimeError) as exc:
            row, code = (label, "?", "?", "ERROR", str(exc)), _exit_code(exc)
        results.append((row, code, time.perf_counter() - t0))

    rows = sorted(r for r, _, _ in results)
    print("g\tfamily\tlambda0\tverdict\toptimum")
    for row in rows:
        print("\t".join(row))
    for (row, _, dt) in sorted(results):
        print(f"timing\t{row[0]}\t{dt:.2f}s", file=sys.stderr)
    worst = max((code for _, code, _ in results), default=EXIT_OK)
    return worst


def cmd_gen_family(args) -> int:
    for flag, size in (("--a-copy", args.a_copy), ("--b-copy", args.b_copy)):
        if size < 1:
            raise ValueError(f"{flag} must be >= 1, got {size}")
    # every g has d >= 1: guard at d = 1, so a family no g can be certified with is refused
    sizes = (args.a_copy, args.b_copy, 1)
    fam = _generate(args.gen, sizes, args.M, args.seed, args.denom_bound)
    text = fam.dumps()
    if args.out is not None:
        _write("family", args.out, text)
    else:
        print(text, end="")
    return EXIT_OK


# -- argument plumbing ---------------------------------------------------------


def _add_family_flags(sp, gen_required: bool):
    sp.add_argument("--gen", choices=GENERATORS, required=gen_required, help="generate the family")
    sp.add_argument("--M", type=int, default=None, help="family size for generation")
    sp.add_argument("--seed", type=int, default=None, help="seed for random generation")
    sp.add_argument("--denom-bound", type=int, default=None, dest="denom_bound",
                    help="coefficient grid 0, 1/b, ..., 1 for random generation")


def _path(text: str) -> str:
    """A path argument: the empty string names no file, and is refused before any work."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusal is one stderr line, without the usage line."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="nodistill",
        description="Exact-rational certification that secret correlations cannot be distilled",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("lambda", help="secret bit fraction of a distribution")
    sp.add_argument("dist", type=_path)
    sp.set_defaults(func=cmd_lambda)

    sp = sub.add_parser("lambda-max", help="witnessed lower bound on the extractable fraction")
    sp.add_argument("dist", type=_path)
    sp.add_argument("--refine-rounds", type=int, default=0, dest="refine_rounds")
    sp.set_defaults(func=cmd_lambda_max)

    sp = sub.add_parser("certify", help="run the certification program")
    sp.add_argument("g", type=_path)
    sp.add_argument("--family", type=_path, help="path to a family JSON file")
    _add_family_flags(sp, gen_required=False)
    sp.add_argument("--lambda0", default="1/2")
    sp.add_argument("--out", type=_path, help="write the certificate JSON here")
    sp.add_argument("--dump-lp", type=_path, dest="dump_lp",
                    help="also write the assembled program in text form")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("verify", help="re-verify a certificate")
    sp.add_argument("g", type=_path)
    sp.add_argument("family", type=_path)
    sp.add_argument("cert", type=_path)
    sp.add_argument("--lambda0", default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("batch", help="run a manifest of certifications")
    sp.add_argument("manifest", type=_path)
    sp.set_defaults(func=cmd_batch)

    sp = sub.add_parser("gen-family", help="generate and save a map family")
    sp.add_argument("--a-copy", type=int, required=True, dest="a_copy")
    sp.add_argument("--b-copy", type=int, required=True, dest="b_copy")
    _add_family_flags(sp, gen_required=True)
    sp.add_argument("--out", type=_path)
    sp.set_defaults(func=cmd_gen_family)

    return ap


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        code = _exit_code(exc)
        print(f"{_STDERR_PREFIX[code]}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
