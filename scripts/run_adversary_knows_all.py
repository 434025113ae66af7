#!/usr/bin/env python3
"""Certification sweep for the adversary-knows-all bit.

The input distribution is g(a, a, a) = 1/2: the honest parties share a
uniform correlated bit that the adversary knows exactly, so its secret bit
fraction is 0 and intuition says it should certify as undistillable.  This
script reports the exact optimum for each deterministic family prefix and
leaves verified certificates behind.  The prefixes stay inconclusive (1/4
from M = 1 on at lambda0 = 1/2), but a two-pair family does certify it: the
copy-projection pairs 1863 and 4941 of the canonical order give
UNDISTILLABLE at M = 2 (tests/test_certifier.py pins that certificate).

Usage:
    python scripts/run_adversary_knows_all.py [--max-m 6] [--out-dir out/eka]
"""

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nodistill.certifier import certify, verify_certificate
from nodistill.families import deterministic_family
from nodistill.probvec import Axis, JointDist
from nodistill.rat import format_rational, parse_rational


def adversary_knows_all() -> JointDist:
    half = Fraction(1, 2)
    return JointDist(
        (Axis("A", 2), Axis("B", 2), Axis("E", 2)),
        {(0, 0, 0): half, (1, 1, 1): half},
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-m", type=int, default=6, help="largest family prefix to test")
    ap.add_argument("--out-dir", default="out/adversary_knows_all")
    ap.add_argument("--lambda0", type=parse_rational, default="1/2")
    args = ap.parse_args()

    g = adversary_knows_all()
    lam0 = args.lambda0
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "g.json").write_text(g.dumps())

    print("M\tverdict\toptimum\tseconds")
    for m in range(args.max_m + 1):
        family = deterministic_family(2, 2, cap=m)
        t0 = time.perf_counter()
        cert = certify(g, family, lambda0=lam0)
        dt = time.perf_counter() - t0
        assert verify_certificate(g, family, lam0, cert), "fresh certificate must verify"
        (out_dir / f"family_m{m}.json").write_text(family.dumps())
        (out_dir / f"cert_m{m}.json").write_text(cert.dumps())
        print(f"{m}\t{cert.verdict}\t{format_rational(cert.optimum)}\t{dt:.2f}")
    print(f"certificates written to {out_dir}/", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
