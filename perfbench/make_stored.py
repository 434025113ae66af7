#!/usr/bin/env python3
"""Write the stored (g, family, certificate) triples of the verify-stored workload.

The certificates are made once with the nodistill command line and committed,
because solving the M = 6 programs takes minutes and the benchmark's set-up
must not.  Two more certificates are copies of the M = 5 ones with one
number changed and the digest recomputed; verify must reject them.  Run from
the repository root:

    python3 perfbench/make_stored.py

The file perfbench/stored/PROVENANCE.json records every command run, every
change made and the git commit of the program that ran it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, STORED, git_commit, import_program, named_distributions, resealed  # noqa: E402
from workloads import STORED_TRIPLES, VALID  # noqa: E402


def raise_first_multiplier(cert):
    """Add 1 to the first nonzero dual multiplier."""
    dual = list(cert.dual)
    r = next(i for i, y in enumerate(dual) if y)
    dual[r] += 1
    return dataclasses.replace(cert, dual=tuple(dual)), f"dual multiplier {r} raised by 1"


def shift_first_witness_entry(cert):
    """Move the first witness entry to the next selector block."""
    from nodistill.probvec import JointDist

    q = cert.primal
    entries = dict(q.items())
    idx = min(entries)
    moved = (*idx[:-1], (idx[-1] + 1) % q.axes[-1].size)
    entries[moved] = entries.get(moved, 0) + entries.pop(idx)
    return dataclasses.replace(cert, primal=JointDist(q.axes, entries)), f"witness mass at {idx} moved to {moved}"


# tampered certificate -> (certificate it is copied from, change)
TAMPERED = {
    "unif-M5-bad-dual": ("unif-M5", raise_first_multiplier),
    "aka-M5-bad-primal": ("aka-M5", shift_first_witness_entry),
}


def write_tampered() -> list[dict]:
    from nodistill.certifier import Certificate

    made = []
    for name, (source, change) in TAMPERED.items():
        cert, what = change(Certificate.loads((STORED / f"cert_{source}.json").read_text()))
        (STORED / f"cert_{name}.json").write_text(resealed(cert).dumps())
        made.append({"certificate": f"cert_{name}.json", "from": f"cert_{source}.json",
                     "change": what + ", digest recomputed"})
        print(f"cert_{name}.json: {what}", flush=True)
    return made


def main() -> int:
    nodistill = import_program()
    from nodistill import cli

    STORED.mkdir(parents=True, exist_ok=True)
    dists = named_distributions()
    for name in sorted({g for _, g, _, _ in STORED_TRIPLES}):
        (STORED / f"g_{name}.json").write_text(dists[name].dumps())
    commands = []

    def run(argv):
        rel = [str(Path(a).relative_to(ROOT)) if a.startswith(str(ROOT)) else a for a in argv]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
        dt = time.perf_counter() - t0
        if code != 0:
            raise SystemExit(f"nodistill {' '.join(rel)} exited {code}")
        commands.append({"argv": ["nodistill"] + rel, "stdout": out.getvalue(), "seconds": round(dt, 1)})
        print(f"{dt:8.1f}s  nodistill {' '.join(rel)}", flush=True)

    for m in sorted({m for _, _, m, _ in STORED_TRIPLES}):
        run(["gen-family", "--a-copy", "2", "--b-copy", "2", "--gen", "deterministic",
             "--M", str(m), "--out", str(STORED / f"family_M{m}.json")])
    for name, g, m, expect in STORED_TRIPLES:
        if expect == VALID:
            run(["certify", str(STORED / f"g_{g}.json"), "--gen", "deterministic", "--M", str(m),
                 "--out", str(STORED / f"cert_{name}.json")])
    provenance = {
        "commit": git_commit(),
        "nodistill_version": nodistill.__version__,
        "python": sys.version.split()[0],
        "commands": commands,
        "tampered": write_tampered(),
    }
    (STORED / "PROVENANCE.json").write_text(json.dumps(provenance, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
