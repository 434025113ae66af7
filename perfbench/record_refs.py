#!/usr/bin/env python3
"""Record the reference outputs every benchmark command is checked against.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record_refs.py

For each command key it stores the exit code, the SHA-256 of stdout and the
SHA-256 of the certificate written.  certify-det's keys depend on the seed
only through the adversary relabelling, so seeds are walked until every
relabelling of every problem is covered.  sweep-randfam and verify-stored
have fixed keys.  lambda-max draws fresh distributions per seed; seeds
0 .. LAMBDA_SEEDS-1 are recorded.  Every output recorded must also pass the benchmark's
independent rechecks.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import OUT, REFS, git_commit, import_program  # noqa: E402

MAX_SEEDS = 200
LAMBDA_SEEDS = 32


def main() -> int:
    nodistill = import_program()
    from nodistill import cli

    from gate import evaluate, reference_of
    from run import run_pass
    from workloads import build, relabelled_keys

    refs: dict[str, dict] = {}
    workdir = OUT / "record-refs"

    def record(name: str, seed: int):
        todo = [c for c in build(name, seed, workdir) if c.key not in refs]
        outcomes = run_pass(cli, todo)
        failed, reasons, _ = evaluate(todo, [[o] for o in outcomes], {})
        if failed:
            raise SystemExit("refusing to record outputs that fail the rechecks:\n" + "\n".join(reasons))
        for cmd, o in zip(todo, outcomes):
            refs[cmd.key] = reference_of(o)
            print(f"{o.seconds:7.2f}s  {cmd.key}  {refs[cmd.key]['stdout_head']}", flush=True)

    for seed in range(MAX_SEEDS):
        if relabelled_keys() <= refs.keys():
            break
        record("certify-det", seed)
    else:
        raise SystemExit(f"certify-det: relabellings not all covered after {MAX_SEEDS} seeds")
    record("sweep-randfam", 0)
    record("verify-stored", 0)
    for seed in range(LAMBDA_SEEDS):
        record("lambda-max", seed)
    shutil.rmtree(workdir, ignore_errors=True)
    REFS.write_text(json.dumps({
        "commit": git_commit(),
        "nodistill_version": nodistill.__version__,
        "python": sys.version.split()[0],
        "lambda_max_seeds": LAMBDA_SEEDS,
        "commands": dict(sorted(refs.items())),
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
