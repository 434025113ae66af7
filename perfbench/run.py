#!/usr/bin/env python3
"""Run one nodistill benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify-det --seed 0 --seconds 30 --trace 0

One client drives the public command line in-process (nodistill.cli.main)
as a closed loop: each command starts when the previous one has finished.
The workload's commands run in order, over and over, while the next one
fits in --seconds.  Every output is checked (see gate.py) after the timed
commands.

--trace 0 reports the end-to-end metrics: run_s (one pass: the sum of the
command times), cmd_s.p50 and cmd_s.max (over the commands), peak_rss_mb
and setup_s (median of many set-ups).  A command's time is the median of
its runs, each scaled to the reference host speed by the probes sampled
while it ran (see hostspeed.py); the wall times are printed and recorded too.
failed_frac is printed and recorded; the final JSON carries its two counts.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracing.py, plus trace.overhead_s, traced minus untraced run_s.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A fuller record
(environment, every command time, failures) goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, ProgramMissing, environment, import_program  # noqa: E402
from hostspeed import HostSampler  # noqa: E402
from workloads import NAMES, build  # noqa: E402

# set up at least this many times and for at least this long, so that
# the probes sampled meanwhile give the host speed (see hostspeed.py)
SETUP_REPEATS = 31
SETUP_SECONDS = 1.0


def run_cli(cli, argv) -> tuple[int, str, float, float]:
    """One nodistill command: exit code, stdout, and the clock at start and end."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed command, not a crashed benchmark
            traceback.print_exc(file=err)
            code = -1
    return code, out.getvalue(), t0, time.perf_counter()


def run_command(cli, cmd, tracer=None, command_id=0, sampler=None):
    from gate import Outcome

    if cmd.cert_path is not None:
        cmd.cert_path.unlink(missing_ok=True)
    if tracer is not None:
        tracer.command_id = command_id
    code, stdout, start, end = run_cli(cli, cmd.argv)
    seconds, scaled = sampler.scaled(start, end) if sampler is not None else (end - start, None)
    cert = None
    if cmd.cert_path is not None and cmd.cert_path.exists():
        cert = cmd.cert_path.read_bytes()
    return Outcome(code, stdout, cert, seconds, scaled)


def run_pass(cli, commands, tracer=None, first_id=0, sampler=None):
    return [run_command(cli, cmd, tracer, first_id + i, sampler) for i, cmd in enumerate(commands)]


def measure(cli, commands, seconds: float, sampler: HostSampler, tracer=None):
    """Run the commands in order, over and over, while the next one fits in seconds.

    Returns per-command lists of untraced and of traced outcomes.  Without a
    tracer the loop may stop mid-pass, so that the whole time gives samples.
    With one, untraced and traced passes alternate, whole passes only, and
    each traced pass gives one sample of layer self times, scaled like its
    commands, and counts.
    """
    untraced = [[] for _ in commands]
    traced = [[] for _ in commands]
    layer_samples = []
    start = time.perf_counter()
    if tracer is None:
        for i in itertools.cycle(range(len(commands))):
            if untraced[i] and time.perf_counter() - start + untraced[i][-1].seconds > seconds:
                return untraced, traced, layer_samples
            untraced[i].append(run_command(cli, commands[i], sampler=sampler))
    executed = 0
    while True:
        for runs, out in zip(untraced, run_pass(cli, commands, None, executed, sampler)):
            runs.append(out)
        first_span = len(tracer.spans)
        with tracer:
            outcomes = run_pass(cli, commands, tracer, executed + len(commands), sampler)
        for runs, out in zip(traced, outcomes):
            runs.append(out)
        scale = sum(o.scaled for o in outcomes) / sum(o.seconds for o in outcomes)
        self_times = {layer: t * scale for layer, t in tracer.self_times(first_span).items()}
        layer_samples.append((self_times, tracer.take_counts()))
        executed += 2 * len(commands)
        pair = sum(u[-1].seconds + t[-1].seconds for u, t in zip(untraced, traced))
        if time.perf_counter() - start + pair > seconds:
            return untraced, traced, layer_samples


def set_up(workload, seed, workdir, sampler) -> list[float]:
    """Set-up times, each scaled by the probes sampled over the whole set-up phase.

    One set-up takes 1-10 ms, less than the probe interval, so the phase as a
    whole gives the host speed.
    """
    nets = []
    start = time.perf_counter()
    while len(nets) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        t0 = time.perf_counter()
        build(workload, seed, workdir)
        nets.append(sampler.scaled(t0, time.perf_counter())[0])
    net, scaled = sampler.scaled(start, time.perf_counter())
    return [t * scaled / net for t in nets]


def metric(value, unit, n) -> dict:
    return {"value": value, "unit": unit, "n": n}


def command_times(runs, scaled=True) -> list[float]:
    """Each command's median time in the run, scaled to the reference speed or wall."""
    return [statistics.median(o.scaled if scaled else o.seconds for o in outcomes) for outcomes in runs]


def end_to_end(setup_times, untraced, sampler) -> dict:
    times = command_times(untraced)
    n = min(len(outcomes) for outcomes in untraced)
    return {
        "setup_s": metric(statistics.median(setup_times), "s", len(setup_times)),
        "run_s": metric(sum(times), "s", n),
        "cmd_s.p50": metric(statistics.median(times), "s", len(times)),
        "cmd_s.max": metric(max(times), "s", len(times)),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "wall.run_s": metric(sum(command_times(untraced, scaled=False)), "s", n),
        "host.probe_ms": metric(1000 * sampler.median_probe_s(), "ms", len(sampler.samples)),
    }


def per_layer(untraced, traced, layer_samples) -> tuple[dict, list[str]]:
    from tracing import COUNTS, LAYERS

    n = len(layer_samples)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = metric(statistics.median(s[layer] for s, _ in layer_samples), "s", n)
    for name in COUNTS:
        out[name] = metric(layer_samples[0][1][name], "count", n)
    overhead = sum(command_times(traced)) - sum(command_times(untraced))
    out["trace.overhead_s"] = metric(overhead, "s", n)
    unsteady = [name for name in COUNTS if len({c[name] for _, c in layer_samples}) > 1]
    return out, unsteady


def write_spans(tracer, commands, path: Path):
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    spans = [
        {"name": name, "start": start - t0, "end": end - t0, "parent": parent,
         "command": cid, "key": commands[cid % len(commands)].key}
        for name, start, end, parent, cid in tracer.spans
    ]
    path.write_text(json.dumps(spans) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = environment()
    try:
        nodistill = import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from nodistill import cli

    from gate import evaluate, load_refs
    from tracing import Tracer, lost_count

    refs = load_refs()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        tracer = Tracer() if args.trace else None
        with HostSampler() as sampler:
            setup_times = set_up(args.workload, args.seed, workdir, sampler)
            commands = build(args.workload, args.seed, workdir)
            untraced, traced, layer_samples = measure(cli, commands, args.seconds, sampler, tracer)
        metrics = end_to_end(setup_times, untraced, sampler)
        unsteady = []
        if tracer is not None:
            layer_metrics, unsteady = per_layer(untraced, traced, layer_samples)
            metrics.update(layer_metrics)
            write_spans(tracer, commands, OUT / f"spans-{args.workload}-s{args.seed}.json")
        failed, reasons, unreferenced = evaluate(commands, [u + t for u, t in zip(untraced, traced)], refs)
        lost = [why for _, counts in layer_samples if (why := lost_count(counts))]
        failed += len(lost)
        reasons += lost
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(u) + len(t) for u, t in zip(untraced, traced))
    instance_s = {c.key: [o.scaled for o in runs] for c, runs in zip(commands, untraced)}
    instance_wall_s = {c.key: [o.seconds for o in runs] for c, runs in zip(commands, untraced)}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nodistill_version": nodistill.__version__, "environment": env,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "failures": reasons, "unreferenced_keys": unreferenced, "unsteady_counts": unsteady,
        "metrics": metrics, "setup_s": setup_times, "instance_s": instance_s, "instance_wall_s": instance_wall_s,
    }
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items() if k != "known_gaps"))
    for gap in env["known_gaps"]:
        print(f"not measured: {gap}")
    for key, times in instance_s.items():
        wall = instance_wall_s[key]
        print(f"instance {key} median {statistics.median(times):.4f} s scaled, {statistics.median(wall):.4f} s wall"
              f" (fastest {min(wall):.4f} s, n={len(times)})")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']} (n={m['n']})")
    print(f"metric failed_frac = {failed}/{attempted} = {failed / attempted:.6g} (n={attempted})")
    for why in reasons:
        print(f"FAILED {why}")
    if unreferenced:
        print(f"no reference recorded for {len(unreferenced)} keys; rechecked independently only")
    for name in unsteady:
        print(f"WARNING count {name} differs between traced passes")

    if args.trace:
        from tracing import COUNTS, LAYERS

        report = [f"{layer}.self_s" for layer in LAYERS] + [*COUNTS, "trace.overhead_s"]
    else:
        report = ["run_s", "cmd_s.p50", "cmd_s.max", "peak_rss_mb", "setup_s"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]} for name in report},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
