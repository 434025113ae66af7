"""Spans around the calls into each nodistill layer, recorded from outside.

The tracer replaces public functions on their modules and classes, so calls
made inside the library (build_lp inside certify, problem_fingerprint inside
verify_certificate, ...) are caught as well as the command line's own calls.
Spans (name, start, end, parent, command id) stay in memory until the
benchmark writes them out.  A layer's self time is its span time minus the
time covered by its direct child spans; the calls nest, so children never
overlap.  One count, measures.pairs_examined, wraps a private helper of
measures (see lost_count).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# span name -> layer it is charged to
LAYER_OF = {
    "cli.main": "cli.main",
    "ratlp.solve": "ratlp.solve",
    "ratlp.check_solution": "ratlp.check_solution",
    "certifier.build_lp": "certifier.build_lp",
    "certifier.certify": "certifier.certify",
    "certifier.verify_certificate": "certifier.verify_certificate",
    "certifier.problem_fingerprint": "certifier.problem_fingerprint",
    "certifier.Certificate.dumps": "certifier.cert_io",
    "certifier.Certificate.loads": "certifier.cert_io",
    "families.deterministic_family": "families",
    "families.random_filter_family": "families",
    "families.MapFamily.loads": "families",
    "measures.estimate_lambda_max": "measures.estimate_lambda_max",
    "probvec.JointDist.loads": "probvec",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))
COUNTS = (
    "ratlp.solve.calls",
    "ratlp.lp.vars",
    "ratlp.lp.rows",
    "ratlp.lp.nnz",
    "ratlp.out_bits",
    "families.pairs",
    "measures.pairs_examined",
)


# counted to check the counts above, not reported
SEARCHES = "measures.estimate_lambda_max.calls"
_ALL_COUNTS = (*COUNTS, SEARCHES)


class TracingError(RuntimeError):
    """A function the tracer counts through is gone from the library."""


def lost_count(counts: dict[str, int]) -> str | None:
    """Why a pass's counts cannot be trusted, or None.

    measures.pairs_examined counts calls to a private helper of measures;
    if a change stops calling it, the count would fall to 0 and read as a gain.
    """
    if counts[SEARCHES] and not counts["measures.pairs_examined"]:
        return ("estimate_lambda_max ran but measures.pairs_examined is 0: measures no "
                "longer calls _filtered_fraction, so tracing.py must count pairs another way")
    return None


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Installs span-recording wrappers while active; restores the originals on exit."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1, command id)
        self.counts: dict[str, int] = dict.fromkeys(_ALL_COUNTS, 0)
        self.command_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- wrapping -------------------------------------------------------------

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.command_id)

        return wrapper

    def _patch(self, owner, attr, name, after=None, static=False):
        original = owner.__dict__[attr]
        fn = original.__func__ if static else original
        wrapped = self._span(name, fn, after)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)

    def _count_pairs(self, family):
        self.counts["families.pairs"] += len(family.pairs)

    def _count_lp(self, build):
        lp = build.problem
        self.counts["ratlp.lp.vars"] += lp.num_vars
        self.counts["ratlp.lp.rows"] += len(lp.rows)
        self.counts["ratlp.lp.nnz"] += sum(len(row.coeffs) for row in lp.rows)

    def _count_solve(self, sol):
        self.counts["ratlp.solve.calls"] += 1
        bits = max((_bits(x) for x in (*sol.primal, *sol.dual)), default=0)
        self.counts["ratlp.out_bits"] = max(self.counts["ratlp.out_bits"], bits)

    def _count_search(self, _result):
        self.counts[SEARCHES] += 1

    def __enter__(self):
        from nodistill import certifier, cli, families, measures, probvec, ratlp

        # stage-1 examines one map pair per call of this private helper; it is
        # counted, not timed, as it runs thousands of times per search
        filtered = getattr(measures, "_filtered_fraction", None)
        if filtered is None:
            raise TracingError("measures._filtered_fraction is gone; measures.pairs_examined counts its calls")
        self._patch(cli, "main", "cli.main")
        self._patch(ratlp, "solve", "ratlp.solve", self._count_solve)
        self._patch(ratlp, "check_solution", "ratlp.check_solution")
        self._patch(certifier, "build_lp", "certifier.build_lp", self._count_lp)
        self._patch(certifier, "certify", "certifier.certify")
        self._patch(certifier, "verify_certificate", "certifier.verify_certificate")
        self._patch(certifier, "problem_fingerprint", "certifier.problem_fingerprint")
        self._patch(certifier.Certificate, "dumps", "certifier.Certificate.dumps")
        self._patch(certifier.Certificate, "loads", "certifier.Certificate.loads", static=True)
        self._patch(families, "deterministic_family", "families.deterministic_family", self._count_pairs)
        self._patch(families, "random_filter_family", "families.random_filter_family", self._count_pairs)
        self._patch(families.MapFamily, "loads", "families.MapFamily.loads", self._count_pairs, static=True)
        self._patch(measures, "estimate_lambda_max", "measures.estimate_lambda_max", self._count_search)
        self._patch(probvec.JointDist, "loads", "probvec.JointDist.loads", static=True)

        @functools.wraps(filtered)
        def count_pair(*args):
            self.counts["measures.pairs_examined"] += 1
            return filtered(*args)

        self._saved.append((measures, "_filtered_fraction", filtered))
        measures._filtered_fraction = count_pair
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    # -- results --------------------------------------------------------------

    def self_times(self, first_span: int = 0) -> dict[str, float]:
        """Seconds of self time per layer over spans[first_span:]."""
        spans = self.spans[first_span:]
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= first_span:
                child_time[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _, _) in enumerate(spans, first_span):
            out[LAYER_OF[name]] += (end - start) - child_time[i]
        return out

    def take_counts(self) -> dict[str, int]:
        counts = self.counts
        self.counts = dict.fromkeys(_ALL_COUNTS, 0)
        return counts
