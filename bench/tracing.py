"""Spans around the library's public calls, recorded from outside the library.

`Tracer.install` swaps chosen module attributes for timing wrappers and
`uninstall` puts the originals back, so untraced passes run the library
untouched.  Each span keeps its name, start, end, parent span and job; counts
are read from the wrapped call's return value as it returns, so no result
object outlives its call.  Spans stay in memory until `write` dumps them.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence

# Public calls wrapped per module.  `harness` binds the instance helpers by
# name at import time, so they are wrapped where harness looks them up too;
# spans are named after the defining module either way.  Helpers that
# `rounding` binds by name (verify_solution, shortest_path, enumerate_paths)
# stay unwrapped and count as rounding's own time.
TRACED = {
    "instance": ("levelize", "as_layered", "map_back", "verify_solution"),
    "flow_lp": ("build_flow_lp", "solve_lp", "check_point"),
    "lasserre": ("assemble", "solve", "lift_dimensions"),
    "moments": ("certify", "from_distribution"),
    "rounding": ("round_solution", "collect_stats"),
    "exact": ("exact_opt",),
    "harness": (
        "run_pipeline",
        "gen_random_layered",
        "gen_set_cover",
        "gap_instance",
        "as_layered",
        "levelize",
        "map_back",
        "verify_solution",
    ),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    pass_no: int | None
    counts: dict = field(default_factory=dict)


def _oracle_exact(oracle) -> int:
    vector = getattr(oracle, "vector", None)
    return int(bool(getattr(vector, "exact", False)))


def _pipeline_counts(args, row):
    opt = float(row["opt_layered"])
    scale = max(1.0, abs(opt))
    lp, sdp = float(row["lp_value"]), row["sdp_value"]
    return {"sandwich_excess": max((lp - sdp) / scale, (sdp - opt) / scale)}


COUNTS: dict[str, Callable] = {
    "flow_lp.build_flow_lp": lambda args, res: {
        "n_vars": res[0].n_vars,
        "n_rows": len(res[0].rows),
        "row_nnz": sum(len(row.support()) for row in res[0].rows),
    },
    "lasserre.assemble": lambda args, res: {
        "n_free": len(res.free_sets),
        "slots": res.main_dim**2 + res.n_row_blocks * res.row_dim**2,
        "main_dim": res.main_dim,
    },
    "lasserre.solve": lambda args, res: {
        "iterations": res.diagnostics["iterations"],
        "converged": int(res.diagnostics["converged"]),
    },
    "moments.certify": lambda args, res: {
        "exact": int(args[0].exact),
        "checks": sum(res.checks.values()),
    },
    "rounding.round_solution": lambda args, res: {
        "exact": _oracle_exact(args[0]),
        "trials": res.repetitions,
        "queries": res.queries,
        "clamps": res.clamps,
        "repaired": int(bool(res.repair_edges)),
    },
    "rounding.collect_stats": lambda args, res: {
        "exact": _oracle_exact(args[0]),
        "trials": res.trials,
        "queries": res.queries,
        "clamps": res.clamps,
        "dead": res.dead,
    },
    "exact.exact_opt": lambda args, res: {"states": res.states},
    "harness.run_pipeline": _pipeline_counts,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = "setup"
        self.pass_no: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def install(self, modules: dict[str, object]) -> None:
        for mod_name, attrs in TRACED.items():
            module = modules[mod_name]
            for attr in attrs:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn: Callable) -> Callable:
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        extract = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                name,
                time.perf_counter(),
                0.0,
                self._stack[-1] if self._stack else None,
                self.job,
                self.pass_no,
            )
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if extract is not None:
                span.counts = extract(args, result)
            return result

        return traced

    def write(self, path, header: dict, summary: dict) -> None:
        """Dump header, every span, then the summary, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for index, span in enumerate(self.spans):
                out.write(json.dumps({"id": index, **asdict(span)}) + "\n")
            out.write(json.dumps(summary) + "\n")


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by the intervals; empty ones count for nothing."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return [
        (span.end - span.start)
        - union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[index]
        )
        for index, span in enumerate(spans)
    ]


def layer_self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Self time over the traced passes, summed per layer (module of the name)."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        if span.pass_no is not None:
            totals[span.name.split(".", 1)[0]] += own
    return dict(totals)


def layer_metrics(spans: Sequence[Span], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans of `passes` traced passes.

    Times and counts are per pass; `moments.from_distribution_s` is per
    set-up, the only place the benchmark builds distribution vectors.  A
    layer that a workload never calls reads 0.
    """
    own = self_times(spans)
    timed = [(s, t) for s, t in zip(spans, own) if s.pass_no is not None]
    setup = [s for s in spans if s.job == "setup"]

    def dur(names, pick=lambda s: True, pool=None):
        pool = [s for s, _ in timed] if pool is None else pool
        return sum(s.end - s.start for s in pool if s.name in names and pick(s))

    def cnt(name, key, pick=lambda s: True):
        return sum(s.counts.get(key, 0) for s, _ in timed if s.name == name and pick(s))

    def ratio(num, den):
        return num / den if den else 0.0

    rounders = ("rounding.round_solution", "rounding.collect_stats")
    is_exact = lambda s: s.counts.get("exact") == 1
    is_float = lambda s: s.counts.get("exact") == 0
    solves = sum(1 for s, _ in timed if s.name == "lasserre.solve")
    rounded = sum(1 for s, _ in timed if s.name == "rounding.round_solution")
    pipelines = [s for s, _ in timed if s.name == "harness.run_pipeline"]
    solve_s = dur({"lasserre.solve"})
    iterations = cnt("lasserre.solve", "iterations")
    per = 1.0 / passes
    return {
        "harness.pipeline_s": (dur({"harness.run_pipeline"}) * per, "s"),
        "harness.self_s": (
            sum(t for s, t in timed if s.name == "harness.run_pipeline") * per,
            "s",
        ),
        "instance.layer_s": (
            dur({"instance.levelize", "instance.as_layered"}) * per,
            "s",
        ),
        "flow_lp.build_s": (dur({"flow_lp.build_flow_lp"}) * per, "s"),
        "flow_lp.solve_s": (dur({"flow_lp.solve_lp"}) * per, "s"),
        "flow_lp.n_vars": (cnt("flow_lp.build_flow_lp", "n_vars") * per, "count"),
        "flow_lp.n_rows": (cnt("flow_lp.build_flow_lp", "n_rows") * per, "count"),
        "flow_lp.row_nnz": (cnt("flow_lp.build_flow_lp", "row_nnz") * per, "count"),
        "lasserre.assemble_s": (dur({"lasserre.assemble"}) * per, "s"),
        "lasserre.n_free": (cnt("lasserre.assemble", "n_free") * per, "count"),
        "lasserre.slots": (cnt("lasserre.assemble", "slots") * per, "count"),
        "lasserre.main_dim.max": (
            max(
                (s.counts["main_dim"] for s, _ in timed if s.name == "lasserre.assemble"),
                default=0,
            ),
            "count",
        ),
        "lasserre.solve_s": (solve_s * per, "s"),
        "lasserre.iterations": (iterations * per, "count"),
        "lasserre.ms_per_iter": (1000.0 * ratio(solve_s, iterations), "ms"),
        "lasserre.converged_frac": (
            ratio(cnt("lasserre.solve", "converged"), solves),
            "ratio",
        ),
        "lasserre.sandwich_excess": (
            max((s.counts["sandwich_excess"] for s in pipelines), default=0.0),
            "ratio",
        ),
        "moments.certify_float_s": (
            dur({"moments.certify"}, is_float) * per,
            "s",
        ),
        "moments.certify_exact_s": (
            dur({"moments.certify"}, is_exact) * per,
            "s",
        ),
        "moments.certify_checks": (cnt("moments.certify", "checks") * per, "count"),
        "moments.from_distribution_s": (
            dur({"moments.from_distribution"}, pool=setup),
            "s",
        ),
        "rounding.round_s": (dur(set(rounders)) * per, "s"),
        "rounding.trial_us.exact": (
            1.0e6
            * ratio(
                dur(set(rounders), is_exact),
                sum(cnt(name, "trials", is_exact) for name in rounders),
            ),
            "us",
        ),
        "rounding.trial_us.float": (
            1.0e6
            * ratio(
                dur(set(rounders), is_float),
                sum(cnt(name, "trials", is_float) for name in rounders),
            ),
            "us",
        ),
        "rounding.queries": (
            sum(cnt(name, "queries") for name in rounders) * per,
            "count",
        ),
        "rounding.clamps": (
            sum(cnt(name, "clamps") for name in rounders) * per,
            "count",
        ),
        "rounding.dead": (cnt("rounding.collect_stats", "dead") * per, "count"),
        "rounding.repair_frac": (
            ratio(cnt("rounding.round_solution", "repaired"), rounded),
            "ratio",
        ),
        "exact.opt_s": (dur({"exact.exact_opt"}) * per, "s"),
        "exact.states": (cnt("exact.exact_opt", "states") * per, "count"),
    }
