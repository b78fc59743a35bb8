"""Layer spans recorded from outside gpmkit by wrapping module attributes.

gpmkit's functions call each other through module globals: solve_gpm
looks up assemble, to_conic, solve_conic and certify in gpmkit.certify;
solve_conic looks up solve, presolve_eliminate_equalities and itself in
gpmkit.conic; cmd_export looks up its calls in gpmkit.cli.  Replacing
those attributes with timing wrappers records one span per call with
no change to the program.  The cost of gpmkit.polynomials and
gpmkit.model shows up inside the relaxation and dsl spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("dsl", "relaxation", "conic", "certify", "formats", "cli")


@dataclass
class Span:
    """One call: name is '<layer>.<function>', parent an index or None."""

    name: str
    start: float
    end: float
    parent: int | None
    instance: str | None
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _assemble_info(args, result):
    return {"moments": result.n_vars}


def _to_conic_info(args, result):
    return {"nnz": int(result.A.nnz)}


def _ipm_info(args, result):
    problem = args[0]
    cone = problem.cone
    # the IPM densifies A into (m, s, s) tensors plus the orthant columns
    dense = 8 * problem.m * (cone.l + sum(s * s for s in cone.s))
    return {"iters": result.iterations, "status": result.status, "dense_A_bytes": dense}


def _export_info(args, result):
    return {"bytes": os.path.getsize(args[1])}


# (module namespace the caller looks the function up in, attribute,
#  span name, counts read from the arguments and result)
WRAPPED = (
    ("gpmkit.dsl", "parse_source", "dsl.parse_source", None),
    ("gpmkit.dsl", "build", "dsl.build", None),
    ("gpmkit.certify", "solve_gpm", "certify.solve_gpm", None),
    ("gpmkit.certify", "assemble", "relaxation.assemble", _assemble_info),
    ("gpmkit.certify", "to_conic", "conic.to_conic", _to_conic_info),
    ("gpmkit.certify", "solve_conic", "conic.solve_conic", None),
    ("gpmkit.certify", "certify", "certify.certify", None),
    ("gpmkit.conic", "solve_conic", "conic.solve_conic", None),
    ("gpmkit.conic", "presolve_eliminate_equalities", "conic.presolve", None),
    ("gpmkit.conic", "solve", "conic.ipm", _ipm_info),
    ("gpmkit.cli", "cmd_export", "cli.cmd_export", None),
    ("gpmkit.cli", "parse_source", "dsl.parse_source", None),
    ("gpmkit.cli", "build", "dsl.build", None),
    ("gpmkit.cli", "assemble", "relaxation.assemble", _assemble_info),
    ("gpmkit.cli", "to_conic", "conic.to_conic", _to_conic_info),
    ("gpmkit.cli", "presolve_eliminate_equalities", "conic.presolve", None),
    ("gpmkit.cli", "export_sdpa", "formats.export_sdpa", _export_info),
    ("gpmkit.cli", "export_json", "formats.export_json", _export_info),
)


class Tracer:
    """Context manager that wraps WRAPPED and keeps spans in memory.

    Set ``instance`` before each instance; every span recorded until the
    next change carries it.  Leaving the context restores every
    attribute, also after an exception.
    """

    def __init__(self):
        self.spans = []
        self.instance = None
        self._stack = []
        self._saved = []

    def __enter__(self):
        for modname, attr, name, info in WRAPPED:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, info))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, fn, name, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.instance))
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index].end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                self.spans[index].info = info(args, result)
            return result

        return wrapper


def pass_metrics(spans, offset, wall):
    """Per-layer metrics of one pass from its spans.

    ``spans`` is the tracer's whole list and the pass's spans are those
    from index ``offset`` on, so parent indices stay valid; ``wall`` is
    the pass's wall time.  Self times are durations minus direct
    children; they and ``trace.unattributed_s`` sum to ``wall``.
    """
    own = spans[offset:]
    child_time = defaultdict(float)
    for span in own:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    totals = defaultdict(float)
    counts = defaultdict(int)
    selfs = dict.fromkeys(LAYERS, 0.0)
    per_instance = {}
    ipm_solved = 0
    dense = 0
    first_solve_seen = set()
    for index, span in enumerate(own, start=offset):
        name = span.name
        selfs[name.split(".", 1)[0]] += span.duration - child_time[index]
        totals[name] += span.duration
        counts[name] += 1
        if name == "conic.solve_conic":
            totals["solve_conic_self"] += span.duration - child_time[index]
        if span.parent is None:
            key = span.instance.split("/", 1)[1]
            per_instance[f"{name}_s.{key}"] = span.duration
        elif name == "conic.solve_conic" and spans[span.parent].name == "certify.solve_gpm":
            # solves issued by solve_gpm itself; all but the first re-center
            if span.parent in first_solve_seen:
                counts["extra_solves"] += 1
                totals["extra_solves"] += span.duration
            first_solve_seen.add(span.parent)
        if name == "conic.ipm":
            counts["ipm_iters"] += span.info["iters"]
            ipm_solved += span.info["status"] == "solved"
            dense = max(dense, span.info["dense_A_bytes"])
        elif name == "relaxation.assemble":
            counts["moments"] += span.info["moments"]
        elif name == "conic.to_conic":
            counts["nnz"] += span.info["nnz"]
        elif name.startswith("formats."):
            counts["bytes"] += span.info["bytes"]
    ipm_calls = counts["conic.ipm"]
    metrics = {
        "dsl.parse_s": totals["dsl.parse_source"] + totals["dsl.build"],
        "relaxation.assemble_s": totals["relaxation.assemble"],
        "relaxation.moments": counts["moments"],
        "conic.to_conic_s": totals["conic.to_conic"],
        "conic.A_nnz": counts["nnz"],
        "conic.presolve_s": totals["conic.presolve"],
        "conic.presolve_calls": counts["conic.presolve"],
        "conic.solve_conic_self_s": totals["solve_conic_self"],
        "conic.ipm_s": totals["conic.ipm"],
        "conic.ipm_calls": ipm_calls,
        "conic.ipm_iters": counts["ipm_iters"],
        "conic.ipm_s_per_iter": totals["conic.ipm"] / max(counts["ipm_iters"], 1),
        "conic.dense_A_mb": dense / 1e6,
        "conic.ipm_solved_ratio": ipm_solved / ipm_calls if ipm_calls else 0.0,
        "certify.certify_s": totals["certify.certify"],
        "certify.certify_calls": counts["certify.certify"],
        "certify.extra_solves": counts["extra_solves"],
        "certify.extra_solve_s": totals["extra_solves"],
        "formats.export_s": totals["formats.export_sdpa"] + totals["formats.export_json"],
        "formats.bytes_written": counts["bytes"],
        "trace.unattributed_s": wall - sum(s.duration for s in own if s.parent is None),
    }
    metrics.update({f"{layer}.self_s": selfs[layer] for layer in LAYERS})
    metrics.update(per_instance)
    return metrics
