"""Record what gpmkit's forced-entry reduction drops, for the tools here.

``recording_drops()`` wraps ``gpmkit.conic._drop_forced_entries`` for the
duration of a ``with`` block and yields a list that gets one entry per
call of the reduction (one per ``solve_conic`` call that reaches it):
the rows and columns of A it dropped, ``(0, 0)`` where it did not fire,
or its status (``infeasible``, ``unbounded``) where it ended the call.
Both ``conic_digest.py --solve`` and ``bench_rows.py`` use it.
"""

import contextlib
import importlib


@contextlib.contextmanager
def recording_drops():
    conic_module = importlib.import_module("gpmkit.conic")
    drop = conic_module._drop_forced_entries
    drops = []

    def recording_drop(problem):
        red = drop(problem)
        if red is None:
            drops.append((0, 0))
        elif red.status != "ok":
            drops.append(red.status)
        else:
            drops.append((problem.m - red.problem.m, problem.n - red.problem.n))
        return red

    conic_module._drop_forced_entries = recording_drop
    try:
        yield drops
    finally:
        conic_module._drop_forced_entries = drop
