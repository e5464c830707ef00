"""In-memory spans for the traced benchmark run.

The traced run replaces selected module attributes of `kplab` with wrappers
that record one span per call: name, start, end, the span that caused it
and, where it matters for computed work, the number of grid modes touched.
Nothing under `src/` is changed; the originals are restored on exit.  The
untraced run installs no wrapper at all, so its timings carry no tracing
cost.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time


class Tracer:
    """Spans of the measured operations of one run.

    `op` is the index of the operation in progress; calls made while it is
    None (set-up, warm-up, output checks) are not recorded.
    """

    def __init__(self):
        self.op = None
        self.spans = []      # [op, name, start, end, parent index, modes]
        self._stack = []

    def wrap(self, fn, name, modes=None):
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            rec = [self.op, name, time.perf_counter(), None, parent,
                   modes(args) if modes else 0]
            self.spans.append(rec)
            self._stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self._stack.pop()
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Install wrappers for (module, attribute, span name, modes) entries.

        An attribute the program no longer has is skipped, so the traced run
        keeps working when a layer is renamed; its metrics then read 0.
        """
        saved = []
        try:
            for modname, attr, name, modes in targets:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(fn, name, modes))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    # -- reductions -----------------------------------------------------

    def _self_times(self):
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[4] is not None:
                child[rec[4]] += rec[3] - rec[2]
        return [rec[3] - rec[2] - c for rec, c in zip(self.spans, child)]

    def per_op(self, ops, name, value):
        """Median over `ops` of the per-operation sum of value(self time,
        modes) over the spans called `name`."""
        selfs = self._self_times()
        totals = {op: 0.0 for op in ops}
        for rec, st in zip(self.spans, selfs):
            if rec[1] == name and rec[0] in totals:
                totals[rec[0]] += value(st, rec[5])
        return statistics.median(totals.values())

    def call_median(self, name):
        """Median wall time of one call of span `name` (children included)."""
        durs = [rec[3] - rec[2] for rec in self.spans if rec[1] == name]
        return statistics.median(durs) if durs else 0.0

    def dump(self):
        return [{"op": r[0], "name": r[1], "start": r[2], "end": r[3],
                 "parent": r[4], "modes": r[5]} for r in self.spans]
