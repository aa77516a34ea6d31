"""Span recorder for the traced run, and the per-layer metrics it yields.

Each public function is wrapped where its caller looks it up (a module
attribute), so run_query's own calls to load_table, parse_query,
compile_query and execute are seen too.  A span holds a name, start, end,
parent span, statement id and a count of the rows the call handled.  Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time

# Every time is the process's CPU time.  The program is single-threaded and
# CPU-bound on page-cached files, so on an idle machine this is its wall time;
# unlike wall time it leaves out the time the host takes the CPU away.
clock = time.process_time

# (module, attribute, span name, count of what the call handled or None)
WRAPPED = (
    ("catalog", "load_catalog", "catalog.load", None),
    ("catalog", "save_catalog", "catalog.save", None),
    ("engine", "load_table", "engine.load", lambda out, args: len(out.rows)),
    ("engine", "save_table", "engine.save", lambda out, args: len(args[0].rows)),
    ("engine", "parse_query", "fsql.parse", None),
    ("engine", "compile_query", "fsql.compile", None),
    # rows_in x conditions: the number of degrees execute computes
    ("engine", "execute", "engine.execute",
     lambda out, args: (out.stats.rows_in, out.stats.rows_in * len(args[0].conditions))),
    ("engine", "run_query", "engine.run_query", None),
    ("engine", "format_result", "engine.render", lambda out, args: len(args[0].rows)),
)


COUNTED = {name for _, _, name, count in WRAPPED if count is not None}


class Tracer:
    def __init__(self, modules):
        self.modules = modules    # {'catalog': module, 'engine': module}
        self.spans = []           # [name, start, end, parent, stmt, count]
        self.stack = []
        self.stmt = None
        self.originals = {}

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None, self.stmt, None]
            spans.append(span)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(out, args)
            return out

        return traced

    def install(self) -> None:
        for module, attr, name, count in WRAPPED:
            mod = self.modules[module]
            self.originals[(module, attr)] = getattr(mod, attr)
            setattr(mod, attr, self._wrap(name, getattr(mod, attr), count))

    def uninstall(self) -> None:
        for (module, attr), fn in self.originals.items():
            setattr(self.modules[module], attr, fn)
        self.originals.clear()

    @property
    def installed(self) -> bool:
        return bool(self.originals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, (name, start, end, parent, stmt, count) in enumerate(self.spans):
                f.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                    "parent": parent, "stmt": stmt, "count": count}) + "\n")


def layer_metrics(spans, stmt_traced_s: float, stmt_untraced_s: float) -> dict:
    """Per-layer metrics from the spans of one traced run.

    stmt_traced_s and stmt_untraced_s are the mean statement times of the
    traced and untraced rounds; their ratio gives the tracing overhead.
    """
    by_name = {}
    children = {}
    for sid, span in enumerate(spans):
        if span[5] is None and span[0] in COUNTED:
            continue  # the call raised, so it handled nothing
        by_name.setdefault(span[0], []).append(span)
        if span[3] is not None:
            children.setdefault(span[3], []).append(span)

    def durations(name):
        return [s[2] - s[1] for s in by_name.get(name, ())]

    def rate(name, pick=lambda c: c):
        spans_ = by_name.get(name, ())
        busy = sum(s[2] - s[1] for s in spans_)
        return sum(pick(s[5]) for s in spans_) / busy if busy else 0.0

    def median(values, scale):
        return statistics.median(values) * scale if values else 0.0

    statements = {s[4] for s in by_name.get("engine.run_query", ())}
    decoded = sum(s[5] for s in by_name.get("engine.load", ()) if s[4] is not None)
    execute = by_name.get("engine.execute", ())
    cond_rows = sum(s[5][1] for s in execute)
    run_query_self = [
        (s[2] - s[1]) - sum(c[2] - c[1] for c in children.get(sid, ()))
        for sid, s in enumerate(spans) if s[0] == "engine.run_query"
    ]
    return {
        "catalog.load_ms": (median(durations("catalog.load"), 1e3), "ms"),
        "catalog.save_ms": (median(durations("catalog.save"), 1e3), "ms"),
        "engine.load_rows_per_s": (rate("engine.load"), "rows/s"),
        "engine.rows_decoded_per_stmt": (decoded / len(statements) if statements else 0.0, "count"),
        "fsql.parse_us": (median(durations("fsql.parse"), 1e6), "us"),
        "fsql.compile_us": (median(durations("fsql.compile"), 1e6), "us"),
        "engine.execute_rows_per_s": (rate("engine.execute", lambda c: c[0]), "rows/s"),
        "engine.execute_ns_per_cond_row": (
            sum(s[2] - s[1] for s in execute) * 1e9 / cond_rows if cond_rows else 0.0, "ns"),
        "engine.render_rows_per_s": (rate("engine.render"), "rows/s"),
        "engine.save_rows_per_s": (rate("engine.save"), "rows/s"),
        "engine.run_query_self_us": (median(run_query_self, 1e6), "us"),
        "trace.overhead_pct": ((stmt_traced_s / stmt_untraced_s - 1.0) * 100.0, "%"),
    }
