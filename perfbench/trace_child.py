"""Run one ruleselect CLI call with a span around every layer boundary in
`layers.TARGETS`, then write the spans as JSON.

Usage: python3 trace_child.py SPANS_OUT OP_ID CLI_ARG...

The program's source is untouched: targets are wrapped after import, where
their callers look them up.  A target that no longer exists is listed as
absent instead of failing the call.  The exit code is the CLI's.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

from layers import COUNTERS, TARGETS


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.uncounted = set()

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                try:
                    span[4] = counter(args, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    self.uncounted.add(name)
            return result
        return traced


def install(tracer: Tracer) -> list:
    """Wrap every target; return the names of targets that do not exist."""
    absent = []
    for name, module_name, path in TARGETS:
        *owner_path, leaf = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            absent.append(name)
            continue
        wrapped = tracer.wrap(name, original, COUNTERS.get(name))
        setattr(owner, leaf, wrapped)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("ruleselect"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
    return absent


def main(argv) -> int:
    out_path, op_id, cli_args = argv[0], int(argv[1]), argv[2:]
    import ruleselect.cli  # loads every module the CLI calls into

    tracer = Tracer()
    absent = install(tracer)
    try:
        return ruleselect.cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"op": op_id, "absent": absent, "uncounted": sorted(tracer.uncounted),
                       "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
