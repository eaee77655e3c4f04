"""In-memory spans recorded by the benchmark around its calls into eralign.

A span is [name, op, parent, start, end]: `op` groups the spans of one
operation and `parent` is the index of the span that caused it (None for a
root).  Spans stay in memory during the run and are written out at its end.
"""

from __future__ import annotations

import json
from time import perf_counter


class Trace:
    def __init__(self):
        self.spans = []

    def open(self, name, op, parent=None):
        self.spans.append([name, op, parent, perf_counter(), None])
        return len(self.spans) - 1

    def close(self, sid):
        self.spans[sid][4] = perf_counter()

    def call(self, name, op, parent, fn, *args):
        """fn(*args) inside a span named `name`."""
        sid = self.open(name, op, parent)
        try:
            return fn(*args)
        finally:
            self.close(sid)

    def self_times(self):
        """Per span: its duration minus the time its child spans cover.

        Children of one span run one after another, so their durations add.
        """
        own = [end - start for _, _, _, start, end in self.spans]
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def busy(self):
        """{name: (calls, total self time in s)}."""
        out = {}
        for span, own in zip(self.spans, self.self_times()):
            calls, total = out.get(span[0], (0, 0.0))
            out[span[0]] = (calls + 1, total + own)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for sid, (name, op, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "op": op, "parent": parent,
                                     "start": start, "end": end}) + "\n")
