"""In-memory span tracer that wraps msdnpan's public functions from outside.

Each probe replaces one module attribute, at the place where the caller
looks the name up (``cli.load_tensor``, ``injection_net.head``,
``backend.conv2d_forward``, ...), with a wrapper that records a span
(name, start, end, parent, phase, op). Nothing in the package changes.
A probe whose module or attribute no longer exists is reported as absent
instead of failing, so the trace survives refactors that fold or delete
names.

The probe table itself, which also names the per-layer metric each span
reports, is ``layers.PROBES``.

Self time of a span is its duration minus the durations of its direct
children; the sum of all self times equals the time covered by top-level
spans, and the rest of a phase's wall time is harness time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Probe:
    module: str                 # msdnpan submodule whose attribute is wrapped
    attr: str                   # attribute name the caller looks up
    span: str                   # span name; a kernel-size label may follow
    metric: str = ""            # per-layer metric: the span's self time per op
    moves: str = ""             # end-to-end metric the layer should move
    k_of: Callable | None = None    # adds ".k<k>" to the span name
    work: Callable | None = None    # counts added under the span name
    result_work: Callable | None = None  # counts taken from the result
    skip_under: str = ""        # no span when the open span has this prefix
    count_only: bool = False    # count calls, record no span


class Tracer:
    """Spans and counts kept in memory, grouped by phase."""

    def __init__(self, probes):
        self.probes = probes
        self.spans = []         # [name, start, end, parent, phase, op]
        self.counts = defaultdict(float)   # (phase, key) -> total
        self.stack = []
        self.phase = "setup"
        self.op_index = lambda: -1
        self.absent = []
        self._saved = []

    def install(self):
        """Wrap every probe target; record the ones that do not exist."""
        self.absent = []
        for probe in self.probes:
            try:
                module = importlib.import_module("msdnpan." + probe.module)
                original = getattr(module, probe.attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{probe.module}.{probe.attr}")
                continue
            self._saved.append((module, probe.attr, original))
            setattr(module, probe.attr, self._wrap(probe, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrap(self, probe, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if probe.skip_under and stack and \
                    tracer.spans[stack[-1]][0].startswith(probe.skip_under):
                return original(*args, **kwargs)
            name = probe.span
            try:
                if probe.k_of is not None:
                    name = f"{name}.k{probe.k_of(args, kwargs)}"
                work = probe.work(args, kwargs) if probe.work else None
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                work = None     # a changed signature loses labels, not calls
            counts = tracer.counts
            counts[tracer.phase, name + ".calls"] += 1
            for key, value in (work or {}).items():
                counts[tracer.phase, f"{name}.{key}"] += value
            if probe.count_only:
                return original(*args, **kwargs)
            rec = [name, time.perf_counter(), 0.0,
                   stack[-1] if stack else -1, tracer.phase, tracer.op_index()]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = original(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            try:
                work = probe.result_work(result) if probe.result_work else None
            except AttributeError:
                work = None
            for key, value in (work or {}).items():
                counts[tracer.phase, f"{name}.{key}"] += value
            return result

        return wrapper

    def summarize(self, phase):
        """Per span name: calls, inclusive and self seconds, in one phase."""
        child = defaultdict(float)
        for name, start, end, parent, ph, _ in self.spans:
            if ph == phase and parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        top = 0.0
        for i, (name, start, end, parent, ph, _) in enumerate(self.spans):
            if ph != phase:
                continue
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            if parent < 0:
                top += end - start
        return dict(out), top

    def count(self, phase, key):
        return self.counts.get((phase, key), 0.0)

    def dump(self, path):
        """Write every span as JSON once the run is over."""
        fields = ("name", "start", "end", "parent", "phase", "op")
        with open(path, "w") as f:
            json.dump({"fields": fields, "spans": self.spans,
                       "absent": self.absent}, f)
