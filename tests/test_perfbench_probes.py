"""Every function the benchmark's per-layer tracer wraps still exists.

The tracer lists a missing probe target as absent and reports 0 for its
layer, so a rename would otherwise pass silently.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_perfbench_probe_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    missing = []
    for probe in layers.PROBES:
        module = importlib.import_module("msdnpan." + probe.module)
        if not callable(getattr(module, probe.attr, None)):
            missing.append(f"msdnpan.{probe.module}.{probe.attr}")
    assert layers.PROBES and not missing, missing
