"""Every function the benchmark's per-layer tracer wraps still exists, and
training and the eval reports still call the ones they time through the
names it wraps.

The tracer lists a missing probe target as absent and reports 0 for its
layer, so a rename would otherwise pass silently.
"""

import importlib
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from msdnpan import metrics, trainer
from msdnpan.data_pipeline import synth_scene

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


def test_train_calls_the_wrapped_trainer_names(monkeypatch, tmp_path):
    # the tracer replaces trainer.backward, trainer.total_loss and
    # trainer.adam_step; a call path that skips those names would leave
    # their rows (tensor_core.backward_self_s among them) reading 0. Forked
    # part workers inherit the wrappers, so every call, in this process or a
    # worker, appends one line to a file.
    log = tmp_path / "calls.txt"

    def counting(name, real):
        def wrapper(*args, **kwargs):
            with open(log, "a") as f:
                f.write(name + "\n")
            return real(*args, **kwargs)
        return wrapper

    for name in ("backward", "total_loss", "adam_step"):
        monkeypatch.setattr(trainer, name, counting(name, getattr(trainer, name)))
    parts = []
    workers = trainer._workers

    @contextmanager
    def counting_workers(model, flat, batch_size):
        with workers(model, flat, batch_size) as forked:
            parts.append(1 + len(forked))
            yield forked

    monkeypatch.setattr(trainer, "_workers", counting_workers)
    scenes = [synth_scene(300 + i, 16, sample_id=f"s{i}") for i in range(4)]
    trainer.train(scenes, trainer.desk_config(epochs=1, batch_size=4))
    (n_parts,) = parts
    assert Counter(log.read_text().split()) == {
        "backward": n_parts, "total_loss": n_parts, "adam_step": 1}


def test_reports_call_the_wrapped_metric_names(monkeypatch):
    # the tracer replaces metrics.sam, ergas, scc and q4 (eval-reduced) and
    # metrics.d_lambda and d_s (eval-full); a report that reached their
    # work another way would leave their metrics.*_s rows reading 0
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("sam", "ergas", "scc", "q4", "d_lambda", "d_s"):
        monkeypatch.setattr(metrics, name,
                            counting(name, getattr(metrics, name)))
    scene = synth_scene(42, 32)
    fused = np.repeat(np.repeat(scene.ms, 4, axis=1), 4, axis=2) + 0.01
    metrics.reduced_resolution_report(fused, scene.gt)
    assert Counter(calls) == {"sam": 1, "ergas": 1, "scc": 1, "q4": 1}
    calls.clear()
    metrics.full_resolution_report(fused, scene.ms, scene.pan)
    assert Counter(calls) == {"d_lambda": 1, "d_s": 1}
