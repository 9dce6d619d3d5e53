"""Self-test of the benchmark harness at toy sizes.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers      # noqa: E402
import run         # noqa: E402
import tracing     # noqa: E402
import workloads   # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def _bench(*args, cwd=ROOT):
    res = subprocess.run([sys.executable, "perfbench/run.py", *args],
                         capture_output=True, text=True, timeout=170, cwd=cwd)
    return res.returncode, res.stdout.strip().splitlines(), res.stderr


def _printed_units(lines):
    """name -> unit from the 'name value unit' report lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith(("#", "{")):
            out[parts[0]] = parts[2]
    return out


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [row[:3] for row in layers.SPEC]


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_prints_every_metric(workload):
    code, lines, err = _bench("--workload", workload, "--seed", "3",
                              "--seconds", "1", "--trace", "0", "--toy")
    assert code == 0, err
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = _printed_units(lines)
    for name, unit in run.END_TO_END.items():
        assert printed[name] == unit
    assert printed["fail_ratio"] == "ratio"
    named = {"train-desk": ["train.samples_per_s", "train.step_s.p50",
                            "train.step_s.tail"],
             "infer-mixed": ["infer.mpix_per_s", "infer.ms8_s.p50",
                             "infer.ms8_s.tail", "infer.ms16_s.p50"],
             "baseline-eval": ["baseline.mra_s.p50", "eval.reduced_s.p50",
                               "eval.full_s.p50"]}[workload]
    for name in named:
        assert name in printed


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_prints_every_layer(workload):
    code, lines, err = _bench("--workload", workload, "--seed", "3",
                              "--seconds", "2", "--trace", "1", "--toy")
    assert code == 0, err
    result = json.loads(lines[-1])
    assert result["correct"], lines
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == layers.UNITS
    printed = _printed_units(lines)
    assert all(printed[k] == u for k, u in layers.UNITS.items())
    share = (metrics["trace.spans_self_share"]["value"]
             + metrics["trace.harness_share"]["value"])
    assert share == pytest.approx(1.0)
    ran = {k for k, v in metrics.items() if v["value"]}
    if workload == "baseline-eval":
        assert not {k for k in ran if k.startswith(("backend.", "tensor_core.backward",
                                                    "trainer.adam"))}
    else:
        assert not {k for k in ran if k.startswith("metrics.")}
        assert "backend.conv_fwd_s.k3" in ran
    if workload == "infer-mixed":
        assert not {k for k in ran if k.startswith(("tensor_core.backward",
                                                    "trainer.adam",
                                                    "backend.conv_grad"))}


@pytest.mark.parametrize("workload", NAMES)
def test_nan_output_is_counted_not_raised(workload):
    code, lines, err = _bench("--workload", workload, "--seed", "3",
                              "--seconds", "1", "--trace", "0", "--toy",
                              "--inject-nan")
    assert code == 0, err
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    assert any(line.startswith("# FAILED") for line in lines)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = _bench("--workload", "train-desk", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_absent_names_are_reported_not_raised():
    tracer = tracing.Tracer(layers.PROBES + (
        tracing.Probe("backend", "no_such_kernel", "backend.gone"),
        tracing.Probe("no_such_module", "f", "gone.f")))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["backend.no_such_kernel", "no_such_module.f"]
    values = layers.compute(tracer, 0, 1.0, 1.0, 1.0, {})
    assert set(values) == set(layers.UNITS)


def test_tail_ratio_is_per_class():
    rec = workloads.Recorder()
    for i in range(1, 21):
        rec.op("small", 0.01 * i, 0.0)
        rec.op("large", 10.0 * i, 1.0)
    alone = workloads.Recorder()
    for i in range(1, 21):
        alone.op("small", 0.01 * i, 0.0)
    assert workloads.tail_ratio(rec) == pytest.approx(workloads.tail_ratio(alone))
    assert workloads.throughput(rec) == pytest.approx(20 / sum(
        0.01 * i + 10.0 * i for i in range(1, 21)))


def test_tail_leaves_ten_samples_above():
    value, unit, note = workloads.tail(list(range(100)))
    assert (value, unit) == (89, "s") and note.startswith("p89.9")
