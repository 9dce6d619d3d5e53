"""Record a checkout's benchmark into BENCH_<commit>.json, or compare two
checkouts in alternating pairs. Pytest does not collect this file.

It runs the checkout's own ``perfbench/run.py``, unchanged, with the run
length and workloads its ``BENCHMARK.json`` declares:

    python tests/bench_record.py --checkout . --out-dir .

runs every workload over its fixed seeds (SEEDS) with ``--trace 0``, then
once with ``--trace 1``, and writes ``BENCH_<short commit>.json`` holding,
per workload:

- for each gated end-to-end metric, the median, the quartiles
  (``statistics.quantiles``, inclusive method), n and the values in seed
  order;
- ``failed`` and ``attempted``, summed over the untraced runs;
- the traced run's per-layer rows, as run.py prints them;
- run.py's ``env`` (numpy and BLAS versions, CPU counts, backend, commit).

It also writes ``traced_peaks_mib``: tracemalloc peaks, in MiB, measured
in a subprocess that imports the checkout's ``src`` (``traced_peaks``):
one seeded training part (``trainer._part``: forward, loss and backward)
of the desk config on two 64x64 scenes and of the full config on eight,
and the tape-free full-config ``pansharpen`` of one MS 16/32/64 image.

The checkout must have no uncommitted change under ``src/`` or
``perfbench/``, so that the commit in the name describes the code.

    python tests/bench_record.py --pairs PARENT CHANGE --workload baseline-eval \\
        --seeds 701 702 703 704 705 706 707 708 709 710

runs one untraced run of each checkout per seed, PARENT first on even
pairs and CHANGE first on odd ones, prints every pair as it completes,
then each gated metric's medians and quartiles per side and the pairs
CHANGE won (ties count for neither side).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = {
    "train-desk": (11, 12, 13, 14, 15),
    "infer-mixed": (21, 22, 23, 24, 25),
    "baseline-eval": (31, 32, 33, 34, 35),
}
TRACE_SEED = 41
PART_SCENES = {"desk": 2, "full": 8}     # 64x64 scenes per traced part
INFER_MS = (16, 32, 64)


def _spec(checkout):
    return json.loads((Path(checkout) / "BENCHMARK.json").read_text())


def _git(checkout, *args):
    return subprocess.run(["git", "-C", str(checkout), *args],
                          capture_output=True, text=True, check=True,
                          timeout=60).stdout.strip()


def run_once(checkout, workload, seed, seconds, trace=0):
    """One run.py run: (its last JSON line, its env), or SystemExit."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    res = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                         timeout=4 * seconds + 600)
    lines = res.stdout.strip().splitlines()
    if res.returncode or not lines:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited "
                         f"{res.returncode}\n{res.stderr[-2000:]}")
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), None)
    return json.loads(lines[-1]), env


def _traced_peaks_here():
    """Print the traced peaks of the msdnpan on sys.path as one JSON line."""
    import tracemalloc

    import numpy as np

    from msdnpan import trainer
    from msdnpan.data_pipeline import synth_scene
    from msdnpan.injection_net import (
        BANDS, ModelConfig, PansharpenModel, pansharpen,
    )
    from msdnpan.tensor_core import Tensor

    def peak_mib(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return round(tracemalloc.get_traced_memory()[1] / 2 ** 20, 2)
        finally:
            tracemalloc.stop()

    peaks = {}
    for name, count in PART_SCENES.items():
        cfg = (trainer.desk_config(seed=1) if name == "desk"
               else trainer.TrainConfig())
        model = PansharpenModel(cfg.model, np.random.default_rng(0))
        scenes = [synth_scene(100 + i, 64) for i in range(count)]
        ms, gt, hp = (np.stack([getattr(s, attr) for s in scenes])
                      for attr in ("ms", "gt", "hp"))
        peaks[f"part.{name}.{count}x64"] = peak_mib(
            trainer._part, model, ms, gt, hp, cfg.loss_weight, 1.0)
    # frozen as `infer` freezes it, with a drawn output projection so that
    # the NIN's planes are not all zero
    model = PansharpenModel(ModelConfig(), np.random.default_rng((5, 0)))
    w = model.nin.project.weight
    w.data[...] = np.random.default_rng(9).normal(0.0, 0.1, w.shape)
    for p in model.parameters():
        p.requires_grad = False
    for size in INFER_MS:
        ms = Tensor(np.random.default_rng(0).random((1, BANDS, size, size),
                                                    np.float32))
        pansharpen(ms, model)   # warm-up: first-call caches
        peaks[f"pansharpen.full.ms{size}"] = peak_mib(pansharpen, ms, model)
    print(json.dumps(peaks))


def traced_peaks(checkout):
    """`_traced_peaks_here` run against the checkout's src: a dict of MiB."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(checkout).resolve() / "src"), str(here)]))
    res = subprocess.run(
        [sys.executable, "-c",
         "import bench_record; bench_record._traced_peaks_here()"],
        env=env, capture_output=True, text=True, timeout=1200)
    if res.returncode:
        raise SystemExit(f"{checkout}: traced peaks exited {res.returncode}"
                         f"\n{res.stderr[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def summary(values):
    """Median, quartiles and n of a list of numbers."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def record(checkout, out_dir):
    checkout = Path(checkout).resolve()
    if _git(checkout, "status", "--porcelain", "--", "src", "perfbench"):
        raise SystemExit(f"{checkout}: uncommitted changes under src/ or "
                         "perfbench/; commit them first")
    commit = _git(checkout, "rev-parse", "--short", "HEAD")
    spec = _spec(checkout)
    seconds = spec["run_seconds"]
    gated = [m["name"] for m in spec["end_to_end"]]
    result = {"commit": _git(checkout, "rev-parse", "HEAD"),
              "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = SEEDS[workload]
        values = {name: [] for name in gated}
        failed = attempted = 0
        for seed in seeds:
            out, env = run_once(checkout, workload, seed, seconds)
            print(f"{workload} seed {seed}: "
                  + json.dumps({k: v["value"] for k, v in out["metrics"].items()}),
                  flush=True)
            for name in gated:
                values[name].append(out["metrics"][name]["value"])
            failed += out["failed"]
            attempted += out["attempted"]
        traced, _ = run_once(checkout, workload, TRACE_SEED, seconds, trace=1)
        result["workloads"][workload] = {
            "seeds": list(seeds),
            "end_to_end": {name: dict(summary(v), values=v)
                           for name, v in values.items()},
            "failed": failed, "attempted": attempted,
            "traced": {"seed": TRACE_SEED, "failed": traced["failed"],
                       "attempted": traced["attempted"],
                       "per_layer": {k: v["value"] for k, v
                                     in traced["metrics"].items()}},
        }
        result["env"] = env
    result["traced_peaks_mib"] = traced_peaks(checkout)
    path = Path(out_dir) / f"BENCH_{commit}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def pairs(parent, change, workload, seeds):
    spec = _spec(change)
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": [], "change": []}
    failed = {"parent": [0, 0], "change": [0, 0]}
    for i, seed in enumerate(seeds):
        order = (("parent", parent), ("change", change))
        for side, checkout in order if i % 2 == 0 else order[::-1]:
            out, _ = run_once(checkout, workload, seed, seconds)
            sides[side].append({k: v["value"] for k, v in out["metrics"].items()})
            failed[side][0] += out["failed"]
            failed[side][1] += out["attempted"]
        print(f"pair {i + 1} seed {seed}: " + ", ".join(
            f"{name} {sides['parent'][-1][name]:.6g} -> "
            f"{sides['change'][-1][name]:.6g}" for name in better), flush=True)
    print(f"# {workload}: {len(seeds)} pairs of {seconds} s runs, "
          f"median [q1, q3], parent -> change, pairs the change won")
    for name, direction in better.items():
        a = [run[name] for run in sides["parent"]]
        b = [run[name] for run in sides["change"]]
        sa, sb = summary(a), summary(b)
        won = sum((y < x) if direction == "lower" else (y > x)
                  for x, y in zip(a, b))
        print(f"{name:<16} {sa['median']:.6g} [{sa['q1']:.6g}, "
              f"{sa['q3']:.6g}] -> {sb['median']:.6g} [{sb['q1']:.6g}, "
              f"{sb['q3']:.6g}]  won {won} of {len(a)}  "
              f"(parent IQR {sa['q3'] - sa['q1']:.6g}, "
              f"median shift {sb['median'] - sa['median']:+.6g})")
    for side, (f, n) in failed.items():
        print(f"{side}: {f} of {n} checks failed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", help="checkout to record")
    p.add_argument("--out-dir", default=".",
                   help="where BENCH_<commit>.json is written")
    p.add_argument("--pairs", nargs=2, metavar=("PARENT", "CHANGE"),
                   help="compare two checkouts in alternating pairs")
    p.add_argument("--workload", help="workload the pairs run")
    p.add_argument("--seeds", type=int, nargs="+", help="one pair per seed")
    args = p.parse_args()
    if args.pairs:
        if not (args.workload and args.seeds):
            p.error("--pairs needs --workload and --seeds")
        pairs(*args.pairs, args.workload, args.seeds)
    elif args.checkout:
        record(args.checkout, args.out_dir)
    else:
        p.error("give --checkout or --pairs")


if __name__ == "__main__":
    main()
