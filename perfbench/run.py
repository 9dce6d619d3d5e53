#!/usr/bin/env python3
"""msdnpan benchmark: one closed-loop, single-client workload per run.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

Workloads: train-desk, infer-mixed, baseline-eval (see workloads.py).

--trace 0 measures the end-to-end metrics with no tracing. --trace 1 runs
half the time untraced and half traced, and reports per-layer self times
(layers.py), the tracing overhead, and how layer plus harness time add up
to the traced wall time; spans are written to .perfbench_out/.

Human-readable lines come first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. Each run also writes its
result set, with the environment, to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3   # set-ups per run: this process plus fresh subprocesses

# Gated end-to-end metrics, the same on every workload (BENCHMARK.json);
# workloads.py defines them and maps them onto each workload's own metrics.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mpix_per_s": "Mpix/s",
    "op_s.p50": "s",
    "op_tail_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train-desk", "infer-mixed", "baseline-eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="self-test sizes instead of the benchmark's")
    p.add_argument("--inject-nan", action="store_true",
                   help="self-test: corrupt one output with NaN")
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the set-up time, exit")
    return p.parse_args(argv)


def _blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, if any."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = res.stdout.split()
    if res.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }
    backend = importlib.import_module("msdnpan.backend")
    if hasattr(backend, "active_backend"):
        env["active_backend"] = backend.active_backend()
    return env


def _setup_in_subprocess(args):
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--toy"] if args.toy else [])
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                         cwd=ROOT)
    if res.returncode:
        return None, res.stderr.strip()[-500:]
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"], ""


def _line(name, value, unit, note=""):
    print(f"{name:<40} {value:<14.6g} {unit}" + (f"  ({note})" if note else ""))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "msdnpan" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no msdnpan package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads            # numpy and msdnpan load here
    import_s = time.perf_counter() - t0
    import layers
    import msdnpan
    import tracing
    if Path(msdnpan.__file__).resolve().parent != SRC / "msdnpan":
        sys.stderr.write(f"perfbench: msdnpan imported from {msdnpan.__file__}, "
                         f"not {SRC}\n")
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        sizes = workloads.TOY[args.workload] if args.toy else None
        cls = workloads.WORKLOADS[args.workload]
        wl = cls(work, args.seed, sizes) if sizes else cls(work, args.seed)
        tracer = tracing.Tracer(layers.PROBES) if args.trace else None
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        wl.setup()
        setup_s = import_s + time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer:
            return _traced(args, wl, tracer)
        return _untraced(args, wl, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()        # only once no other run is using it


def _untraced(args, wl, setup_s):
    import workloads
    rec = workloads.Recorder()
    wl.run(args.seconds, rec, poison=args.inject_nan)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wl.verify(rec)
    setups = [setup_s]
    for _ in range(SETUP_REPEATS - 1):
        value, err = _setup_in_subprocess(args)
        if rec.check(value is not None, f"set-up subprocess failed: {err}"):
            setups.append(value)
    ops = wl.op_seconds(rec)
    metrics = {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (peak_rss_mb, "ru_maxrss of this process"),
        "mpix_per_s": (workloads.throughput(rec), f"over {len(rec.ops)} requests"),
        "op_s.p50": (statistics.median(ops), f"median of {len(ops)} {wl.op}"),
        "op_tail_ratio": (workloads.tail_ratio(rec),
                          "p80 of latency / its class's median"),
    }
    named = dict(wl.named(rec))
    named["fail_ratio"] = (len(rec.failures) / rec.attempted, "ratio",
                           f"{len(rec.failures)} of {rec.attempted}")
    print(f"# {wl.name}: seed {args.seed}, {args.seconds:g} s, untraced")
    for name, (value, note) in metrics.items():
        _line(name, value, END_TO_END[name], note)
    for name, (value, unit, note) in named.items():
        _line(name, value, unit, note)
    return _finish(args, wl, rec.attempted, rec.failures,
                   {k: (v, END_TO_END[k]) for k, (v, _) in metrics.items()},
                   {"named": {k: v[0] for k, v in named.items()},
                    "requests": rec.ops})


def _traced(args, wl, tracer):
    import layers
    import workloads
    tracer.uninstall()
    half = args.seconds / 2
    untraced = workloads.Recorder()
    wl.run(half, untraced)
    traced = workloads.Recorder()
    tracer.phase = "timed"
    tracer.op_index = lambda: traced.executed
    tracer.install()
    t0 = time.perf_counter()
    wl.run(half, traced, poison=args.inject_nan)
    wall_s = time.perf_counter() - t0
    tracer.uninstall()
    wl.verify(traced)
    kernels = (layers.time_kernel_shapes(args.seed)
               if wl.name == "train-desk" and not args.toy else {})
    u50 = statistics.median(wl.op_seconds(untraced))
    t50 = statistics.median(wl.op_seconds(traced))
    values = layers.compute(tracer, traced.executed, wall_s, u50, t50, kernels)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{wl.name}-seed{args.seed}-spans.json")
    rows, top_s = tracer.summarize("timed")
    print(f"# {wl.name}: seed {args.seed}, {half:g} s untraced + {half:g} s traced")
    print(f"# traced wall {wall_s:.4f} s = layer self times {top_s:.4f} s "
          f"+ harness {wall_s - top_s:.4f} s; {traced.executed} requests")
    print(f"# tracing overhead: op_s.p50 {u50:.6g} s untraced, "
          f"{t50:.6g} s traced ({(t50 / u50 - 1) * 100:+.2f}%)")
    if tracer.absent:
        print("# absent layers (reported as 0): " + ", ".join(tracer.absent))
    for name, unit, _, moves in layers.SPEC:
        _line(name, values[name], unit, "moves " + moves)
    failures = untraced.failures + traced.failures
    return _finish(args, wl, untraced.attempted + traced.attempted, failures,
                   {k: (values[k], unit) for k, unit, _, _ in layers.SPEC},
                   {"spans": rows, "absent": tracer.absent})


def _finish(args, wl, attempted, failures, metrics, extra):
    for what in failures[:20]:
        print(f"# FAILED: {what}")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = dict(result, workload=wl.name, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, toy=args.toy,
                  env=environment(), failures=failures[:100], info=wl.info,
                  **extra)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("# env " + json.dumps(record["env"]))
    if wl.info:
        print("# info " + json.dumps(wl.info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
