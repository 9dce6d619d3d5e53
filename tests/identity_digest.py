"""Behaviour-identity digest: sha256 of what the package writes and prints.

Run it against the sources of two checkouts and compare the JSON lines:

    python tests/identity_digest.py --src path/to/checkout/src

Without --src it imports the package next to this file. The digests cover
the files of a generated dataset, `infer` outputs of a seeded full-config
checkpoint (its output projection drawn too, so that no layer is zero) at
three MS sizes, every parameter and the per-epoch JSON lines (but for
their wall-clock `seconds` and `samples_per_s`) of a short augmented desk
`train`, and the `eval-reduced`/`eval-full` stdout on three predictions of a
64x64 scene and on the mra-add prediction of a 512x512 scene.
Training splits each batch per usable CPU, so compare runs made with the
same CPU affinity. Pytest does not collect this file.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

INFER_MS = (16, 32, 64)
SCALE = 4
BIG = 512                     # GT size of the scenes baseline-eval scores


def _digest_files(root):
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _digest_params(params):
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode() + b"\0" + params[name].tobytes())
    return h.hexdigest()


def digests(work):
    # imported here so that --src decides which package is loaded
    import numpy as np

    from msdnpan import cli
    from msdnpan.data_pipeline import load_manifest, load_split
    from msdnpan.injection_net import ModelConfig, PansharpenModel
    from msdnpan.tensor_core import kaiming_normal
    from msdnpan.trainer import (
        TrainConfig, desk_config, save_checkpoint, snapshot, train,
    )

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"msdnpan {' '.join(map(str, argv))}: exit {code}")
        return out.getvalue()

    result = {}
    data = work / "data"
    run("gen-data", "--out", data, "--count", 6, "--size", 32, "--seed", 3)
    result["gen-data"] = _digest_files(data)

    logs = []
    final = train(load_split(load_manifest(data), "train"),
                  desk_config(epochs=3, seed=9, augment=True),
                  log_fn=logs.append)
    result["train.params"] = _digest_params(final.params)
    lines = "".join(json.dumps({key: value for key, value in log.items()
                                if key not in ("seconds", "samples_per_s")})
                    + "\n" for log in logs)
    result["train.log"] = hashlib.sha256(lines.encode()).hexdigest()

    ckpt = work / "full.msdc"
    model = PansharpenModel(ModelConfig(), np.random.default_rng(5))
    # a fresh nin.project is zero, so infer would return bicubic(MS)
    # exactly; seeded values let the infer digests see every layer
    project = model.nin.project.weight
    project.data[...] = kaiming_normal(np.random.default_rng(6),
                                       project.shape, project.shape[1],
                                       project.data.dtype)
    save_checkpoint(ckpt, snapshot(model, TrainConfig()))
    for m in INFER_MS:
        scenes = work / f"ms{m}"
        run("gen-data", "--out", scenes, "--count", 1, "--size", m * SCALE,
            "--seed", m)
        out = work / f"infer{m}.msdt"
        run("infer", "--ckpt", ckpt, "--ms", scenes / "scene_0000" / "ms.msdt",
            "--out", out)
        result[f"infer.ms{m}"] = hashlib.sha256(out.read_bytes()).hexdigest()

    def evaluate(scene, methods, infer=None):
        ms, gt, pan = (scene / f"{part}.msdt" for part in ("ms", "gt", "pan"))
        preds = {} if infer is None else {"infer": infer}
        for method, name in methods.items():
            preds[name] = work / f"{name}.msdt"
            run("baseline", "--method", method, "--ms", ms, "--pan", pan,
                "--out", preds[name])
        for name, pred in preds.items():
            for command, refs in (("eval-reduced", ("--gt", gt)),
                                  ("eval-full", ("--ms", ms, "--pan", pan))):
                text = run(command, "--pred", pred, *refs)
                result[f"{command}.{name}"] = hashlib.sha256(
                    text.encode()).hexdigest()

    evaluate(work / f"ms{INFER_MS[0]}" / "scene_0000",
             {"bicubic": "bicubic", "mra-add": "mra-add"},
             infer=work / f"infer{INFER_MS[0]}.msdt")
    big = work / f"scene{BIG}"
    run("gen-data", "--out", big, "--count", 1, "--size", BIG, "--seed", BIG)
    evaluate(big / "scene_0000", {"mra-add": f"scene{BIG}"})
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).parents[1] / "src"),
                        help="directory that holds the msdnpan package")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    with tempfile.TemporaryDirectory(prefix="msdnpan-digest-") as work:
        print(json.dumps(digests(Path(work)), sort_keys=True))


if __name__ == "__main__":
    main()
