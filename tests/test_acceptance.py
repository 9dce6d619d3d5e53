"""Acceptance suite: the package's shipped guarantees, one test each.

Every test prints a single [PASS]/[FAIL] verdict line (replayed in the
terminal summary by conftest) and asserts it.
"""

import json
import time

import numpy as np
import pytest

import gradcheck
from acceptance_report import record, record_raw
from msdnpan.classic_fusion import inject
from msdnpan.cli import build_parser, main
from msdnpan.data_pipeline import (
    generate_dataset, load_manifest, load_sample, load_split, load_tensor,
    synth_scene,
)
from msdnpan.injection_net import (
    ModelConfig, PansharpenModel, pansharpen, pansharpen_with_details,
)
from msdnpan.metrics import (
    d_lambda, d_s, ergas, pearson, q4, qnr, sam, scc,
)
from msdnpan.tensor_core import Tensor, bicubic_upsample
from msdnpan.trainer import (
    desk_config, load_checkpoint, model_from_checkpoint, save_checkpoint,
    train,
)
from test_metrics import _o_d_lambda, _o_d_s, _o_ergas, _o_q4, _o_sam, _o_scc


def test_c01_gradient_suite():
    t0 = time.perf_counter()
    results = gradcheck.run_suite(seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(err for _, err in results)
    ok = (worst < gradcheck.TOLERANCE and elapsed < 60.0
          and len(results) >= 30)
    assert record(ok, "criterion 01",
                  f"gradient suite: {len(results)} cases, worst rel err "
                  f"{worst:.2e} (< 1e-4), {elapsed:.1f}s (< 60s)")


def test_c02_metric_identities():
    rng = np.random.default_rng(12)
    dev = dict.fromkeys(("sam", "ergas", "scc", "q4"), 0.0)
    for _ in range(20):
        x = rng.uniform(0.1, 1.0, (4, 8, 8))
        dev["sam"] = max(dev["sam"], abs(sam(x, x.copy())))
        dev["ergas"] = max(dev["ergas"], abs(ergas(x, x.copy())))
        dev["scc"] = max(dev["scc"], abs(scc(x, x.copy()) - 1.0))
        dev["q4"] = max(dev["q4"], abs(q4(x, x.copy()) - 1.0))
    qnr_dev = abs(qnr(0.0, 0.0) - 1.0)
    ok = (dev["sam"] == 0.0 and dev["ergas"] == 0.0 and qnr_dev == 0.0
          and dev["scc"] < 1e-9 and dev["q4"] < 1e-9)
    assert record(ok, "criterion 02",
                  "identities on 20 tensors: sam(X,X)="
                  f"{dev['sam']:.1e}, ergas(X,X)={dev['ergas']:.1e}, "
                  f"|scc-1|={dev['scc']:.1e}, |q4-1|={dev['q4']:.1e}, "
                  f"|qnr(0,0)-1|={qnr_dev:.1e}")


def test_c03_metric_oracles():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        x = rng.uniform(0.1, 1.0, (4, 8, 8))
        y = rng.uniform(0.1, 1.0, (4, 8, 8))
        worst = max(worst,
                    abs(sam(x, y) - _o_sam(x, y)),
                    abs(ergas(x, y) - _o_ergas(x, y, 0.25)),
                    abs(scc(x, y) - _o_scc(x, y)),
                    abs(q4(x, y) - _o_q4(x, y)))
        ms = rng.uniform(0.1, 1.0, (4, 4, 4))
        fused = rng.uniform(0.1, 1.0, (4, 8, 8))
        pan = rng.uniform(0.1, 1.0, (1, 8, 8))
        odl, ods = _o_d_lambda(ms, fused), _o_d_s(ms, fused, pan)
        worst = max(worst,
                    abs(d_lambda(ms, fused) - odl),
                    abs(d_s(ms, fused, pan) - ods),
                    abs(qnr(d_lambda(ms, fused), d_s(ms, fused, pan))
                        - (1.0 - odl) * (1.0 - ods)))
    base = rng.uniform(0.1, 1.0, (4, 4, 4))
    nearest = np.repeat(np.repeat(base, 2, axis=1), 2, axis=2)
    dl_nearest = d_lambda(base, nearest)
    ok = worst < 1e-9 and dl_nearest == 0.0
    assert record(ok, "criterion 03",
                  f"7 metrics vs direct-summation oracles on 50 instances: "
                  f"worst |diff| {worst:.1e} (< 1e-9); d_lambda of a "
                  f"nearest-neighbour upsample = {dl_nearest}")


def test_c04_shape_and_identity():
    cfg = ModelConfig(channels=8, memory_slots=8, nin_depth=2)
    model = PansharpenModel(cfg, np.random.default_rng(3))
    ms = Tensor(np.random.default_rng(4)
                .uniform(0.2, 0.8, (2, 4, 8, 12)).astype(np.float32))
    out, details = pansharpen_with_details(ms, model)
    shapes_ok = (out.shape == (2, 4, 8 * cfg.scale, 12 * cfg.scale)
                 and details.shape == (2, 1, 8 * cfg.scale, 12 * cfg.scale))
    # the injection path's output projection starts at zero
    zero_dev = float(np.abs(out.data
                            - bicubic_upsample(ms, cfg.scale).data).max())
    ok = shapes_ok and zero_dev == 0.0
    assert record(ok, "criterion 04",
                  f"output is {cfg.scale}x input spatially, details are "
                  f"single-channel, a fresh model's zeroed injection path "
                  f"deviates {zero_dev:.1e} from bicubic")


def test_c05_training_sanity():
    scenes = [synth_scene(300 + i, 32, sample_id=f"t{i:02d}")
              for i in range(16)]
    cfg = desk_config(epochs=50, batch_size=4, seed=1)   # 4 steps/epoch
    records = []
    t0 = time.perf_counter()
    train(scenes, cfg, hook=lambda m, e, s, r: records.append(r))
    elapsed = time.perf_counter() - t0
    first, last = records[0], records[-1]
    drop = 1.0 - last["total"] / first["total"]
    ok = len(records) == 200 and drop >= 0.5 and elapsed < 300.0
    # lambda 100 makes the total mostly the memorizing term, so the L1 is
    # printed beside it: the drop shows that the optimizer runs, not that
    # reconstruction improves
    assert record(ok, "criterion 05",
                  f"16-sample desk run: total loss {first['total']:.4f} -> "
                  f"{last['total']:.4f} over 200 steps ({drop:.1%} drop, "
                  f"needs >= 50%; L1 {first['l1']:.4f} -> {last['l1']:.4f}), "
                  f"{elapsed:.0f}s (< 300s)")


def _memorization_scenes():
    return [synth_scene(700 + i, 32, sample_id=f"mem{i}") for i in range(4)]


def _mean_detail_correlation(model, scenes):
    ms = Tensor(np.stack([s.ms for s in scenes]))
    _, details = pansharpen_with_details(ms, model)
    return float(np.mean([pearson(details.data[i], scenes[i].hp)
                          for i in range(len(scenes))]))


def test_c06_memorization_property():
    """Detail planes converge toward the PAN high-pass target.

    400 full-batch steps of the desk config on 4 scenes. Three defaults
    make this work, and each departs from the paper: the memorizing term
    is the KL alone (the paper's L1 sparsity penalty on the coefficient
    map pinned the coefficients near zero, since Adam gives its constant
    per-element gradient a full-size step), lambda is 100, and the lr is a
    constant 2e-3. The zero-initialised output projection makes a fresh
    model exactly bicubic, so the early steps shape the detail plane
    instead of undoing a random residual. README gives the measured gains.
    """
    scenes = _memorization_scenes()
    cfg = desk_config(epochs=400, batch_size=4, augment=False, seed=7)
    init_model = PansharpenModel(cfg.model, np.random.default_rng((cfg.seed, 0)))
    start = _mean_detail_correlation(init_model, scenes)
    trained = model_from_checkpoint(train(scenes, cfg))
    delta = _mean_detail_correlation(trained, scenes) - start
    assert record(delta >= 0.3, "criterion 06",
                  f"memorization: mean detail/high-pass correlation "
                  f"{start:+.3f} -> {start + delta:+.3f} over 400 steps "
                  f"(delta {delta:+.3f}, needs >= +0.3)")


def test_c07_ms_only_inference(tmp_path):
    data = tmp_path / "data"
    ckpt = tmp_path / "model.msdc"
    assert main(["gen-data", "--out", str(data), "--count", "6",
                 "--size", "16", "--seed", "2"]) == 0
    assert main(["train", "--data", str(data), "--out", str(ckpt),
                 "--preset", "desk", "--epochs", "1", "--batch", "4",
                 "--channels", "8", "--mem-slots", "8", "--nin-depth", "1",
                 "--seed", "3"]) == 0
    out = tmp_path / "sharp.msdt"
    rc = main(["infer", "--ckpt", str(ckpt), "--ms",
               str(data / "scene_0000" / "ms.msdt"), "--out", str(out)])
    produced = rc == 0 and load_tensor(out).shape == (4, 16, 16)

    parser = build_parser()
    sub = parser._subparsers._group_actions[0]
    flags = {s for a in sub.choices["infer"]._actions for s in a.option_strings}
    flags_ok = (flags == {"-h", "--help", "--ckpt", "--ms", "--out",
                          "--export-ppm"}
                and not any("pan" in f.lower() for f in flags))
    assert record(produced and flags_ok, "criterion 07",
                  f"inference consumed a checkpoint and MS alone -> "
                  f"(4, 16, 16); infer flags are exactly "
                  f"{sorted(f for f in flags if f.startswith('--'))} "
                  f"(no PAN input exists)")


def test_c08_baseline_ordering():
    mra_scores, cubic_scores = [], []
    for i in range(8):
        s = synth_scene(40 + i, 32, sample_id=f"b{i}")
        up = bicubic_upsample(Tensor(s.ms), 4).data
        mra = inject(up, s.pan, "mra-add", gain=1.0, window=5)
        mra_scores.append(scc(mra, s.gt))
        cubic_scores.append(scc(up, s.gt))
    mra_mean = float(np.mean(mra_scores))
    cubic_mean = float(np.mean(cubic_scores))
    ok = mra_mean > cubic_mean
    assert record(ok, "criterion 08",
                  f"8-scene mean SCC: mra-additive {mra_mean:+.4f} > "
                  f"bicubic {cubic_mean:+.4f}")


def test_c09_determinism_and_persistence(tmp_path):
    scenes = [synth_scene(500 + i, 16, sample_id=f"d{i}") for i in range(4)]

    def config():
        return desk_config(epochs=2, batch_size=4, channels=8,
                           memory_slots=8, nin_depth=1, seed=11)

    a = train(scenes, config())
    b = train(scenes, config())
    bit_train = all(np.array_equal(a.params[n], b.params[n]) for n in a.params)

    path = tmp_path / "model.msdc"
    save_checkpoint(path, a)
    back = load_checkpoint(path)
    bit_ckpt = all(np.array_equal(back.params[n], a.params[n])
                   for n in a.params)

    ms = Tensor(scenes[0].ms[None])
    before = pansharpen(ms, model_from_checkpoint(a)).data
    after = pansharpen(ms, model_from_checkpoint(back)).data
    bit_infer = np.array_equal(before, after)
    ok = bit_train and bit_ckpt and bit_infer
    assert record(ok, "criterion 09",
                  f"repeat training bit-identical: {bit_train}; checkpoint "
                  f"round-trip bit-exact: {bit_ckpt}; inference pre/post "
                  f"reload bit-identical: {bit_infer}")


def test_c10_ablation_grid(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--count", "6",
                 "--size", "16", "--seed", "2"]) == 0
    rows = []
    for slots, depth in [(16, 2), (32, 2), (64, 2), (16, 1), (16, 3)]:
        ckpt = tmp_path / f"n{slots}_d{depth}.msdc"
        assert main(["train", "--data", str(data), "--out", str(ckpt),
                     "--preset", "desk", "--epochs", "2", "--batch", "4",
                     "--mem-slots", str(slots), "--nin-depth", str(depth),
                     "--seed", "5"]) == 0
        pred = tmp_path / f"n{slots}_d{depth}.msdt"
        assert main(["infer", "--ckpt", str(ckpt), "--ms",
                     str(data / "scene_0000" / "ms.msdt"),
                     "--out", str(pred)]) == 0
        assert main(["eval-reduced", "--pred", str(pred), "--gt",
                     str(data / "scene_0000" / "gt.msdt")]) == 0
        out = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        rows.append((slots, depth, json.loads(out[-1])))
    bicubic = tmp_path / "bicubic.msdt"
    assert main(["baseline", "--method", "bicubic", "--ms",
                 str(data / "scene_0000" / "ms.msdt"),
                 "--out", str(bicubic)]) == 0
    assert main(["eval-reduced", "--pred", str(bicubic), "--gt",
                 str(data / "scene_0000" / "gt.msdt")]) == 0
    out = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    record_raw("ablation comparison (2-epoch desk runs, scene_0000):")
    record_raw("  slots depth      sam    ergas      scc       q4")
    labelled = [(f"{slots:>5} {depth:>5}", vals) for slots, depth, vals in rows]
    for label, vals in [*labelled, (f"{'bicubic':>11}", json.loads(out[-1]))]:
        record_raw(f"  {label} {vals['sam']:>8.4f} "
                   f"{vals['ergas']:>8.4f} {vals['scc']:>8.4f} "
                   f"{vals['q4']:>8.4f}")
    distinct = len({(s, d) for s, d, _ in rows})
    assert record(distinct == 5, "criterion 10",
                  "memory sizes {16, 32, 64} and depths {1, 2, 3} ran via "
                  "CLI flags and produced the comparison table above")


def _split_means(preds, scenes, details=None):
    """Mean SAM, ERGAS, SCC and Q of predictions over scenes, plus the
    mean P_s/hp correlation when detail planes are given."""
    rows = [(sam(p, s.gt), ergas(p, s.gt), scc(p, s.gt), q4(p, s.gt))
            for p, s in zip(preds, scenes)]
    means = [float(np.mean(col)) for col in zip(*rows)]
    if details is not None:
        means.append(float(np.mean([pearson(d, s.hp)
                                    for d, s in zip(details, scenes)])))
    return means


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the shipped objective leaves the model at bicubic on held-out scenes: "
    "ERGAS 3.2877 against 3.2865, SCC 0.1433 against 0.1443, P_s/hp 0.0004"))
def test_c11_held_out_beats_bicubic(tmp_path):
    """MS-only sharpening against bicubic on scenes it never trained on.

    The desk preset trains for 30 epochs on the train split of
    generate_dataset(40, 64, seed=0) and is scored on all 32 scenes of
    generate_dataset(32, 64, seed=1). The gate, fixed before any run: the
    model beats bicubic on both mean ERGAS and mean SCC. SAM, Q and the
    P_s/hp correlation are printed and not gated.
    """
    generate_dataset(tmp_path / "train", 40, 64, seed=0)
    generate_dataset(tmp_path / "held", 32, 64, seed=1)
    t0 = time.perf_counter()
    model = model_from_checkpoint(train(
        load_split(load_manifest(tmp_path / "train"), "train"),
        desk_config(epochs=30, seed=0)))
    elapsed = time.perf_counter() - t0
    held = load_manifest(tmp_path / "held")
    scenes = [load_sample(held.root, sid, with_pan=False)
              for sid in sorted(held.ids)]
    ms = Tensor(np.stack([s.ms for s in scenes]))
    out, details = pansharpen_with_details(ms, model)
    ours = _split_means(out.data, scenes, details.data)
    cubic = _split_means(bicubic_upsample(ms, 4).data, scenes)
    record_raw(f"held-out comparison ({len(scenes)} scenes, "
               f"{elapsed:.0f}s of training):")
    record_raw("             sam    ergas      scc       q4   P_s/hp")
    for label, vals in (("model", ours), ("bicubic", cubic)):
        record_raw(f"  {label:>7} " + " ".join(f"{v:>8.4f}" for v in vals))
    ok = ours[1] < cubic[1] and ours[2] > cubic[2]
    assert record(ok, "criterion 11",
                  f"held-out MS-only model against bicubic: ERGAS "
                  f"{ours[1]:.3f} vs {cubic[1]:.3f}, SCC {ours[2]:.3f} vs "
                  f"{cubic[2]:.3f} (needs lower ERGAS and higher SCC)")
