"""Scene synthesis, tensor files, PPM export, and dataset layout."""

import json

import numpy as np
import pytest

from msdnpan.classic_fusion import hp_details
from msdnpan.data_pipeline import (
    PAN_WEIGHTS, SceneSample, augment, decode_tensor, encode_tensor,
    export_ppm, generate_dataset, load_manifest, load_sample, load_split,
    load_tensor, save_tensor, split_of, synth_scene, wald_downsample,
)
from msdnpan.errors import FormatError, ShapeError
from msdnpan.tensor_core import Tensor


# ---------------------------------------------------------------------------
# wald_downsample

def test_wald_block_means():
    img = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    out = wald_downsample(img, 2)
    assert out.shape == (1, 1) and out[0, 0] == 2.5


def test_wald_preserves_container_and_rank():
    arr = np.arange(32, dtype=np.float32).reshape(2, 4, 4)
    out = wald_downsample(arr, 2)
    assert isinstance(out, np.ndarray) and out.shape == (2, 2, 2)
    t = wald_downsample(Tensor(arr), 2)
    assert isinstance(t, Tensor) and np.array_equal(t.data, out)
    same = wald_downsample(arr, 1)
    assert np.array_equal(same, arr)


def test_wald_rejects_bad_input():
    with pytest.raises(ShapeError):
        wald_downsample(np.ones(8, dtype=np.float32), 2)
    with pytest.raises(ShapeError):
        wald_downsample(np.ones((3, 3), dtype=np.float32), 2)
    with pytest.raises(ShapeError):
        wald_downsample(np.ones((4, 4), dtype=np.float32), 0)


# ---------------------------------------------------------------------------
# synth_scene

def test_scene_shapes_ranges_and_determinism():
    a = synth_scene(5, 16)
    b = synth_scene(5, 16)
    assert a.ms.shape == (4, 4, 4)
    assert a.gt.shape == (4, 16, 16)
    assert a.pan.shape == (1, 16, 16)
    assert a.hp.shape == (1, 16, 16)
    for attr in ("ms", "gt", "pan", "hp"):
        ta, tb = getattr(a, attr), getattr(b, attr)
        assert ta.data.dtype == np.float32
        assert np.array_equal(ta.data, tb.data)
    assert a.gt.data.min() >= 0.0 and a.gt.data.max() <= 1.0
    assert a.pan.data.min() >= 0.0 and a.pan.data.max() <= 1.0
    assert a.id == "scene_5"
    assert synth_scene(6, 16).gt.data.tolist() != a.gt.data.tolist()


def test_scene_ms_is_wald_of_gt():
    s = synth_scene(9, 16)
    assert np.array_equal(s.ms.data, wald_downsample(s.gt.data, 4))


def test_scene_hp_recomputable_from_pan():
    s = synth_scene(11, 16)
    again = hp_details(s.pan, 5)
    assert np.array_equal(s.hp.data, again.data)


def test_scene_pan_is_weighted_sum_when_kappa_zero():
    s = synth_scene(3, 16, kappa=0.0)
    w = np.asarray(PAN_WEIGHTS, dtype=np.float64).reshape(-1, 1, 1)
    expect = (s.gt.data.astype(np.float64) * w).sum(axis=0)
    assert np.allclose(s.pan.data[0], expect, atol=1e-6)


def test_scene_validation():
    with pytest.raises(ShapeError):
        synth_scene(0, 10)            # not divisible by scale 4
    with pytest.raises(ShapeError):
        synth_scene(0, 16, weights=(0.5, 0.5))


# ---------------------------------------------------------------------------
# augment

def test_augment_flips_all_planes_consistently():
    s = synth_scene(2, 8)
    h = augment(s, "hflip")
    v = augment(s, "vflip")
    for attr in ("ms", "gt", "pan", "hp"):
        orig = getattr(s, attr).data
        assert np.array_equal(getattr(h, attr).data, orig[..., ::-1])
        assert np.array_equal(getattr(v, attr).data, orig[..., ::-1, :])
    back = augment(h, "hflip")
    assert np.array_equal(back.gt.data, s.gt.data)
    assert augment(s, "none") is s
    with pytest.raises(ValueError):
        augment(s, "rot90")


def test_augment_keeps_missing_pan():
    s = SceneSample(ms=Tensor(np.ones((4, 2, 2), np.float32)),
                    gt=Tensor(np.ones((4, 8, 8), np.float32)),
                    pan=None, hp=None, id="x")
    out = augment(s, "hflip")
    assert out.pan is None and out.hp is None


# ---------------------------------------------------------------------------
# .msdt encoding

def test_tensor_round_trip_all_ranks(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(7,), (3, 5), (2, 4, 4), (2, 3, 4, 5)]:
        arr = rng.standard_normal(shape).astype(np.float32)
        path = tmp_path / f"r{len(shape)}.msdt"
        save_tensor(path, arr)
        back = load_tensor(path)
        assert isinstance(back, Tensor)
        assert back.data.dtype == np.float32
        assert np.array_equal(back.data, arr)


def test_encode_accepts_tensor_and_casts():
    t = Tensor(np.array([1.0, 2.0]))
    buf = encode_tensor(t)
    assert buf[:4] == b"MSDT" and buf[4] == 1 and buf[5] == 1
    assert np.array_equal(decode_tensor(buf), np.array([1, 2], np.float32))


def test_decode_error_battery():
    good = encode_tensor(np.ones((2, 3), np.float32))
    with pytest.raises(FormatError):
        decode_tensor(b"JUNK" + good[4:])
    with pytest.raises(FormatError):
        decode_tensor(good[:4] + bytes([9]) + good[5:])    # bad version
    with pytest.raises(FormatError):
        decode_tensor(good[:5] + bytes([0]) + good[6:])    # rank 0
    with pytest.raises(FormatError):
        decode_tensor(good[:5] + bytes([5]) + good[6:])    # rank 5
    with pytest.raises(FormatError):
        decode_tensor(good[:8])                            # truncated header
    with pytest.raises(FormatError):
        decode_tensor(good[:-4])                           # short payload
    with pytest.raises(FormatError):
        decode_tensor(good + b"\x00")                      # trailing bytes
    with pytest.raises(FormatError):
        encode_tensor(np.ones((2,) * 5, np.float32))
    with pytest.raises(FormatError):
        load_tensor("/nonexistent/file.msdt")


# ---------------------------------------------------------------------------
# PPM export

def test_ppm_p6_header_and_rounding(tmp_path):
    img = np.zeros((3, 2, 3), dtype=np.float32)
    img[0, 0, 0] = 1.0          # full range over the whole image
    img[1, 0, 1] = 0.5          # 127.5 rounds half-up to 128
    path = tmp_path / "img.ppm"
    export_ppm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n3 2\n255\n")
    body = np.frombuffer(raw[len(b"P6\n3 2\n255\n"):], dtype=np.uint8)
    body = body.reshape(2, 3, 3)
    assert body[0, 0, 0] == 255
    assert body[1, 0, 0] == 0
    assert body[0, 1, 1] == 128


def test_ppm_p5_and_constant(tmp_path):
    grey = Tensor(np.full((1, 4, 5), 0.7, np.float32))
    path = tmp_path / "img.pgm"
    export_ppm(path, grey)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n5 4\n255\n")
    assert set(raw[len(b"P5\n5 4\n255\n"):]) == {0}
    with pytest.raises(ShapeError):
        export_ppm(path, np.ones((2, 4, 4)))
    with pytest.raises(ShapeError):
        export_ppm(path, np.ones((4, 4)))


# ---------------------------------------------------------------------------
# split + dataset round trip

def test_split_is_deterministic_and_roughly_ninety_ten():
    ids = [f"scene_{i:04d}" for i in range(1000)]
    first = [split_of(0, i) for i in ids]
    assert first == [split_of(0, i) for i in ids]
    frac = first.count("train") / len(first)
    assert 0.85 < frac < 0.95
    assert "test" in first
    assert [split_of(1, i) for i in ids] != first


def test_generate_and_load_dataset(tmp_path):
    root = tmp_path / "data"
    manifest = generate_dataset(root, count=6, size=8, seed=3)
    assert manifest.ids == [f"scene_{i:04d}" for i in range(6)]
    assert sorted(manifest.train_ids() + manifest.test_ids()) == manifest.ids
    for sid in manifest.ids:
        for name in ("ms", "gt", "pan", "hp"):
            assert (root / sid / f"{name}.msdt").is_file()

    again = load_manifest(root)
    assert again.ids == manifest.ids
    assert again.split == manifest.split
    assert again.seed == 3
    assert again.params["size"] == 8

    sample = load_sample(root, "scene_0002")
    fresh = synth_scene(3 * 100003 + 2, 8, sample_id="scene_0002")
    for attr in ("ms", "gt", "pan", "hp"):
        assert np.array_equal(getattr(sample, attr).data,
                              getattr(fresh, attr).data)

    train = load_split(manifest, "train")
    test = load_split(manifest, "test")
    assert len(train) + len(test) == 6
    assert [s.id for s in train] == sorted(s.id for s in train)
    assert all(s.pan is None and s.hp is not None for s in train)
    withpan = load_split(manifest, "train", with_pan=True)
    assert all(s.pan is not None for s in withpan)


def test_load_manifest_errors(tmp_path):
    with pytest.raises(FormatError):
        load_manifest(tmp_path)
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(FormatError):
        load_manifest(tmp_path)
    (tmp_path / "manifest.json").write_text('{"version": 1}')
    with pytest.raises(FormatError):
        load_manifest(tmp_path)
    (tmp_path / "manifest.json").write_text("5")
    with pytest.raises(FormatError):
        load_manifest(tmp_path)
    with pytest.raises(ValueError):
        generate_dataset(tmp_path / "d", count=0, size=8, seed=0)


def _manifest_with(root, edit):
    generate_dataset(root, count=3, size=8, seed=0)
    path = root / "manifest.json"
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return root


@pytest.mark.parametrize("edit", [
    lambda m: m["split"].pop("scene_0001"),
    lambda m: m["split"].update(scene_0001="val"),
    lambda m: m.update(split=["train"] * 3),
    lambda m: m.update(ids=5),
    lambda m: m.update(ids=["scene_0000", 1]),
    lambda m: m.update(seed="x"),
    lambda m: m.update(seed=1.5),
    lambda m: m.update(seed=True),
    lambda m: m.update(params=[]),
], ids=["split-lacks-id", "split-not-train-or-test", "split-not-dict",
        "ids-not-list", "ids-not-strings", "seed-string", "seed-float",
        "seed-bool", "params-not-dict"])
def test_load_manifest_rejects_bad_types(tmp_path, edit):
    root = _manifest_with(tmp_path / "d", edit)
    with pytest.raises(FormatError):
        load_manifest(root)


@pytest.mark.parametrize("kwargs", [
    dict(count=0), dict(scale=0), dict(size=10), dict(size=0),
    dict(hp_window=4), dict(hp_window=0),
], ids=["count-0", "scale-0", "size-not-multiple", "size-0", "hp-window-even",
        "hp-window-0"])
def test_generate_dataset_checks_before_creating(tmp_path, kwargs):
    args = dict(count=2, size=8, seed=0, scale=4, hp_window=5) | kwargs
    root = tmp_path / "d"
    with pytest.raises(ValueError) as err:
        generate_dataset(root, **args)
    assert not isinstance(err.value, (FormatError, ShapeError))
    assert not root.exists()
