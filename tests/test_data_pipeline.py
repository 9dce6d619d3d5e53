"""Scene synthesis, tensor files, PPM export, and dataset layout."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from msdnpan.classic_fusion import hp_details
from msdnpan.data_pipeline import (
    PAN_WEIGHTS, export_ppm, generate_dataset, load_manifest, load_sample,
    load_split, load_tensor, save_tensor, split_of, synth_scene,
    wald_downsample,
)
from msdnpan import trainer
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
    same = wald_downsample(arr[:, :, ::-1], 1)
    assert same.flags.c_contiguous and np.array_equal(same, arr[:, :, ::-1])


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
        assert type(ta) is np.ndarray and ta.dtype == np.float32
        assert np.array_equal(ta, tb)
    assert a.gt.min() >= 0.0 and a.gt.max() <= 1.0
    assert a.pan.min() >= 0.0 and a.pan.max() <= 1.0
    assert a.id == "scene_5"
    assert not np.array_equal(synth_scene(6, 16).gt, a.gt)


def test_scene_ms_is_wald_of_gt():
    s = synth_scene(9, 16)
    assert np.array_equal(s.ms, wald_downsample(s.gt, 4))


def test_scene_hp_recomputable_from_pan():
    s = synth_scene(11, 16)
    assert np.array_equal(s.hp, hp_details(s.pan, 5))


def test_scene_pan_is_weighted_sum_when_kappa_zero():
    s = synth_scene(3, 16, kappa=0.0)
    w = np.asarray(PAN_WEIGHTS, dtype=np.float64).reshape(-1, 1, 1)
    expect = (s.gt.astype(np.float64) * w).sum(axis=0)
    assert np.allclose(s.pan[0], expect, atol=1e-6)


def test_scene_synthesis_traced_peak():
    """The texture and PAN are built in place and the float64 GT is freed
    once its float32 copy exists. Basis: 16.5 MiB so, 24.5 MiB with the
    whole-image temporaries kept; the float32 result itself is 6.3 MiB."""
    peak = _traced_peak(lambda: synth_scene(53, 512))
    assert peak <= 22 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def test_scene_validation():
    with pytest.raises(ShapeError):
        synth_scene(0, 10)            # not divisible by scale 4


# ---------------------------------------------------------------------------
# augmentation: the flip modes live in trainer.AUG_MODES and train applies
# them to each stacked batch item

def _augmented_items(monkeypatch, samples, epochs):
    """Every (ms, gt, hp) item that an augmented desk `train` steps on."""
    seen = []
    batch_step = trainer._batch_step

    def spy(model, flat, ms, gt, hp, *rest):
        seen.extend(zip(ms.copy(), gt.copy(), hp.copy()))
        return batch_step(model, flat, ms, gt, hp, *rest)

    monkeypatch.setattr(trainer, "_batch_step", spy)
    trainer.train(samples, trainer.desk_config(
        epochs=epochs, batch_size=2, channels=8, memory_slots=8, nin_depth=1,
        augment=True, seed=4))
    return seen


def test_augment_flips_all_planes_consistently(monkeypatch):
    s = synth_scene(2, 16)
    assert [name for name, _ in trainer.AUG_MODES] == ["none", "hflip", "vflip"]
    flips = [lambda x: x] + [lambda x, a=axis: np.flip(x, a)
                             for _, axis in trainer.AUG_MODES[1:]]
    for flip, name in zip(flips, ("none", "hflip", "vflip")):
        for attr in ("ms", "gt", "pan", "hp"):
            orig = getattr(s, attr)
            want = {"none": orig, "hflip": orig[..., ::-1],
                    "vflip": orig[..., ::-1, :]}[name]
            assert np.array_equal(flip(orig), want)
        # a flip keeps the scene's planes tied together
        assert np.allclose(wald_downsample(flip(s.gt), 4), flip(s.ms), atol=1e-6)
        assert np.allclose(hp_details(flip(s.pan)), flip(s.hp), atol=1e-6)
        assert np.array_equal(flip(flip(s.gt)), s.gt)

    # in training, each item's ms, gt and hp share one drawn flip
    samples = [synth_scene(40 + i, 16, sample_id=f"s{i}") for i in range(4)]
    used = set()
    for ms, gt, hp in _augmented_items(monkeypatch, samples, epochs=2):
        hits = [(sample, k) for sample in samples
                for k, flip in enumerate(flips)
                if np.array_equal(gt, flip(sample.gt))]
        assert len(hits) == 1
        sample, k = hits[0]
        assert np.array_equal(ms, flips[k](sample.ms))
        assert np.array_equal(hp, flips[k](sample.hp))
        used.add(k)
    assert used == {0, 1, 2}


def test_augment_keeps_missing_pan(monkeypatch, tmp_path):
    manifest = generate_dataset(tmp_path / "data", count=6, size=16, seed=3)
    samples = load_split(manifest, "train")
    assert samples and all(s.pan is None for s in samples)
    before = [{a: getattr(s, a).copy() for a in ("ms", "gt", "hp")}
              for s in samples]
    items = _augmented_items(monkeypatch, samples, epochs=1)
    assert len(items) == len(samples)
    for s, orig in zip(samples, before):
        assert s.pan is None
        assert all(np.array_equal(getattr(s, a), orig[a]) for a in orig)


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


def test_encode_accepts_tensor_and_casts(tmp_path):
    path = tmp_path / "t.msdt"
    save_tensor(path, np.array([1.0, 2.0]))
    buf = path.read_bytes()
    assert buf[:4] == b"MSDT" and buf[4] == 1 and buf[5] == 1
    back = load_tensor(path).data
    assert back.dtype == np.float32
    assert np.array_equal(back, np.array([1, 2], np.float32))


def test_decode_error_battery(tmp_path):
    good_path = tmp_path / "good.msdt"
    save_tensor(good_path, np.ones((2, 3), np.float32))
    good = good_path.read_bytes()
    bad = tmp_path / "bad.msdt"
    for damaged in (b"JUNK" + good[4:],
                    good[:4] + bytes([9]) + good[5:],       # bad version
                    good[:5] + bytes([0]) + good[6:],       # rank 0
                    good[:5] + bytes([5]) + good[6:],       # rank 5
                    good[:8],                               # truncated header
                    good[:-4],                              # short payload
                    good + b"\x00"):                        # trailing bytes
        bad.write_bytes(damaged)
        with pytest.raises(FormatError):
            load_tensor(bad)
    with pytest.raises(FormatError):
        save_tensor(bad, np.ones((2,) * 5, np.float32))
    assert bad.read_bytes() == good + b"\x00"     # checked before opening
    with pytest.raises(FormatError):
        load_tensor("/nonexistent/file.msdt")


def _layout(shape, values):
    """.msdt bytes built by hand: magic, version, rank, uint32 extents,
    then the values as row-major little-endian float32."""
    return (b"MSDT" + bytes([1, len(shape)])
            + b"".join(struct.pack("<I", s) for s in shape)
            + b"".join(struct.pack("<f", v) for v in values))


@pytest.mark.parametrize("arr", [
    np.arange(5, dtype=np.float64) / 3,                     # rounded to f4
    np.arange(6, dtype=">f4").reshape(2, 3),                # big-endian
    np.arange(24, dtype=np.float32).reshape(2, 3, 4)[:, ::-1, ::2],
    np.arange(120, dtype=np.float32).reshape(2, 3, 4, 5).transpose(3, 1, 0, 2),
    np.zeros((0,), np.float32),
    np.zeros((3, 0, 2), np.float64),
], ids=["f8-rank1", "big-endian-rank2", "strided-rank3", "transposed-rank4",
        "empty-rank1", "empty-rank3"])
def test_written_bytes_match_the_layout(tmp_path, arr):
    path = tmp_path / "t.msdt"
    save_tensor(path, arr)
    expected = _layout(arr.shape, [float(np.float32(v)) for v in arr.ravel()])
    assert path.read_bytes() == expected
    back = load_tensor(path).data
    assert back.dtype == np.float32 and back.shape == arr.shape
    assert np.array_equal(back, arr.astype(np.float32))


def _traced_peak(fn):
    """Peak bytes of the allocations one call of fn makes, its result
    included, after a warm-up call has filled first-call caches."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tensor_files_are_written_and_read_without_copies(tmp_path):
    """save_tensor writes a float32 array's own buffer, and load_tensor
    reads the payload straight into the array it returns. Basis: through
    whole-file bytes each added 8 MiB to a 4 MiB tensor (the bytes, then
    a copy of them)."""
    arr = np.random.default_rng(0).random((4, 512, 512), dtype=np.float32)
    path = tmp_path / "big.msdt"
    saved = _traced_peak(lambda: save_tensor(path, arr))
    assert saved <= 2 ** 19, f"save_tensor: {saved / 2 ** 20:.2f} MiB"
    loaded = _traced_peak(lambda: load_tensor(path))
    assert loaded <= 4.5 * 2 ** 20, f"load_tensor: {loaded / 2 ** 20:.2f} MiB"
    assert np.array_equal(load_tensor(path).data, arr)


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
    grey = np.full((1, 4, 5), 0.7, np.float32)
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
        loaded = getattr(sample, attr)
        assert type(loaded) is np.ndarray and loaded.dtype == np.float32
        assert np.array_equal(loaded, getattr(fresh, attr))

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
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"version": 1, "seed": 0, "ids": ["a", "b", "a"],
         "split": {"a": "train", "b": "train"}, "params": {}}))
    with pytest.raises(FormatError, match="id 'a' is listed twice"):
        load_manifest(tmp_path)
    with pytest.raises(ValueError):
        generate_dataset(tmp_path / "d", count=0, size=8, seed=0)


def _with_id(manifest, sid):
    """Rename the first id to sid, keeping its split."""
    old = manifest["ids"][0]
    manifest["ids"][0] = sid
    manifest["split"][sid] = manifest["split"].pop(old)


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
    lambda m: m.update(version=99),
    lambda m: m.update(version="1"),
    lambda m: m.update(version=True),
    lambda m: _with_id(m, ""),
    lambda m: _with_id(m, "."),
    lambda m: _with_id(m, ".."),
    lambda m: _with_id(m, "../data/scene_0000"),
    lambda m: _with_id(m, "a/b"),
    lambda m: _with_id(m, "a\\b"),
    lambda m: _with_id(m, "/tmp/scene_0000"),
    lambda m: m["ids"].append(m["ids"][0]),
], ids=["split-lacks-id", "split-not-train-or-test", "split-not-dict",
        "ids-not-list", "ids-not-strings", "seed-string", "seed-float",
        "seed-bool", "params-not-dict", "version-99", "version-string",
        "version-bool", "id-empty", "id-dot", "id-dotdot", "id-parent-path",
        "id-slash", "id-backslash", "id-absolute", "id-duplicate"])
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
