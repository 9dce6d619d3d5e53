"""The memory-based detail network: expansion, addressing, composition."""

import numpy as np
import pytest

from msdnpan.errors import ShapeError
from msdnpan.injection_net import ModelConfig
from msdnpan.msdn import (
    MsdnWeights, channel_attention,
    compose_spatial_details, decode_memory, encode_query, expand_memory,
    msdn_forward, spatial_attention, weighted_coefficients,
)
from msdnpan.tensor_core import Tensor, backward, parameter, parameters


def _weights(seed=0, channels=8, slots=4, scale=4):
    cfg = ModelConfig(memory_slots=slots, scale=scale, channels=channels,
                      spatial_kernel=7, reduction=4)
    return MsdnWeights(cfg, np.random.default_rng(seed), dtype=np.float64)


def _features(seed, n=2, channels=8, h=8, w=8):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((n, channels, h, w)))


def _memory(slots, scale, seed):
    rng = np.random.default_rng(seed)
    return parameter("m", rng.standard_normal((slots, scale * scale)))


def test_expand_memory_tiles_periodically():
    memory = _memory(3, 4, seed=1)
    out = expand_memory(memory, 4, 12, 8).data
    assert out.shape == (3, 12, 8)
    tiles = memory.data.reshape(3, 4, 4)
    for i in range(12):
        for j in range(8):
            np.testing.assert_array_equal(out[:, i, j], tiles[:, i % 4, j % 4])


def test_expand_memory_checks_divisibility():
    memory = _memory(2, 4, seed=2)
    with pytest.raises(ShapeError):
        expand_memory(memory, 4, 10, 8)
    with pytest.raises(ShapeError):         # tiles of another scale
        expand_memory(memory, 2, 8, 8)


def test_query_shape_and_input_check():
    w = _weights()
    q = encode_query(_features(3), w)
    assert q.shape == (2, 4, 8, 8)      # one plane per memory slot
    with pytest.raises(ShapeError):
        encode_query(_features(3, channels=5), w)


def test_spatial_attention_is_a_unit_gate():
    w = _weights()
    gate = spatial_attention(_features(4), w).data
    assert gate.shape == (2, 1, 8, 8)
    assert (gate > 0).all() and (gate < 1).all()


def test_channel_attention_is_per_channel_gate():
    w = _weights()
    gate = channel_attention(_features(5), w).data
    assert gate.shape == (2, 8, 1, 1)
    assert (gate > 0).all() and (gate < 1).all()


def test_decode_memory_shape_checks():
    w = _weights()
    expanded = expand_memory(w.memory, 4, 8, 8)
    good = encode_query(_features(6), w)
    assert decode_memory(expanded, good, w).shape == (2, 8, 8, 8)
    bad_channels = Tensor(np.zeros((2, 3, 8, 8)))
    with pytest.raises(ShapeError):
        decode_memory(expanded, bad_channels, w)
    bad_plane = Tensor(np.zeros((2, 4, 4, 8)))
    with pytest.raises(ShapeError):
        decode_memory(expanded, bad_plane, w)


def test_compose_is_channel_sum_of_products():
    rng = np.random.default_rng(7)
    d = rng.standard_normal((2, 8, 4, 4))
    c = rng.standard_normal((2, 8, 4, 4))
    out = compose_spatial_details(Tensor(d), Tensor(c)).data
    np.testing.assert_allclose(out, (d * c).sum(axis=1, keepdims=True),
                               rtol=1e-12)
    with pytest.raises(ShapeError):
        compose_spatial_details(Tensor(d), Tensor(c[:, :4]))


def test_forward_shapes():
    w = _weights()
    details, coeff = msdn_forward(_features(8), w)
    assert details.shape == (2, 1, 8, 8)
    assert coeff.shape == (2, 8, 8, 8)


def test_memory_bank_receives_gradient():
    w = _weights()
    details, _ = msdn_forward(_features(9), w)
    backward((details * details).sum())
    assert w.memory.grad is not None
    assert float(np.abs(w.memory.grad).max()) > 0.0


def test_weighted_coefficients_channel_check():
    w = _weights()
    with pytest.raises(ShapeError):
        weighted_coefficients(Tensor(np.zeros((1, 3, 8, 8))), w)


def test_parameter_names_are_prefixed_and_unique():
    w = _weights()
    names = [p.name for p in parameters(w)]
    assert len(names) == len(set(names))
    assert all(n.startswith("msdn.") for n in names)
    assert names[0] == "msdn.bank.items"
    assert parameters(w)[0] is w.memory
