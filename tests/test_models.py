import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steepdesc.errors import ConfigError, DataFormatError, ShapeMismatchError
from steepdesc.models import (COORDINATE_UNIFORM, InitSpec, ModelSpec,
                              forward, forward_batch, init_params,
                              load_checkpoint, network_subgradient,
                              save_checkpoint, weighted_subgradient_sum)
from steepdesc.params import ParamVector


def euler_identity_check(model, theta, x):
    """Residual |<theta, df> - L*f(x; theta)| of the homogeneity identity."""
    h = network_subgradient(model, theta, x)
    return abs(theta.dot(h) - model.homogeneity_degree * forward(model, theta, x))


def relu_single():
    model = ModelSpec.two_layer_relu(2, 1)
    theta = ParamVector.of(np.array([[1.0, 0.0]]), np.array([1.0]))
    return model, theta


def random_model_point(rng, width=8, d=4, freeze=False):
    model = ModelSpec.two_layer_relu(d, width, freeze_second_layer=freeze)
    theta = ParamVector.of(rng.standard_normal((width, d)),
                           rng.standard_normal(width),
                           trainable=(True, not freeze))
    x = rng.standard_normal(d)
    return model, theta, x


class TestModelSpec:
    @pytest.mark.parametrize("build", [
        lambda: ModelSpec.two_layer_relu(2.5, 4),
        lambda: ModelSpec.two_layer_relu(True, 4),
        lambda: ModelSpec.two_layer_relu(3, 4.0),
        lambda: ModelSpec.two_layer_relu(3, False),
        lambda: ModelSpec.linear(2.0),
        lambda: ModelSpec.linear("3"),
    ], ids=["fractional input_dim", "boolean input_dim", "float width",
            "boolean width", "float linear input_dim", "string input_dim"])
    def test_a_non_integer_size_is_a_config_error(self, build):
        with pytest.raises(ConfigError, match="must be an integer"):
            build()

    def test_numpy_integer_sizes_are_sizes(self):
        model = ModelSpec.two_layer_relu(np.int64(3), np.int32(4))
        assert init_params(model, InitSpec(0.1)).shapes() == ((4, 3), (4,))


class TestForward:
    def test_active_neuron(self):
        model, theta = relu_single()
        assert forward(model, theta, np.array([2.0, 3.0])) == pytest.approx(2.0)

    def test_degree_two_scaling(self):
        model, theta = relu_single()
        scaled = theta.scaled_trainable(2.0)
        assert forward(model, scaled, np.array([2.0, 3.0])) == pytest.approx(8.0)

    def test_linear_inner_product(self):
        model = ModelSpec.linear(2)
        theta = ParamVector.of(np.array([1.0, -1.0]))
        assert forward(model, theta, np.array([3.0, 1.0])) == pytest.approx(2.0)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        model, theta, _ = random_model_point(rng)
        X = rng.standard_normal((7, 4))
        batch = forward_batch(model, theta, X)
        singles = [forward(model, theta, x) for x in X]
        np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-14)

    def test_shape_mismatch(self):
        model, theta = relu_single()
        with pytest.raises(ShapeMismatchError):
            forward(model, theta, np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("rows", [1, 7, 32, 33, 40], ids=lambda r: f"{r} rows")
    def test_any_buffer_gives_the_chunk_loop_bytes(self, rows):
        """Fewer buffer rows than X (chunks), as many (one product) or more:
        the bytes of the chunk loop, and the buffer left holding the last
        chunk's hidden layer."""
        rng = np.random.default_rng(3)
        model, theta, _ = random_model_point(rng, width=64, d=16)
        X = rng.standard_normal((33, 16))
        hidden, ref_hidden = np.full((2, rows, 64), np.nan)
        f = forward_batch(model, theta, X, hidden)
        assert f.tobytes() == ref_forward_batch(theta, X, ref_hidden).tobytes()
        assert hidden.tobytes() == ref_hidden.tobytes()
        if rows >= len(X):
            assert f.tobytes() == forward_batch(model, theta, X).tobytes()


    @pytest.mark.parametrize("buffer", [
        np.empty((4, 8), dtype=np.float32), np.empty((0, 8)), np.empty((4, 7)),
        np.empty(8)], ids=["float32", "no rows", "wrong width", "one axis"])
    def test_a_malformed_buffer_is_a_shape_mismatch(self, buffer):
        """Not rounded to float32, nor a range() or matmul error."""
        rng = np.random.default_rng(4)
        model, theta, _ = random_model_point(rng)
        with pytest.raises(ShapeMismatchError, match="hidden buffer"):
            forward_batch(model, theta, rng.standard_normal((5, 4)), buffer)


def ref_forward_batch(theta, X, hidden):
    """The two-layer forward pass as a loop over chunks of the buffer's
    rows, also when one chunk covers X."""
    w, u = theta.blocks
    f = np.empty(len(X))
    for start in range(0, len(X), len(hidden)):
        rows = X[start:start + len(hidden)]
        h = hidden[:len(rows)]
        np.maximum(np.matmul(rows, w.T, out=h), 0.0, out=h)
        np.matmul(h, u, out=f[start:start + len(rows)])
    return f


class TestSubgradient:
    def test_active_neuron(self):
        model, theta = relu_single()
        g = network_subgradient(model, theta, np.array([2.0, 3.0]))
        np.testing.assert_allclose(g.blocks[0], [[2.0, 3.0]])
        np.testing.assert_allclose(g.blocks[1], [2.0])

    def test_inactive_neuron(self):
        model = ModelSpec.two_layer_relu(2, 1)
        theta = ParamVector.of(np.array([[-1.0, 0.0]]), np.array([1.0]))
        g = network_subgradient(model, theta, np.array([2.0, 3.0]))
        assert not g.blocks[0].any()
        assert not g.blocks[1].any()

    def test_finite_differences_at_smooth_point(self):
        # central differences, h = 1e-6, only at points with all
        # |<w_j, x>| comfortably away from the kink
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 5:
            model, theta, x = random_model_point(rng)
            if np.min(np.abs(theta.blocks[0] @ x)) <= 1e-3:
                continue
            checked += 1
            g = network_subgradient(model, theta, x)
            h = 1e-6
            flat = theta.flat()
            num = np.empty_like(flat)
            for i in range(flat.size):
                up, dn = flat.copy(), flat.copy()
                up[i] += h
                dn[i] -= h
                from steepdesc.params import from_flat
                num[i] = (forward(model, from_flat(up, theta.shapes()), x)
                          - forward(model, from_flat(dn, theta.shapes()), x)) / (2 * h)
            np.testing.assert_allclose(g.flat(), num, rtol=1e-5, atol=1e-8)

    def test_frozen_second_layer_grad_is_zero(self):
        rng = np.random.default_rng(5)
        model, theta, x = random_model_point(rng, freeze=True)
        g = network_subgradient(model, theta, x)
        assert not g.blocks[1].any()
        assert g.blocks[0].any()

    def test_weighted_sum_matches_loop(self):
        rng = np.random.default_rng(9)
        model, theta, _ = random_model_point(rng)
        X = rng.standard_normal((6, 4))
        coeffs = rng.standard_normal(6)
        total = weighted_subgradient_sum(model, theta, X, coeffs)
        expected = theta.like(np.zeros(theta.size))
        for c, x in zip(coeffs, X):
            expected = expected + network_subgradient(model, theta, x).scaled(c)
        assert total.allclose(expected, rtol=1e-10, atol=1e-12)

    def test_degree_minus_one_homogeneity(self):
        # subgradients of an L-homogeneous map scale with c^(L-1)
        rng = np.random.default_rng(31)
        for freeze in (False, True):
            model, theta, x = random_model_point(rng, freeze=freeze)
            L = model.homogeneity_degree
            for c in (0.5, 2.0, 10.0):
                g1 = network_subgradient(model, theta, x)
                g2 = network_subgradient(model, theta.scaled_trainable(c), x)
                assert g2.allclose(g1.scaled(c ** (L - 1)), rtol=1e-9, atol=1e-12)


class TestHomogeneityAndEuler:
    def test_homogeneity_identity(self):
        rng = np.random.default_rng(2)
        for freeze in (False, True):
            model, theta, x = random_model_point(rng, freeze=freeze)
            L = model.homogeneity_degree
            f = forward(model, theta, x)
            for c in (0.5, 2.0, 10.0):
                fc = forward(model, theta.scaled_trainable(c), x)
                assert fc == pytest.approx(c**L * f, rel=1e-9, abs=1e-12)

    def test_euler_residual_active_neuron(self):
        model, theta = relu_single()
        assert euler_identity_check(model, theta, np.array([2.0, 3.0])) == 0.0

    def test_euler_residual_random(self):
        rng = np.random.default_rng(21)
        model, theta, x = random_model_point(rng)
        f = forward(model, theta, x)
        assert euler_identity_check(model, theta, x) <= 1e-10 * (1.0 + abs(f))

    def test_euler_residual_zero_params(self):
        model = ModelSpec.two_layer_relu(3, 2)
        theta = ParamVector.of(np.zeros((2, 3)), np.zeros(2))
        assert euler_identity_check(model, theta, np.array([1.0, 2.0, 3.0])) == 0.0


class TestInit:
    def test_fan_in_uniform_ranges(self):
        model = ModelSpec.two_layer_relu(32, 1024)
        theta = init_params(model, InitSpec(scale=0.01, seed=4))
        assert np.all(np.abs(theta.blocks[0]) <= 0.01 / 32)
        assert np.all(np.abs(theta.blocks[1]) <= 0.01 / 1024)

    def test_coordinate_uniform_ranges(self):
        model = ModelSpec.two_layer_relu(32, 1024)
        theta = init_params(model, InitSpec(scale=0.01, scheme=COORDINATE_UNIFORM,
                                            seed=4))
        assert np.all(np.abs(theta.blocks[0]) <= 0.01 / 1024)

    def test_determinism(self):
        model = ModelSpec.two_layer_relu(8, 16)
        a = init_params(model, InitSpec(scale=0.1, seed=99))
        b = init_params(model, InitSpec(scale=0.1, seed=99))
        assert all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))
        c = init_params(model, InitSpec(scale=0.1, seed=100))
        assert any(not np.array_equal(x, y) for x, y in zip(a.blocks, c.blocks))

    def test_frozen_flag(self):
        model = ModelSpec.two_layer_relu(4, 8, freeze_second_layer=True)
        theta = init_params(model, InitSpec(scale=0.1, seed=1))
        assert theta.trainable == (True, False)
        assert model.homogeneity_degree == 1


def _small_checkpoint(path) -> bytes:
    """A saved 2x3 model; some coordinates lie in [1, 2), where one flipped
    exponent bit makes an inf or a NaN."""
    model = ModelSpec.two_layer_relu(2, 3)
    save_checkpoint(path, model, init_params(model, InitSpec(3.0, seed=4)))
    return path.read_bytes()


def with_header(blob: bytes, **changes) -> bytes:
    """A checkpoint's bytes with header keys replaced and its length fixed."""
    n, = struct.unpack("<I", blob[8:12])
    header = json.dumps(dict(json.loads(blob[12:12 + n]), **changes)).encode()
    return blob[:8] + struct.pack("<I", len(header)) + header + blob[12 + n:]


MODELS = st.one_of(
    st.builds(ModelSpec.linear, st.integers(1, 5)),
    st.builds(ModelSpec.two_layer_relu, st.integers(1, 5), st.integers(1, 5),
              st.booleans()))


def _check_header_corruption(path, raw, model, theta):
    """A checkpoint ``raw`` with a corrupted header is a ``DataFormatError``
    or loads ``model`` and ``theta`` exactly."""
    path.write_bytes(raw)
    try:
        model2, theta2 = load_checkpoint(path)
    except DataFormatError:
        return
    assert model2 == model and theta2.layout is theta.layout
    assert theta2.flat().tobytes() == theta.flat().tobytes()


def _check_corrupted_load(path, blob, pos, flip):
    """``blob`` with byte ``pos`` XORed by ``flip`` either loads finite
    coordinates in the saved shapes or is a ``DataFormatError``."""
    path.write_bytes(blob[:pos] + bytes([blob[pos] ^ flip]) + blob[pos + 1:])
    try:
        _, theta = load_checkpoint(path)
    except DataFormatError:
        return
    assert theta.shapes() == ((3, 2), (3,))
    assert theta.allfinite()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        model, theta, _ = random_model_point(rng, freeze=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, theta)
        model2, theta2 = load_checkpoint(path)
        assert model2 == model
        assert theta2.trainable == theta.trainable
        assert all(np.array_equal(a, b)
                   for a, b in zip(theta.blocks, theta2.blocks))

    def test_every_truncation_is_a_data_format_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        blob = _small_checkpoint(path)
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(DataFormatError):
                load_checkpoint(path)

    def test_every_bit_flip_loads_finite_or_is_a_data_format_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        blob = _small_checkpoint(path)
        for pos in range(len(blob)):
            for bit in range(8):
                _check_corrupted_load(path, blob, pos, 1 << bit)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_flipped_byte_loads_finite_or_is_a_data_format_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            blob = _small_checkpoint(path)
            _check_corrupted_load(path, blob,
                                  data.draw(st.integers(0, len(blob) - 1)),
                                  data.draw(st.integers(1, 255)))

    @settings(max_examples=100, deadline=None)
    @given(MODELS, st.integers(0, 2**64 - 1), st.floats(1e-3, 1e3))
    def test_round_trip_keeps_the_model_layout_and_bits(self, model, seed, scale):
        theta = init_params(model, InitSpec(scale, seed=seed))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            save_checkpoint(path, model, theta)
            model2, theta2 = load_checkpoint(path)
        assert model2 == model
        assert theta2.layout is theta.layout is model.layout
        assert theta2.flat().tobytes() == theta.flat().tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_corrupted_header_loads_the_same_point_or_is_a_data_format_error(
            self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            blob = _small_checkpoint(path)
            model, theta = load_checkpoint(path)
            n, = struct.unpack("<I", blob[8:12])
            raw = bytearray(blob)
            for pos in data.draw(st.lists(st.integers(0, 12 + n - 1),
                                          min_size=1, max_size=3)):
                raw[pos] = data.draw(st.integers(0, 255))
            _check_header_corruption(path, bytes(raw), model, theta)

    def test_every_header_bit_flip_loads_the_same_point_or_is_a_data_format_error(
            self, tmp_path):
        path = tmp_path / "model.ckpt"
        blob = _small_checkpoint(path)
        model, theta = load_checkpoint(path)
        n, = struct.unpack("<I", blob[8:12])
        for pos in range(12 + n):
            for bit in range(8):
                _check_header_corruption(
                    path, blob[:pos] + bytes([blob[pos] ^ 1 << bit]) + blob[pos + 1:],
                    model, theta)

    @pytest.mark.parametrize("changes", [
        {"trainable": [True, False]}, {"trainable": [1, 0]},
        {"trainable": "ab"}, {"trainable": [1, 1]},
        {"homogeneity_degree": 1}, {"block_shapes": [[3, 4], [4]]}],
        ids=["a frozen u", "integer flags", "a string", "integer ones",
             "degree 1", "transposed W"])
    def test_a_header_contradicting_its_model_is_a_data_format_error(
            self, tmp_path, changes):
        model = ModelSpec.two_layer_relu(3, 4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, init_params(model, InitSpec(0.1, seed=5)))
        path.write_bytes(with_header(path.read_bytes(), **changes))
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataFormatError):
            load_checkpoint(path)
