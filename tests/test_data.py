import cmath
import hashlib
import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steepdesc import rng as rng_mod
from steepdesc.data import (SAMPLE_CHUNK, Dataset, TeacherSpec, export_csv,
                            gen_teacher, load_dataset, load_idx,
                            load_points_csv, sample_dataset, save_dataset)
from steepdesc.errors import ConfigError, DataFormatError
from steepdesc.models import ModelSpec, forward_batch
from steepdesc.params import ParamVector
from steepdesc.rng import (LANE_MIN, LANE_STEPS, PAIR_BLOCK, Xoshiro256pp,
                           splitmix64_stream)

SEEDS = st.integers(0, 2**64 - 1)
# block sizes on both sides of the lane threshold and of a lane's length
BLOCK_SIZES = st.one_of(
    st.integers(0, 2 * LANE_STEPS + 1),
    st.integers(LANE_MIN - 2, LANE_MIN + 2),
    st.integers(1, 40).map(lambda k: LANE_MIN + k * LANE_STEPS - 1),
    st.integers(LANE_MIN, 3 * LANE_MIN))


def reference_gaussians(rng: Xoshiro256pp, n: int) -> list[float]:
    """One Box-Muller pair per two uniform() calls, odd n drops a sine."""
    out = []
    while len(out) < n:
        u1 = 1.0 - rng.uniform()
        u2 = rng.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        out += [r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]
    return out[:n]


def reference_sample(teacher, m: int, seed: int):
    """sample_dataset one row at a time: draw, score on its own, redraw zeros."""
    width, d = teacher.blocks[0].shape
    model = ModelSpec.two_layer_relu(d, width)
    rng = Xoshiro256pp(seed)
    X, y = np.empty((m, d)), np.empty(m)
    for i in range(m):
        while True:
            row = np.array(reference_gaussians(rng, d))
            f = forward_batch(model, teacher, row[None, :])[0]
            if f != 0.0:
                break
        X[i] = row
        y[i] = 1.0 if f > 0.0 else -1.0
    return X, y


class TestRng:
    def test_determinism(self):
        a = Xoshiro256pp(123)
        b = Xoshiro256pp(123)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_seed_sensitivity(self):
        assert Xoshiro256pp(1).next_u64() != Xoshiro256pp(2).next_u64()

    def test_uniform_range(self):
        rng = Xoshiro256pp(7)
        us = rng.uniforms(10_000)
        assert np.all((0.0 <= us) & (us < 1.0))
        assert abs(us.mean() - 0.5) < 0.02

    def test_gaussian_moments(self):
        rng = Xoshiro256pp(11)
        zs = rng.gaussians(20_000)
        assert abs(zs.mean()) < 0.03
        assert abs(zs.std() - 1.0) < 0.03

    def test_gaussian_pair_consumption(self):
        # gaussians(n) consumes ceil(n/2) pairs; odd n drops the last sine
        a = Xoshiro256pp(5)
        b = Xoshiro256pp(5)
        odd = a.gaussians(3)
        even = b.gaussians(4)
        np.testing.assert_array_equal(odd, even[:3])

    def test_choice_without_replacement(self):
        rng = Xoshiro256pp(3)
        for _ in range(100):
            picked = rng.choice_without_replacement(10, 4)
            assert len(set(picked)) == 4
            assert all(0 <= p < 10 for p in picked)

    def test_splitmix_stream_is_prefix_stable(self):
        assert splitmix64_stream(42, 3) == splitmix64_stream(42, 5)[:3]

    def test_splitmix_stream_outputs_distinct(self):
        seeds = splitmix64_stream(0, 4)
        assert len(set(seeds)) == 4

    def test_block_draws_known_answers(self):
        """Pinned outputs and states of fixed seeds on both sides of
        LANE_MIN: a faster block draw must reproduce them bit for bit."""
        for seed, first in ((0, 5987356902031041503), (1, 14971601782005023387),
                            (2024, 9674054429496410833)):
            assert Xoshiro256pp(seed).next_u64s(1).tolist() == [first]
        short = Xoshiro256pp(7)
        drawn = short.next_u64s(100)
        assert drawn[[0, 1, -1]].tolist() == [
            1021219803524665661, 3174977118032272916, 15919690622596915240]
        assert hashlib.sha256(drawn.astype("<u8").tobytes()).hexdigest() == (
            "4f64e99212534f2f1ef817bb246db4cba9636f69ae064a5bc0c4d7315e99ec98")
        assert short._s == [18218103773559020085, 9148771424312265909,
                            10084941338447595992, 8538963646368820092]
        long = Xoshiro256pp(7)
        drawn = long.next_u64s(17_925)       # lanes with a partial last lane
        assert drawn[[0, 512, -1]].tolist() == [
            1021219803524665661, 4956270748466946925, 11995908155343939768]
        assert hashlib.sha256(drawn.astype("<u8").tobytes()).hexdigest() == (
            "fa9261e02ad6e4a553efa686f34bbb1fc3fd42b2172eb4279f50241715f36953")
        assert long._s == [14520397666736771611, 1144545982060353363,
                           17463395394946385031, 6464208454437234384]
        assert long.next_u64() == 15313603206870937153

    @pytest.mark.parametrize("n", [*range(41), LANE_MIN - 1, LANE_MIN, LANE_MIN + 1,
                                   LANE_MIN + LANE_STEPS - 1])
    def test_block_draw_equals_scalar_calls_at_the_edges(self, n):
        block, scalar = Xoshiro256pp(n), Xoshiro256pp(n)
        drawn = block.next_u64s(n)
        assert drawn.dtype == np.uint64 and drawn.shape == (n,)
        assert drawn.tolist() == [scalar.next_u64() for _ in range(n)]
        assert block._s == scalar._s
        # a second draw, in lanes, starts where the first ended
        again = block.next_u64s(LANE_MIN + 1)
        assert again.tolist() == [scalar.next_u64() for _ in range(len(again))]
        assert block.next_u64() == scalar.next_u64()

    @pytest.mark.parametrize("lanes", [1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 255, 256, 257])
    @pytest.mark.parametrize("missing", [0, 1, LANE_STEPS - 1])
    def test_lane_draws_of_every_doubling_shape(self, monkeypatch, lanes, missing):
        """1, 2, 3, 2^j and 2^j +/- 1 lanes, the last one full or partial
        (``missing`` outputs short), each followed by a second lane draw."""
        monkeypatch.setattr(rng_mod, "LANE_MIN", 1)
        n = lanes * LANE_STEPS - missing
        block, scalar = Xoshiro256pp(lanes), Xoshiro256pp(lanes)
        for size in (n, n + 1):
            assert block.next_u64s(size).tolist() == [scalar.next_u64()
                                                      for _ in range(size)]
            assert block._s == scalar._s

    def test_generators_share_read_only_jump_tables(self):
        a, b = Xoshiro256pp(1), Xoshiro256pp(2)
        a.next_u64s(LANE_MIN)
        levels = (-(-LANE_MIN // LANE_STEPS) - 1).bit_length()
        tables = [rng_mod._jump_level(i) for i in range(levels)]
        before = [table.copy() for table in tables]
        built = rng_mod._jump_level.cache_info().misses
        b.next_u64s(LANE_MIN + LANE_STEPS)
        assert rng_mod._jump_level.cache_info().misses == built
        for i, (table, copy) in enumerate(zip(tables, before)):
            assert rng_mod._jump_level(i) is table
            assert table.shape == (4, 64, 16) and not table.flags.writeable
            np.testing.assert_array_equal(table, copy)
        assert not hasattr(a, "_jump") and not hasattr(b, "_jump")

    def test_jump_tables_of_a_chunk_draw_stay_small(self):
        """A 65,536-output draw runs 512 lanes, so it builds levels 0-8 of
        32 KiB each; the bound allows ten."""
        rng_mod._jump_level.cache_clear()
        tracemalloc.start()
        try:
            Xoshiro256pp(1).next_u64s(65_536)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rng_mod._jump_level.cache_info().currsize == 9
        assert held <= 10 * 32 * 1024

    def test_desk_sized_draws_build_no_jump_table(self):
        """The 64-row desk training set (1,024 outputs) and its 1,088 initial
        parameters are drawn below LANE_MIN."""
        rng_mod._jump_level.cache_clear()
        Xoshiro256pp(1).next_u64s(1024)
        Xoshiro256pp(2).next_u64s(1088)
        assert rng_mod._jump_level.cache_info().currsize == 0

    def test_one_complex_exp_gives_the_math_cosine_and_sine(self):
        """Box-Muller's cos and sin of an angle, as the complex exponential
        of ``angle * 1j`` gives them, bit for bit, from angle 0 up."""
        tiny = 2.0 * math.pi * 2.0**-53
        angles = np.concatenate([[0.0, tiny, 2.0 * math.pi - tiny, math.pi],
                                 (2.0 * math.pi) * Xoshiro256pp(3).uniforms(200_000)])
        turns = np.array([cmath.exp(z) for z in (angles * 1j).tolist()])
        assert turns.real.tobytes() == np.array(
            [math.cos(a) for a in angles.tolist()]).tobytes()
        assert turns.imag.tobytes() == np.array(
            [math.sin(a) for a in angles.tolist()]).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, sizes=st.lists(BLOCK_SIZES, min_size=1, max_size=2))
    def test_block_draw_equals_scalar_calls(self, seed, sizes):
        # a second draw reuses the generator's lane jump matrix
        block, scalar = Xoshiro256pp(seed), Xoshiro256pp(seed)
        for n in sizes:
            drawn = block.next_u64s(n)
            assert drawn.dtype == np.uint64 and drawn.shape == (n,)
            assert drawn.tolist() == [scalar.next_u64() for _ in range(n)]
            assert block._s == scalar._s
        assert block.next_u64() == scalar.next_u64()

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, n=st.one_of(st.integers(0, 41),
                                   st.integers(LANE_MIN // 2 - 2, LANE_MIN // 2 + 2)))
    def test_gaussians_equal_the_pairwise_reference(self, seed, n):
        block, scalar = Xoshiro256pp(seed), Xoshiro256pp(seed)
        assert block.gaussians(n).tolist() == reference_gaussians(scalar, n)
        assert block._s == scalar._s

    @pytest.mark.parametrize("n", [2 * PAIR_BLOCK - 1, 2 * PAIR_BLOCK,
                                   2 * PAIR_BLOCK + 1, 2 * PAIR_BLOCK + 2,
                                   10 * PAIR_BLOCK + 3])
    def test_gaussians_across_pair_blocks_equal_the_reference(self, n):
        block, scalar = Xoshiro256pp(n), Xoshiro256pp(n)
        assert block.gaussians(n).tobytes() == np.array(
            reference_gaussians(scalar, n)).tobytes()
        assert block._s == scalar._s


class TestTeacher:
    def test_row_sparsity(self):
        spec = TeacherSpec(input_dim=32, width=64, active_per_neuron=3, seed=1)
        teacher = gen_teacher(spec)
        counts = (teacher.blocks[0] != 0.0).sum(axis=1)
        assert np.all(counts == 3)

    def test_determinism(self):
        spec = TeacherSpec(input_dim=8, width=4, active_per_neuron=2, seed=9)
        a, b = gen_teacher(spec), gen_teacher(spec)
        assert all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))

    def test_dense_rows_when_active_equals_d(self):
        spec = TeacherSpec(input_dim=5, width=3, active_per_neuron=5, seed=2)
        teacher = gen_teacher(spec)
        assert np.all((teacher.blocks[0] != 0.0).sum(axis=1) == 5)

    def test_weight_scale_bound(self):
        spec = TeacherSpec(input_dim=6, width=4, active_per_neuron=2,
                           weight_scale=0.5, seed=3)
        teacher = gen_teacher(spec)
        assert np.all(np.abs(teacher.blocks[0]) <= 0.5)
        assert np.all(np.abs(teacher.blocks[1]) <= 0.5)


class TestSampleDataset:
    def test_row_count(self):
        spec = TeacherSpec(input_dim=8, width=4, active_per_neuron=3, seed=1)
        ds = sample_dataset(gen_teacher(spec), 250, seed=2)
        assert ds.m == 250 and ds.d == 8

    def test_labels_are_signs(self):
        spec = TeacherSpec(input_dim=8, width=4, active_per_neuron=3, seed=1)
        teacher = gen_teacher(spec)
        ds = sample_dataset(teacher, 100, seed=5)
        assert set(np.unique(ds.y)) <= {-1.0, 1.0}
        model = ModelSpec.two_layer_relu(spec.input_dim, spec.width)
        f = forward_batch(model, teacher, ds.X)
        np.testing.assert_array_equal(np.sign(f), ds.y)

    def test_determinism(self):
        spec = TeacherSpec(input_dim=6, width=3, active_per_neuron=2, seed=4)
        teacher = gen_teacher(spec)
        a = sample_dataset(teacher, 40, seed=8)
        b = sample_dataset(teacher, 40, seed=8)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    @settings(max_examples=12, deadline=None)
    @given(d=st.integers(1, 7), width=st.integers(1, 4), data=st.data(),
           seed=SEEDS, m=st.sampled_from([1, 5, SAMPLE_CHUNK - 1, SAMPLE_CHUNK + 3]))
    def test_equals_the_one_row_reference(self, d, width, data, seed, m):
        active = data.draw(st.integers(1, d))
        teacher = gen_teacher(TeacherSpec(d, width, active, seed=seed % 1000))
        ds = sample_dataset(teacher, m, seed)
        X, y = reference_sample(teacher, m, seed)
        assert ds.X.tobytes() == X.tobytes() and ds.y.tobytes() == y.tobytes()

    def test_near_cancelling_teacher_keeps_one_row_signs(self):
        # pairs of almost equal neurons with opposite output weights: f is
        # a few ulps of its terms, where a batched product and a one-row
        # product disagree in sign on a few percent of rows
        d, k = 16, 8
        rng = Xoshiro256pp(1)
        base = rng.gaussians(d)
        w = np.array([base * (1 + (j % 2) * 2**-50) + 1e-16 * rng.gaussians(d)
                      for j in range(k)])
        teacher = ParamVector((w, np.array([1.0, -1.0] * (k // 2))))
        ds = sample_dataset(teacher, 600, seed=4)
        X, y = reference_sample(teacher, 600, seed=4)
        assert ds.X.tobytes() == X.tobytes() and ds.y.tobytes() == y.tobytes()

    def test_class_balance_default_teacher(self):
        # Monte-Carlo check used when building fixtures: the default sparse
        # teacher should not produce a degenerate label distribution
        spec = TeacherSpec(input_dim=16, width=4, active_per_neuron=3, seed=1)
        ds = sample_dataset(gen_teacher(spec), 20_000, seed=2)
        positive = float((ds.y > 0).mean())
        assert 0.2 <= positive <= 0.8


# label files holding at least two distinct digits
IDX_LABELS = st.lists(st.integers(0, 9), min_size=2, max_size=12).filter(
    lambda labels: len(set(labels)) > 1)


def build_idx_fixture(tmp_path, labels=(3, 6, 3, 6), magic_img=2051,
                      magic_lab=2049, rows=4, cols=3):
    n = len(labels)
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", magic_img, n, rows, cols))
        f.write(pixels.tobytes())
    with open(lab_path, "wb") as f:
        f.write(struct.pack(">II", magic_lab, n))
        f.write(bytes(labels))
    return img_path, lab_path, pixels


class TestLoadIdx:
    def test_fixture_parses(self, tmp_path):
        img, lab, pixels = build_idx_fixture(tmp_path)
        ds = load_idx(img, lab, 3, 6, 4)
        assert ds.m == 4 and ds.d == 12
        np.testing.assert_array_equal(ds.y, [1.0, -1.0, 1.0, -1.0])
        np.testing.assert_allclose(ds.X[0], pixels[0].ravel() / 255.0)
        assert ds.X.min() >= 0.0 and ds.X.max() <= 1.0

    def test_filters_and_truncates(self, tmp_path):
        img, lab, _ = build_idx_fixture(tmp_path, labels=(1, 3, 6, 3, 9, 6))
        ds = load_idx(img, lab, 3, 6, 3)
        np.testing.assert_array_equal(ds.y, [1.0, -1.0, 1.0])

    def test_bad_image_magic(self, tmp_path):
        img, lab, _ = build_idx_fixture(tmp_path, magic_img=1234)
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(img, lab, 3, 6, 4)

    def test_bad_label_magic(self, tmp_path):
        img, lab, _ = build_idx_fixture(tmp_path, magic_lab=99)
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(img, lab, 3, 6, 4)

    def test_count_mismatch(self, tmp_path):
        img, lab, _ = build_idx_fixture(tmp_path)
        raw = bytearray(lab.read_bytes())
        raw[4:8] = struct.pack(">I", 7)
        lab.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="count"):
            load_idx(img, lab, 3, 6, 4)

    def test_absent_digit(self, tmp_path):
        img, lab, _ = build_idx_fixture(tmp_path, labels=(3, 3, 3, 3))
        with pytest.raises(DataFormatError, match="absent"):
            load_idx(img, lab, 3, 6, 2)

    def test_equal_digits_rejected(self, tmp_path):
        """One digit under both labels would label every example +1."""
        img, lab, _ = build_idx_fixture(tmp_path)
        with pytest.raises(ConfigError, match="both 3: idx data needs two classes"):
            load_idx(img, lab, 3, 3, 2)

    def test_truncated_images(self, tmp_path):
        img, lab, _ = build_idx_fixture(tmp_path)
        img.write_bytes(img.read_bytes()[:-5])
        with pytest.raises(DataFormatError, match="truncated"):
            load_idx(img, lab, 3, 6, 4)

    def test_not_enough_matches(self, tmp_path):
        img, lab, _ = build_idx_fixture(tmp_path)
        with pytest.raises(DataFormatError, match="need"):
            load_idx(img, lab, 3, 6, 10)

    @settings(max_examples=60, deadline=None)
    @given(labels=IDX_LABELS, rows=st.integers(1, 5), cols=st.integers(1, 5),
           data=st.data())
    def test_a_written_pair_loads_back_bit_exact(self, labels, rows, cols, data):
        a = data.draw(st.sampled_from(sorted(set(labels))))
        b = data.draw(st.sampled_from(sorted(set(labels) - {a})))
        matches = [i for i, label in enumerate(labels) if label in (a, b)]
        m = data.draw(st.integers(1, len(matches)))
        with tempfile.TemporaryDirectory() as tmp:
            img, lab, pixels = build_idx_fixture(Path(tmp), labels, rows=rows,
                                                 cols=cols)
            ds = load_idx(img, lab, a, b, m)
        keep = matches[:m]
        X = pixels.reshape(len(labels), rows * cols)[keep].astype(np.float64) / 255.0
        y = np.array([1.0 if labels[i] == a else -1.0 for i in keep])
        assert ds.X.tobytes() == X.tobytes() and ds.y.tobytes() == y.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(labels=IDX_LABELS, rows=st.integers(1, 4), cols=st.integers(1, 4))
    def test_every_prefix_of_either_file_is_a_data_format_error(self, labels,
                                                               rows, cols):
        a, b = sorted(set(labels))[:2]
        with tempfile.TemporaryDirectory() as tmp:
            img, lab, _ = build_idx_fixture(Path(tmp), labels, rows=rows, cols=cols)
            for path in (img, lab):
                whole = path.read_bytes()
                for cut in range(len(whole)):
                    path.write_bytes(whole[:cut])
                    with pytest.raises(DataFormatError):
                        load_idx(img, lab, a, b, 1)
                path.write_bytes(whole)
            load_idx(img, lab, a, b, 1)


class TestPersistence:
    def make_dataset(self):
        rng = np.random.default_rng(3)
        return Dataset(rng.standard_normal((9, 4)),
                       np.sign(rng.standard_normal(9)),
                       {"source": "test", "note": "fixture"})

    def test_round_trip_bit_exact(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "data.stpd"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(ds.X, back.X)
        assert np.array_equal(ds.y, back.y)
        assert back.meta == ds.meta

    def test_version_bump_rejected(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "data.stpd"
        save_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="version"):
            load_dataset(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "data.stpd"
        path.write_bytes(b"WXYZ" + b"\x00" * 40)
        with pytest.raises(DataFormatError, match="magic"):
            load_dataset(path)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 4), st.data())
    def test_round_trip_of_any_dataset_is_bit_exact(self, m, d, data):
        X = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                        min_size=m * d, max_size=m * d))).reshape(m, d)
        y = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                        min_size=m, max_size=m)))
        meta = data.draw(st.dictionaries(st.text(max_size=5),
                                         st.one_of(st.integers(), st.text(max_size=5)),
                                         max_size=3))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.stpd"
            save_dataset(Dataset(X, y, meta), path)
            back = load_dataset(path)
        assert back.X.tobytes() == X.tobytes() and back.y.tobytes() == y.tobytes()
        assert back.meta == meta

    def test_every_truncation_is_a_data_format_error(self, tmp_path):
        path = tmp_path / "data.stpd"
        save_dataset(self.make_dataset(), path)
        blob = path.read_bytes()
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(DataFormatError):
                load_dataset(path)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_corrupted_header_loads_the_same_arrays_or_is_a_data_format_error(
            self, data):
        """Only the metadata has no check: a corrupted header either fails
        typed or loads the stored X and y."""
        ds = self.make_dataset()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.stpd"
            save_dataset(ds, path)
            raw = bytearray(path.read_bytes())
            meta_len, = struct.unpack_from("<I", raw, 24)
            for pos in data.draw(st.lists(st.integers(0, 28 + meta_len - 1),
                                          min_size=1, max_size=3)):
                raw[pos] = data.draw(st.integers(0, 255))
            self.check_header_corruption(path, bytes(raw), ds)

    def test_every_header_bit_flip_loads_the_same_arrays_or_is_a_data_format_error(
            self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "data.stpd"
        save_dataset(ds, path)
        blob = path.read_bytes()
        meta_len, = struct.unpack_from("<I", blob, 24)
        for pos in range(28 + meta_len):
            for bit in range(8):
                self.check_header_corruption(
                    path, blob[:pos] + bytes([blob[pos] ^ 1 << bit]) + blob[pos + 1:], ds)

    @staticmethod
    def check_header_corruption(path, raw, ds):
        path.write_bytes(raw)
        try:
            back = load_dataset(path)
        except DataFormatError:
            return
        assert back.X.tobytes() == ds.X.tobytes() and back.y.tobytes() == ds.y.tobytes()

    def test_csv_export_row_count(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "data.csv"
        export_csv(ds, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == ds.m + 1
        assert lines[0] == "y," + ",".join(f"x{i+1}" for i in range(ds.d))

    def test_csv_round_trip(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "data.csv"
        export_csv(ds, path)
        back = load_points_csv(path)
        np.testing.assert_allclose(back.X, ds.X, rtol=1e-15)
        np.testing.assert_array_equal(back.y, ds.y)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("y,x1,x2\n1,1.0,0.5\n-1,nan,0.5\n")
        with pytest.raises(DataFormatError, match=":3: non-finite value in '-1,nan,0.5'$"):
            load_points_csv(path)

    @pytest.mark.parametrize("X, y, message", [
        (np.ones((3, 2)), np.ones(2), r"dataset shapes X=\(3, 2\) y=\(2,\) are inconsistent"),
        (np.ones(3), np.ones(3), r"dataset shapes X=\(3,\) y=\(3,\) are inconsistent"),
        (np.ones((2, 2)), np.ones((2, 1)), "are inconsistent"),
        (np.empty((0, 2)), np.empty(0), "dataset must contain at least one example"),
        (np.array([[1.0, np.inf]]), np.ones(1), "dataset features contain non-finite"),
    ], ids=["row counts differ", "X not a matrix", "y not a vector", "zero rows",
            "infinite feature"])
    def test_malformed_arrays_rejected(self, X, y, message):
        with pytest.raises(DataFormatError, match=message):
            Dataset(X, y)

    def test_label_validation(self):
        with pytest.raises(DataFormatError, match="labels"):
            Dataset(np.ones((2, 2)), np.array([1.0, 0.5]))
