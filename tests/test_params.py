"""ParamVector over one buffer: each operation gives the same bits as the
block-by-block expression it replaces, views share the buffer, and the
interned layout is checked once and shared."""
import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from steepdesc.errors import DataFormatError, ShapeMismatchError
from steepdesc.models import (InitSpec, ModelSpec, init_params,
                              load_checkpoint, save_checkpoint)
from steepdesc.params import Layout, ParamVector, from_flat

DIMS = st.integers(1, 5)
SHAPES = st.lists(st.one_of(st.tuples(DIMS), st.tuples(DIMS, DIMS),
                            st.sampled_from([(1,), (1, 1)])),
                  min_size=1, max_size=4)
VALUES = st.floats(-1e6, 1e6, width=64)
SCALES = st.floats(-1e3, 1e3, width=64)


@st.composite
def vector_pairs(draw):
    """Two vectors of one random layout whose trainable blocks lead."""
    shapes = draw(SHAPES)
    n = draw(st.integers(0, len(shapes)))
    flags = (True,) * n + (False,) * (len(shapes) - n)
    a, b = ([draw(arrays(np.float64, s, elements=VALUES)) for s in shapes]
            for _ in range(2))
    return ParamVector(tuple(a), flags), ParamVector(tuple(b), flags), a, b


# the block-by-block expressions of a tuple-of-arrays container

def ref_flat(blocks):
    return np.concatenate([b.ravel() for b in blocks])


def ref_scaled_trainable(blocks, flags, c):
    return [c * b if t else b.copy() for b, t in zip(blocks, flags)]


def ref_add_trainable(blocks, flags, update):
    """Each trainable block plus its update, each frozen block copied."""
    it = iter(update)
    return [b + next(it) if t else b.copy() for b, t in zip(blocks, flags)]


def ref_dot(a, b):
    return float(sum(np.dot(x.ravel(), y.ravel()) for x, y in zip(a, b)))


def same_bits(v: ParamVector, blocks) -> bool:
    return (v.shapes() == tuple(b.shape for b in blocks)
            and all(x.tobytes() == y.tobytes() for x, y in zip(v.blocks, blocks))
            and v.flat().tobytes() == ref_flat(blocks).tobytes())


@settings(max_examples=200, deadline=None)
@given(vector_pairs(), SCALES)
def test_operations_match_the_block_expressions(pair, c):
    u, v, a, b = pair
    flags = u.trainable
    assert same_bits(u, a)
    assert same_bits(u + v, [x + y for x, y in zip(a, b)])
    assert same_bits(u - v, [x - y for x, y in zip(a, b)])
    assert same_bits(u.scaled(c), [c * x for x in a])
    assert same_bits(u.scaled_trainable(c), ref_scaled_trainable(a, flags, c))
    assert u.dot(v) == ref_dot(a, b)
    kept = [x for x, t in zip(a, flags) if t]
    view = u.like(u.trainable_flat())
    assert all(view.trainable)
    if kept:
        assert same_bits(view, kept)
        update = v.trainable_flat()
        assert same_bits(u.add_trainable(update), ref_add_trainable(
            a, flags, [y for y, t in zip(b, flags) if t]))
    else:
        assert len(view.shapes()) == 0 and view.size == 0
    assert (u + v).trainable == flags and u.scaled(c).trainable == flags


@settings(max_examples=100, deadline=None)
@given(vector_pairs())
def test_views_share_the_buffer(pair):
    u, _, _, _ = pair
    assert u.flat() is u.buffer
    assert all(np.shares_memory(b, u.buffer) for b in u.blocks)
    view = u.like(u.trainable_flat())
    if view.size:
        assert np.shares_memory(view.flat(), u.buffer)
        assert np.shares_memory(u.trainable_flat(), u.buffer)
    assert u.trainable_flat().tobytes() == view.flat().tobytes()
    assert len(u.trainable_blocks()) == len(view.shapes())
    assert all(a is b or np.shares_memory(a, b)
               for a, b in zip(u.trainable_blocks(), view.blocks))
    x = u.flat().copy()
    for w in (from_flat(x, u.shapes(), u.trainable), u.like(x)):
        assert w.shapes() == u.shapes() and w.trainable == u.trainable
        assert np.shares_memory(w.flat(), x)
        assert all(np.shares_memory(b, x) for b in w.blocks)


def test_like_over_a_copy_or_zeros_owns_a_new_buffer():
    u = ParamVector.of(np.ones((2, 3)), np.ones(2), trainable=(True, False))
    for w in (u.like(u.flat().copy()), u.like(np.zeros(u.size))):
        assert not np.shares_memory(w.flat(), u.flat())
        assert w.trainable == u.trainable and w.shapes() == u.shapes()


def test_frozen_tail_is_a_slice():
    u = ParamVector.of(np.arange(6.0).reshape(2, 3), np.array([7.0, 8.0]),
                       trainable=(True, False))
    assert u.trainable_flat().tolist() == [0, 1, 2, 3, 4, 5]
    assert u.add_trainable(np.ones(6)).flat().tolist() == [
        1, 2, 3, 4, 5, 6, 7, 8]
    with pytest.raises(ShapeMismatchError, match="expected"):
        u.add_trainable(np.ones(8))


@pytest.mark.parametrize("flags", [(False, True), (True, False, True),
                                   (False, False, True)])
def test_trainable_flags_must_be_a_prefix(flags):
    blocks = [np.zeros(2)] * len(flags)
    with pytest.raises(ShapeMismatchError, match="come first"):
        ParamVector(tuple(blocks), flags)
    with pytest.raises(ShapeMismatchError, match="come first"):
        from_flat(np.zeros(2 * len(flags)), [(2,)] * len(flags), flags)


def test_from_flat_rejects_a_size_mismatch():
    with pytest.raises(ShapeMismatchError, match="shapes need 6"):
        from_flat(np.zeros(5), [(2, 3)])
    with pytest.raises(ShapeMismatchError, match="shapes need 6"):
        ParamVector.of(np.zeros((2, 3))).like(np.zeros(5))


def test_checkpoint_with_a_leading_frozen_block_is_malformed(tmp_path):
    model = ModelSpec.two_layer_relu(3, 4, freeze_second_layer=True)
    path = tmp_path / "theta.ckpt"
    save_checkpoint(path, model, init_params(model, InitSpec(0.1, seed=5)))
    _, theta = load_checkpoint(path)
    assert theta.trainable == (True, False)
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b'"trainable": [true, false]',
                                  b'"trainable": [false, true]'))
    with pytest.raises(DataFormatError, match="come first"):
        load_checkpoint(path)


@st.composite
def layouts(draw):
    """Block shapes, a trainable prefix's flags and a buffer of that size."""
    shapes = [tuple(s) for s in draw(SHAPES)]
    n = draw(st.integers(0, len(shapes)))
    flags = [True] * n + [False] * (len(shapes) - n)
    size = sum(int(np.prod(s)) for s in shapes)
    flat = draw(arrays(np.float64, size, elements=VALUES))
    return shapes, flags, flat


def ref_split(flat, shapes):
    """The blocks of ``flat`` in ``shapes``, as copies."""
    out, start = [], 0
    for s in shapes:
        n = int(np.prod(s))
        out.append(flat[start:start + n].reshape(s).copy())
        start += n
    return out


def ref_join(blocks):
    return np.concatenate([b.ravel() for b in blocks] + [np.zeros(0)])


@settings(max_examples=200, deadline=None)
@given(layouts(), SCALES)
def test_layout_operations_match_a_concatenation_reference(drawn, c):
    shapes, flags, flat = drawn
    n = flags.count(True)
    layout = Layout.of(shapes, flags)
    assert Layout.of(tuple(shapes), tuple(flags)) is layout
    assert layout.prefix is Layout.of(shapes[:n]) and layout.prefix.prefix is layout.prefix
    blocks = ref_split(flat, shapes)
    head = ref_join(blocks[:n])
    v = from_flat(flat, shapes, flags)
    assert v.layout is layout and v.shapes() == tuple(shapes)
    assert v.trainable == tuple(flags) and v.size == flat.size
    assert [b.tobytes() for b in v.blocks] == [b.tobytes() for b in blocks]
    assert v.trainable_flat().tobytes() == head.tobytes()
    other = flat[::-1].copy()
    for x, kept in ((other, shapes), (other[:head.size].copy(), shapes[:n])):
        w = v.like(x)
        assert w.layout is (layout if x.size == flat.size else layout.prefix)
        assert w.flat() is x
        assert [b.tobytes() for b in w.blocks] == [b.tobytes() for b in ref_split(x, kept)]
        assert [b.tobytes() for b in layout.views(x)] == [b.tobytes() for b in ref_split(x, kept)]
        assert v.dot_flat(x) == ref_dot(blocks[:len(kept)], ref_split(x, kept))
    delta = other[:head.size].copy()
    assert v.add_trainable(delta).flat().tobytes() == ref_join(
        ref_add_trainable(blocks, flags, ref_split(delta, shapes[:n]))).tobytes()
    assert v.scaled_trainable(c).flat().tobytes() == ref_join(
        ref_scaled_trainable(blocks, flags, c)).tobytes()
    assert v.add_trainable(delta).layout is layout is v.scaled_trainable(c).layout
    for copied in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert copied.layout is layout and copied.flat().tobytes() == flat.tobytes()


@settings(max_examples=100, deadline=None)
@given(layouts(), st.integers(1, 3))
def test_wrong_sizes_and_flags_raise(drawn, extra):
    shapes, flags, flat = drawn
    v = from_flat(flat, shapes, flags)
    wrong = np.zeros(flat.size + extra)
    with pytest.raises(ShapeMismatchError, match="shapes need"):
        from_flat(wrong, shapes, flags)
    for call in (v.like, v.layout.views, v.dot_flat):
        with pytest.raises(ShapeMismatchError, match="shapes need"):
            call(wrong)
    if len(shapes) > 1:
        with pytest.raises(ShapeMismatchError, match="come first"):
            Layout.of(shapes, [False] + [True] * (len(shapes) - 1))
    with pytest.raises(ShapeMismatchError, match="one boolean per block"):
        Layout.of(shapes, [True] * (len(shapes) + 1))
    with pytest.raises(ShapeMismatchError, match="one boolean per block"):
        Layout.of(shapes, [1] * len(shapes))


@settings(max_examples=50, deadline=None)
@given(layouts())
def test_every_constructor_runs_post_init_once(drawn):
    shapes, flags, flat = drawn
    blocks = ref_split(flat, shapes)
    v = from_flat(flat, shapes, flags)
    delta = np.ones(v.layout.prefix_size)
    builds = {
        "ParamVector": lambda: ParamVector(tuple(blocks), flags),
        "of": lambda: ParamVector.of(*blocks, trainable=flags),
        "from_flat": lambda: from_flat(flat, shapes, flags),
        "like": lambda: v.like(flat.copy()),
        "like prefix": lambda: v.like(delta),
        "add_trainable": lambda: v.add_trainable(delta),
        "scaled": lambda: v.scaled(2.0),
        "scaled_trainable": lambda: v.scaled_trainable(2.0),
        "add": lambda: v + v, "sub": lambda: v - v,
    }
    original = ParamVector.__post_init__
    calls = []

    def counted(self):
        calls.append(self)
        original(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ParamVector, "__post_init__", counted)
        for name, build in builds.items():
            calls.clear()
            built = build()
            assert calls == [built], name
