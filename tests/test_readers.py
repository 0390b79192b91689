"""Every reader of outside bytes fails typed on a damaged file.

A valid file of a few hundred bytes is damaged once (truncated, one byte
flipped, bytes appended, or a 32-bit field overwritten with 0, 1, 2^31 or
2^32 - 1 in either byte order) and read again: the reader returns or
raises a ``SteepdescError``, never any other exception.
"""
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steepdesc.data import (Dataset, export_csv, load_dataset, load_idx,
                            load_points_csv, save_dataset)
from steepdesc.errors import SteepdescError
from steepdesc.models import (InitSpec, ModelSpec, init_params, load_checkpoint,
                              save_checkpoint)

DATASET = Dataset(np.random.default_rng(5).standard_normal((6, 3)),
                  np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0]), {"source": "fuzz"})
FIELD_VALUES = (0, 1, 2**31, 2**32 - 1)


def _checkpoint(directory):
    path = directory / "theta.ckpt"
    model = ModelSpec.two_layer_relu(3, 4)
    save_checkpoint(path, model, init_params(model, InitSpec(0.5, seed=2)))
    return path, lambda: load_checkpoint(path)


def _dataset(directory):
    path = directory / "data.stpd"
    save_dataset(DATASET, path)
    return path, lambda: load_dataset(path)


def _points_csv(directory):
    path = directory / "points.csv"
    export_csv(DATASET, path)
    return path, lambda: load_points_csv(path)


def _idx(damaged):
    """A six-image 2x2 IDX pair, digits 3 and 6 kept; ``damaged`` names the
    file of the pair the test damages."""
    def write(directory):
        images, labels = directory / "images.idx", directory / "labels.idx"
        pixels = np.random.default_rng(6).integers(0, 256, (6, 2, 2), np.uint8)
        images.write_bytes(struct.pack(">IIII", 2051, 6, 2, 2) + pixels.tobytes())
        labels.write_bytes(struct.pack(">II", 2049, 6) + bytes([3, 6, 1, 3, 6, 6]))
        path = images if damaged == "images" else labels
        return path, lambda: load_idx(images, labels, 3, 6, 4)
    return write


WRITERS = {"load_checkpoint": _checkpoint, "load_dataset": _dataset,
           "load_points_csv": _points_csv, "load_idx images": _idx("images"),
           "load_idx labels": _idx("labels")}


def _damage(data, blob: bytes) -> bytes:
    n = len(blob)
    kind = data.draw(st.sampled_from(["truncate", "flip", "append", "field"]))
    if kind == "truncate":
        return blob[:data.draw(st.integers(0, n - 1))]
    if kind == "append":
        return blob + data.draw(st.binary(min_size=1, max_size=16))
    if kind == "flip":
        pos = data.draw(st.integers(0, n - 1))
        return (blob[:pos] + bytes([blob[pos] ^ data.draw(st.integers(1, 255))])
                + blob[pos + 1:])
    # headers hold the length and count fields: half the draws land there
    pos = data.draw(st.one_of(st.integers(0, min(n - 4, 32)), st.integers(0, n - 4)))
    field = struct.pack(data.draw(st.sampled_from(["<I", ">I"])),
                        data.draw(st.sampled_from(FIELD_VALUES)))
    return blob[:pos] + field + blob[pos + 4:]


@pytest.mark.parametrize("reader", sorted(WRITERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_damaged_file_reads_or_raises_a_steepdesc_error(reader, data):
    with tempfile.TemporaryDirectory() as tmp:
        path, read = WRITERS[reader](Path(tmp))
        read()                                  # the undamaged file reads
        path.write_bytes(_damage(data, path.read_bytes()))
        try:
            read()
        except SteepdescError:
            pass
