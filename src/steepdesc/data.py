"""Teacher-student data generation, MNIST-style IDX ingestion, persistence.

Generation is pinned to the package's own PRNG so that (teacher seed,
data seed) determine a dataset bit-exactly on any platform. Draw order:

  * teacher: per neuron, the active coordinate indices (partial
    Fisher-Yates), then that neuron's weights in selection order; the
    second-layer weights last; an all-zero row or second layer (a
    measure-zero draw) is redrawn.
  * samples: per example, d standard Gaussians row by row (Box-Muller
    pairs); an example whose teacher output is exactly zero is redrawn.

An example consumes 2 * ceil(d/2) outputs whether kept or not, so
``sample_dataset`` draws up to ``SAMPLE_CHUNK`` examples with one
``gaussians`` call, scores them with one batched teacher product, keeps the
nonzero ones in order and draws again for the rest. The data equal the
example-at-a-time loop bit for bit: a row whose batched output is too close
to 0 for its sign to be certain is scored again on its own.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError
from .models import ModelSpec, forward_batch
from .params import ParamVector
from .rng import Xoshiro256pp

_STPD_MAGIC = b"STPD"
_STPD_VERSION = 1

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049

SAMPLE_CHUNK = 2048                 # examples drawn and scored per block
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class TeacherSpec:
    input_dim: int
    width: int
    active_per_neuron: int
    weight_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        """Each field's own range; ``gen_teacher`` checks that
        ``active_per_neuron <= input_dim``, where a teacher is drawn."""
        if min(self.input_dim, self.width, self.active_per_neuron) < 1:
            raise ConfigError("teacher dimensions must be positive")
        if not 0.0 < self.weight_scale < math.inf:
            raise ConfigError("weight_scale must be finite and positive")


@dataclass(frozen=True)
class Dataset:
    """Labeled examples with +/-1 labels and provenance metadata."""

    X: np.ndarray
    y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        y = np.ascontiguousarray(self.y, dtype=np.float64)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise DataFormatError(
                f"dataset shapes X={X.shape} y={y.shape} are inconsistent")
        if X.shape[0] < 1:
            raise DataFormatError("dataset must contain at least one example")
        if not np.isfinite(X).all():
            raise DataFormatError("dataset features contain non-finite values")
        if not np.all(np.abs(y) == 1.0):
            raise DataFormatError("labels must be exactly +1 or -1")

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def gen_teacher(spec: TeacherSpec) -> ParamVector:
    """Sparse one-hidden-layer teacher: each first-layer row has exactly
    ``active_per_neuron`` nonzero weights, uniform in +/- weight_scale."""
    if spec.active_per_neuron > spec.input_dim:
        raise ConfigError("active_per_neuron must be in [1, input_dim]")
    rng = Xoshiro256pp(spec.seed)
    s = spec.weight_scale
    w = np.zeros((spec.width, spec.input_dim))
    for j in range(spec.width):
        while True:
            idx = rng.choice_without_replacement(spec.input_dim, spec.active_per_neuron)
            vals = [rng.uniform_in(-s, s) for _ in idx]
            if any(v != 0.0 for v in vals):
                break
        w[j, idx] = vals
    while True:
        u = np.array([rng.uniform_in(-s, s) for _ in range(spec.width)])
        if u.any():
            break
    return ParamVector((w, u))


def sample_dataset(teacher: ParamVector, m: int, seed: int,
                   meta: dict | None = None) -> Dataset:
    """m Gaussian inputs labeled by the teacher's sign; exact zeros resampled."""
    if m < 1:
        raise ConfigError("m must be >= 1")
    width, d = teacher.blocks[0].shape
    model = ModelSpec.two_layer_relu(d, width)
    rng = Xoshiro256pp(seed)
    per_row = 2 * ((d + 1) // 2)       # outputs one example consumes
    X = np.empty((m, d))
    y = np.empty(m)
    filled = 0
    while filled < m:
        attempts = min(SAMPLE_CHUNK, m - filled)
        rows = rng.gaussians(attempts * per_row).reshape(attempts, per_row)[:, :d]
        f = _teacher_outputs(model, teacher, rows)
        keep = np.flatnonzero(f != 0.0)
        X[filled:filled + len(keep)] = rows[keep]
        y[filled:filled + len(keep)] = np.where(f[keep] > 0.0, 1.0, -1.0)
        filled += len(keep)
    full_meta = {"source": "teacher", "data_seed": str(seed)}
    full_meta.update(meta or {})
    return Dataset(X, y, full_meta)


def _teacher_outputs(model: ModelSpec, teacher: ParamVector,
                     rows: np.ndarray) -> np.ndarray:
    """Teacher outputs whose zero-ness and sign match the one-row product.

    The batched product may round differently from ``forward_batch`` on one
    ``(1, d)`` row. Both lie within (d + k) * eps/2 * |u|.|W||x| of the exact
    value (relu is 1-Lipschitz), so an output more than four times that far
    from 0 is nonzero with the same sign in both; any other row is scored
    one at a time.
    """
    w, u = teacher.blocks
    f = forward_batch(model, teacher, rows)
    bound = (np.abs(rows) @ np.abs(w).T) @ np.abs(u)
    unsure = np.abs(f) <= 2 * (w.shape[0] + w.shape[1] + 2) * _EPS * bound
    for i in np.flatnonzero(unsure):
        f[i] = forward_batch(model, teacher, np.ascontiguousarray(rows[i])[None, :])[0]
    return f


def _read_be_u32(buf: bytes, offset: int, path) -> int:
    if offset + 4 > len(buf):
        raise DataFormatError(f"{path}: truncated header")
    return struct.unpack_from(">I", buf, offset)[0]


def load_idx(images_path, labels_path, digit_a: int, digit_b: int,
             m_train: int) -> Dataset:
    """Digit-pair dataset from big-endian IDX files.

    Pixels are flattened and scaled to [0, 1]; ``digit_a`` maps to +1 and
    ``digit_b`` to -1; the first ``m_train`` matches in file order are
    kept.
    """
    if digit_a == digit_b:
        raise ConfigError(f"digit_a and digit_b are both {digit_a}: "
                          f"idx data needs two classes")
    img = Path(images_path).read_bytes()
    lab = Path(labels_path).read_bytes()

    if _read_be_u32(img, 0, images_path) != IDX_IMAGE_MAGIC:
        raise DataFormatError(f"{images_path}: bad image magic "
                              f"(expected {IDX_IMAGE_MAGIC})")
    n = _read_be_u32(img, 4, images_path)
    rows = _read_be_u32(img, 8, images_path)
    cols = _read_be_u32(img, 12, images_path)
    if len(img) < 16 + n * rows * cols:
        raise DataFormatError(f"{images_path}: truncated image data "
                              f"({len(img) - 16} bytes for {n}x{rows}x{cols})")

    if _read_be_u32(lab, 0, labels_path) != IDX_LABEL_MAGIC:
        raise DataFormatError(f"{labels_path}: bad label magic "
                              f"(expected {IDX_LABEL_MAGIC})")
    n_lab = _read_be_u32(lab, 4, labels_path)
    if n_lab != n:
        raise DataFormatError(
            f"image count {n} does not match label count {n_lab}")
    if len(lab) < 8 + n:
        raise DataFormatError(f"{labels_path}: truncated label data")

    pixels = np.frombuffer(img, dtype=np.uint8, count=n * rows * cols, offset=16)
    pixels = pixels.reshape(n, rows * cols)
    labels = np.frombuffer(lab, dtype=np.uint8, count=n, offset=8)

    mask = (labels == digit_a) | (labels == digit_b)
    if not (labels == digit_a).any():
        raise DataFormatError(f"digit {digit_a} absent from {labels_path}")
    if not (labels == digit_b).any():
        raise DataFormatError(f"digit {digit_b} absent from {labels_path}")
    matches = np.nonzero(mask)[0]
    if matches.size < m_train:
        raise DataFormatError(
            f"only {matches.size} examples of digits {digit_a}/{digit_b}, "
            f"need {m_train}")
    keep = matches[:m_train]
    X = pixels[keep].astype(np.float64) / 255.0
    y = np.where(labels[keep] == digit_a, 1.0, -1.0)
    meta = {"source": "idx", "digits": f"{digit_a}/{digit_b}",
            "images": str(images_path)}
    return Dataset(X, y, meta)


def save_dataset(ds: Dataset, path) -> None:
    """Self-describing binary container; round-trips bit-exactly."""
    import json
    meta_blob = json.dumps(ds.meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_STPD_MAGIC)
        f.write(struct.pack("<IQQI", _STPD_VERSION, ds.m, ds.d, len(meta_blob)))
        f.write(meta_blob)
        f.write(ds.X.astype("<f8").tobytes())
        f.write(ds.y.astype("<i1").tobytes())


def load_dataset(path) -> Dataset:
    import json
    data = Path(path).read_bytes()
    if data[:4] != _STPD_MAGIC:
        raise DataFormatError(f"{path}: bad magic {data[:4]!r}, expected STPD")
    try:
        version, m, d, meta_len = struct.unpack_from("<IQQI", data, 4)
    except struct.error as exc:
        raise DataFormatError(f"{path}: truncated header") from exc
    if version != _STPD_VERSION:
        raise DataFormatError(
            f"{path}: container version {version} not supported "
            f"(expected {_STPD_VERSION})")
    offset = 4 + struct.calcsize("<IQQI")
    try:
        meta = json.loads(data[offset:offset + meta_len].decode("utf-8"))
    except ValueError as exc:          # JSONDecodeError, UnicodeDecodeError
        raise DataFormatError(f"{path}: corrupt metadata: {exc}") from exc
    offset += meta_len
    need = m * d * 8 + m
    if len(data) - offset != need:
        raise DataFormatError(f"{path}: body has {len(data) - offset} bytes, "
                              f"expected {need}")
    X = np.frombuffer(data, dtype="<f8", count=m * d, offset=offset).reshape(m, d)
    y = np.frombuffer(data, dtype="<i1", count=m, offset=offset + m * d * 8)
    return Dataset(X.astype(np.float64), y.astype(np.float64), meta)


def export_csv(ds: Dataset, path) -> None:
    """Plain-text view of a dataset: header plus one row per example."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("y," + ",".join(f"x{i + 1}" for i in range(ds.d)) + "\n")
        for yi, row in zip(ds.y, ds.X):
            f.write(f"{int(yi)}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def load_points_csv(path) -> Dataset:
    """Read the export_csv format back (used by the oracle CLI)."""
    try:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines or not lines[0].startswith("y,"):
        raise DataFormatError(f"{path}: expected a 'y,x1,...' header")
    width = len(lines[0].split(","))
    rows = []
    for ln, line in enumerate(lines[1:], 2):
        cells = line.split(",")
        if len(cells) != width:
            raise DataFormatError(f"{path}:{ln}: {len(cells)} cells, the header "
                                  f"has {width}")
        try:
            rows.append([float(v) for v in cells])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{ln}: {exc}") from exc
        if not all(map(math.isfinite, rows[-1])):
            raise DataFormatError(f"{path}:{ln}: non-finite value in {line!r}")
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    table = np.array(rows)
    return Dataset(table[:, 1:], table[:, 0], {"source": "csv", "path": str(path)})
