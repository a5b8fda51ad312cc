"""Dataset ingestion and model persistence.

Two dataset sources: a seeded synthetic task (noisy class templates, sized
for minutes-scale training) and the standard small-image binary format of
3073-byte records (1 label byte + 3072 pixel bytes, RGB planes, row-major
32x32; the 3074-byte coarse+fine variant is also accepted).

Checkpoints are a length-prefixed JSON header (architecture, tensor
manifest, train state), a concatenated little-endian float32
payload, and a trailing CRC32 over the payload that is also recorded in
the header.
"""
from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .metrics import FlopsModel
from .model import GatedResNet, ModelSpec, check_number

CHECKPOINT_VERSION = 1

# widely used per-channel statistics of the 32x32 RGB corpus, [1,3,1,1]
CIFAR10_MEANS = np.array([0.4914, 0.4822, 0.4465]).reshape(1, 3, 1, 1)
CIFAR10_STDS = np.array([0.2470, 0.2435, 0.2616]).reshape(1, 3, 1, 1)

# scale of the synthetic class templates, whose cells are standard normal
TEMPLATE_SCALE = 0.12


class DatasetFormatError(ValueError):
    """A data file's contents do not match its declared format."""


class CheckpointError(ValueError):
    """A checkpoint cannot be loaded; the message names the failure."""


@dataclass
class Dataset:
    """Normalized images [M,C,H,W], integer labels [M], and provenance.
    A split is plain data; ``TrainConfig.augment`` decides augmentation."""
    images: np.ndarray
    labels: np.ndarray
    split: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError("images and labels disagree on sample count")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def num_classes(self) -> int:
        return int(self.meta.get("num_classes", self.labels.max() + 1))


@np.errstate(over="raise")  # overflowing amplitudes raise FloatingPointError
def make_synthetic(m: int, classes: int = 4, image_size: int = 8,
                   seed: int = 0, *, noise_sigma: float = 0.5,
                   split: str = "train") -> Dataset:
    """Noisy-template classification task.

    Each class owns a seeded random 3xHxH template; a sample is its class
    template, scaled by ``TEMPLATE_SCALE``, plus i.i.d. Gaussian pixel
    noise.  Templates are piecewise constant on 2x2 cells (a coarse random
    grid upsampled), so the class signal has local spatial structure a
    convolutional net can average over; fully independent pixels would be
    near-invisible to a weight-shared conv stack at this noise level.  At
    the default noise the nearest-template classifier (the Bayes rule for
    this generator) lands in the mid-to-high 90s, so the task is
    comfortably learnable without being trivial.  Both splits take the
    templates from ``seed``, and the val split its labels and noise from
    a second generator of that seed: unseen samples of the training task.
    Templates travel in ``meta`` for oracle checks.
    """
    for name, value, low in (("m", m, 1), ("classes", classes, 2),
                             ("image_size", image_size, 1), ("seed", seed, 0)):
        check_number(name, value, low, integer=True)
    if split not in ("train", "val"):
        raise ValueError(f"split must be train or val, got {split!r}")
    noise_sigma = float(check_number("noise_sigma", noise_sigma))
    h = image_size
    rng = np.random.default_rng(seed)
    factor = 2 if h % 2 == 0 else 1
    coarse = rng.standard_normal((classes, 3, h // factor, h // factor))
    templates = np.repeat(np.repeat(coarse, factor, axis=2), factor,
                          axis=3) * TEMPLATE_SCALE
    if split == "val":
        rng = np.random.default_rng([seed, 1])
    labels = rng.integers(0, classes, m)
    images = templates[labels] + rng.standard_normal((m, 3, h, h)) * noise_sigma
    return Dataset(images=images, labels=labels, split=split,
                   meta={"num_classes": classes, "templates": templates,
                         "noise_sigma": noise_sigma, "seed": seed})


def load_cifar_binary(path, *, record_format: str = "cifar10",
                      split: str = "train") -> Dataset:
    """Parse the 3073-byte-record binary format into a normalized Dataset.

    Pixels are scaled to [0,1] and then normalized per channel by
    ``CIFAR10_MEANS`` and ``CIFAR10_STDS``.  ``record_format="cifar100"``
    reads the 3074-byte variant (coarse label byte + fine label byte) and
    keeps the fine label; the class count follows the format: 10 or 100.
    The loader does not augment; a run's ``train`` section does.
    """
    label_bytes, num_classes = {"cifar10": (1, 10), "cifar100": (2, 100)}.get(
        record_format, (None, None))
    if label_bytes is None:
        raise ValueError(f"unknown record format {record_format!r}")
    record = label_bytes + 3072
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0 or raw.size % record != 0:
        raise DatasetFormatError(
            f"{path}: file holds {raw.size} bytes, not a multiple of the "
            f"{record}-byte record size")
    rows = raw.reshape(-1, record)
    labels = rows[:, label_bytes - 1].astype(np.int64)
    if labels.max() >= num_classes:
        raise DatasetFormatError(
            f"{path}: label byte {labels.max()} out of range for "
            f"{num_classes} classes")

    pixels = rows[:, label_bytes:].reshape(-1, 3, 32, 32)
    images = pixels.astype(np.float64) / 255.0
    images = (images - CIFAR10_MEANS) / CIFAR10_STDS
    return Dataset(images=images, labels=labels, split=split,
                   meta={"num_classes": num_classes,
                         "record_format": record_format})


AUGMENT_PAD = 4  # zero border before the random crop, in pixels


def augment_batch(images: np.ndarray, rng: np.random.Generator
                  ) -> np.ndarray:
    """Pad-and-random-crop plus horizontal flip, per sample."""
    b, c, h, w = images.shape
    pad = AUGMENT_PAD
    padded = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.empty_like(images)
    offs = rng.integers(0, 2 * pad + 1, size=(b, 2))
    flips = rng.random(b) < 0.5
    for i in range(b):
        dy, dx = offs[i]
        crop = padded[i, :, dy:dy + h, dx:dx + w]
        out[i] = crop[:, :, ::-1] if flips[i] else crop
    return out


# -- checkpoints --------------------------------------------------------------


def _manifest(model: GatedResNet) -> list[tuple[dict, np.ndarray]]:
    """``(entry, array)`` per parameter, then per batch-norm buffer, in
    payload order; an entry holds name, shape and float32 byte span."""
    named = [(f"param/{name}", t.data) for name, t in model.named_parameters()]
    named += [(f"buffer/{name}", arr) for name, arr in model.named_buffers()]
    table, offset = [], 0
    for name, arr in named:
        table.append(({"name": name, "shape": list(arr.shape),
                       "offset": offset, "nbytes": 4 * arr.size}, arr))
        offset += 4 * arr.size
    return table


def save_checkpoint(path, model: GatedResNet,
                    train_state: dict | None = None) -> None:
    """Serialize parameters and batch-norm state as float32.

    ``train_state`` holds JSON scalars such as the epoch counter; optimizer
    state is not saved, so training from a checkpoint restarts it.
    """
    table = _manifest(model)
    payload = b"".join(np.ascontiguousarray(arr, dtype="<f4").tobytes()
                       for _, arr in table)
    crc = zlib.crc32(payload)

    header = {"format_version": CHECKPOINT_VERSION,
              "model": model.spec.to_dict(),
              "tensors": [entry for entry, _ in table],
              "payload_nbytes": len(payload),
              "crc32": crc,
              "train_state": train_state or {}}
    header_bytes = json.dumps(header, sort_keys=True).encode()

    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)
        fh.write(struct.pack("<I", crc))


def _require_keys(obj, keys: tuple[str, ...], what: str) -> None:
    missing = [k for k in keys if k not in obj] if isinstance(obj, dict) \
        else list(keys)
    if missing:
        raise CheckpointError(f"{what} lacks {', '.join(missing)}")


def load_checkpoint(path, expected_spec: ModelSpec | None = None
                    ) -> tuple[GatedResNet, dict]:
    """Rebuild the model recorded in a checkpoint.

    Raises ``CheckpointError`` on every failure, among them an unknown
    format version, payload corruption, a tensor table that is not the
    model's, or an architecture that does not match ``expected_spec``;
    the message names the failure.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12:
        raise CheckpointError(f"{path}: too short to be a checkpoint")
    (header_len,) = struct.unpack("<Q", blob[:8])
    if 8 + header_len + 4 > len(blob):
        raise CheckpointError(f"{path}: header length field exceeds file")
    # ValueError covers bad UTF-8, bad JSON and over-long integer literals
    try:
        header = json.loads(blob[8:8 + header_len].decode())
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    _require_keys(header, ("payload_nbytes", "crc32", "model", "tensors"),
                  f"{path}: header")

    version = header.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version}, expected "
            f"{CHECKPOINT_VERSION}")

    payload = blob[8 + header_len:-4]
    (trailer_crc,) = struct.unpack("<I", blob[-4:])
    if len(payload) != header["payload_nbytes"]:
        raise CheckpointError(
            f"{path}: payload holds {len(payload)} bytes but manifest "
            f"declares {header['payload_nbytes']}")
    crc = zlib.crc32(payload)
    if crc != header["crc32"] or crc != trailer_crc:
        raise CheckpointError(
            f"{path}: payload CRC32 {crc:#010x} does not match the "
            f"recorded checksum")

    try:
        spec = ModelSpec.from_dict(header["model"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{path}: invalid model description: {exc!r}") from exc
    if expected_spec is not None and spec != expected_spec:
        if spec.num_blocks != expected_spec.num_blocks:
            raise CheckpointError(
                f"{path}: checkpoint has {spec.num_blocks} blocks but the "
                f"configuration expects {expected_spec.num_blocks}")
        raise CheckpointError(
            f"{path}: checkpoint architecture {spec} does not match "
            f"expected {expected_spec}")

    train_state = header.get("train_state", {})
    if not isinstance(train_state, dict):
        raise CheckpointError(f"{path}: train_state is not a JSON object")
    # at a 1x1 input each layer does one MAC per weight; the block count
    # goes first because counting MACs walks every block
    if spec.num_blocks > len(payload) or \
            4 * FlopsModel.for_model(spec, (1, 1)).total_macs > len(payload):
        raise CheckpointError(
            f"{path}: model {spec} has more weights than the payload holds")

    model = GatedResNet(spec, np.random.default_rng(0))
    table = _manifest(model)
    expected = [entry for entry, _ in table]
    if header["tensors"] != expected:
        theirs = header["tensors"] if isinstance(header["tensors"], list) \
            else [header["tensors"]]
        i, (got, want) = next((i, pair) for i, pair in enumerate(
            zip_longest(theirs, expected)) if pair[0] != pair[1])
        raise CheckpointError(
            f"{path}: tensor table entry {i} is {got!r} in the header but "
            f"{want!r} in the model")
    if len(payload) != 4 * sum(arr.size for _, arr in table):
        raise CheckpointError(f"{path}: payload size does not match the "
                              f"tensor table")
    values = np.frombuffer(payload, dtype="<f4")
    for entry, target in table:
        start = entry["offset"] // 4
        target[...] = values[start:start + target.size].reshape(target.shape)

    return model, dict(train_state)
