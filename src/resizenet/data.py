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
import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .model import GatedResNet, ModelSpec

CHECKPOINT_VERSION = 1

# widely used per-channel statistics for the 32x32 RGB corpus
CIFAR10_MEANS = (0.4914, 0.4822, 0.4465)
CIFAR10_STDS = (0.2470, 0.2435, 0.2616)


class DatasetFormatError(ValueError):
    """Input bytes do not match the declared dataset format."""


class CheckpointError(ValueError):
    """Base class for checkpoint load failures."""


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointIntegrityError(CheckpointError):
    pass


class ArchitectureMismatchError(CheckpointError):
    pass


@dataclass
class Dataset:
    """Normalized images [M,3,H,W], integer labels [M], and provenance."""
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


def make_synthetic(m: int, k: int = 4, h: int = 8, seed: int = 0, *,
                   noise_sigma: float = 0.5, template_scale: float = 0.12,
                   split: str = "train") -> Dataset:
    """Noisy-template classification task.

    Each class owns a seeded random 3xHxH template; a sample is its class
    template plus i.i.d. Gaussian pixel noise.  Templates are piecewise
    constant on 2x2 cells (a coarse random grid upsampled), so the class
    signal has local spatial structure a convolutional net can average
    over; fully independent pixels would be near-invisible to a
    weight-shared conv stack at this noise level.  At the default
    amplitudes the nearest-template classifier (the Bayes rule for this
    generator) lands in the mid-to-high 90s, so the task is comfortably
    learnable without being trivial.  Templates travel in ``meta`` for
    oracle checks.
    """
    if k < 2:
        raise ValueError(f"need at least 2 classes, got {k}")
    rng = np.random.default_rng(seed)
    factor = 2 if h % 2 == 0 else 1
    coarse = rng.standard_normal((k, 3, h // factor, h // factor))
    templates = np.repeat(np.repeat(coarse, factor, axis=2), factor,
                          axis=3) * template_scale
    labels = rng.integers(0, k, m)
    images = templates[labels] + rng.standard_normal((m, 3, h, h)) * noise_sigma
    return Dataset(images=images, labels=labels, split=split,
                   meta={"num_classes": k, "templates": templates,
                         "noise_sigma": noise_sigma,
                         "template_scale": template_scale,
                         "seed": seed, "augment": False})


def load_cifar_binary(path, *, num_classes: int = 10,
                      record_format: str = "cifar10",
                      means: tuple = CIFAR10_MEANS,
                      stds: tuple = CIFAR10_STDS,
                      split: str = "train",
                      augment: bool = False) -> Dataset:
    """Parse the 3073-byte-record binary format into a normalized Dataset.

    Pixels are scaled to [0,1] and then normalized per channel by the given
    mean/std.  ``record_format="cifar100"`` reads the 3074-byte variant
    (coarse label byte + fine label byte) and keeps the fine label.
    """
    label_bytes = {"cifar10": 1, "cifar100": 2}.get(record_format)
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
    means_arr = np.asarray(means, dtype=np.float64)[None, :, None, None]
    stds_arr = np.asarray(stds, dtype=np.float64)[None, :, None, None]
    images = (images - means_arr) / stds_arr
    return Dataset(images=images, labels=labels, split=split,
                   meta={"num_classes": num_classes, "means": list(means),
                         "stds": list(stds), "augment": augment,
                         "record_format": record_format})


def augment_batch(images: np.ndarray, rng: np.random.Generator, *,
                  pad: int = 4) -> np.ndarray:
    """Pad-and-random-crop plus horizontal flip, per sample."""
    b, c, h, w = images.shape
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


def save_checkpoint(path, model: GatedResNet,
                    train_state: dict | None = None) -> None:
    """Serialize parameters and batch-norm state as float32.

    ``train_state`` holds JSON scalars such as the epoch counter; optimizer
    state is not saved, so training from a checkpoint restarts it.
    """
    tensors: list[tuple[str, np.ndarray]] = []
    for name, t in model.named_parameters():
        tensors.append((f"param/{name}", t.data))
    for name, arr in model.named_buffers():
        tensors.append((f"buffer/{name}", arr))

    manifest, chunks, offset = [], [], 0
    for name, arr in tensors:
        payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        manifest.append({"name": name, "shape": list(arr.shape),
                         "offset": offset, "nbytes": len(payload)})
        chunks.append(payload)
        offset += len(payload)
    payload = b"".join(chunks)
    crc = zlib.crc32(payload)

    header = {"format_version": CHECKPOINT_VERSION,
              "model": model.spec.to_dict(),
              "tensors": manifest,
              "payload_nbytes": len(payload),
              "crc32": crc,
              "train_state": train_state or {}}
    header_bytes = json.dumps(header, sort_keys=True).encode()

    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)
        fh.write(struct.pack("<I", crc))


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def _require_keys(obj, keys: tuple[str, ...], what: str) -> None:
    missing = [k for k in keys if k not in obj] if isinstance(obj, dict) \
        else list(keys)
    if missing:
        raise CheckpointError(f"{what} lacks {', '.join(missing)}")


def load_checkpoint(path, expected_spec: ModelSpec | None = None
                    ) -> tuple[GatedResNet, dict]:
    """Rebuild the model recorded in a checkpoint.

    Raises a distinct error per failure class: unknown format version,
    manifest/payload disagreement, payload corruption, or an architecture
    that does not match ``expected_spec``.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12:
        raise CheckpointError(f"{path}: too short to be a checkpoint")
    (header_len,) = struct.unpack("<Q", blob[:8])
    if 8 + header_len + 4 > len(blob):
        raise CheckpointError(f"{path}: header length field exceeds file")
    try:
        header = json.loads(blob[8:8 + header_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    _require_keys(header, ("payload_nbytes", "crc32", "model", "tensors"),
                  f"{path}: header")

    version = header.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
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
        raise CheckpointIntegrityError(
            f"{path}: payload CRC32 {crc:#010x} does not match the "
            f"recorded checksum")

    try:
        spec = ModelSpec.from_dict(header["model"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{path}: invalid model description: {exc!r}") from exc
    if expected_spec is not None and spec != expected_spec:
        if spec.num_blocks != expected_spec.num_blocks:
            raise ArchitectureMismatchError(
                f"{path}: checkpoint has {spec.num_blocks} blocks but the "
                f"configuration expects {expected_spec.num_blocks}")
        raise ArchitectureMismatchError(
            f"{path}: checkpoint architecture {spec} does not match "
            f"expected {expected_spec}")

    train_state = header.get("train_state", {})
    if not isinstance(train_state, dict):
        raise CheckpointError(f"{path}: train_state is not a JSON object")
    arrays: dict[str, np.ndarray] = {}
    if not isinstance(header["tensors"], list):
        raise CheckpointError(f"{path}: tensor manifest is not a list")
    for entry in header["tensors"]:
        _require_keys(entry, ("name", "shape", "offset", "nbytes"),
                      f"{path}: tensor entry")
        name, shape = entry["name"], entry["shape"]
        start, nbytes = entry["offset"], entry["nbytes"]
        if not (isinstance(name, str) and _is_count(start)
                and _is_count(nbytes)):
            raise CheckpointError(
                f"{path}: tensor entry {name!r} needs a string name and "
                f"non-negative integer offset and nbytes")
        if start + nbytes > len(payload):
            raise CheckpointError(
                f"{path}: tensor {name} overruns the payload")
        if not (isinstance(shape, list) and all(map(_is_count, shape))) \
                or 4 * math.prod(shape) != nbytes:
            raise CheckpointError(
                f"{path}: tensor {name} does not fit shape {shape}")
        arr = np.frombuffer(payload[start:start + nbytes], dtype="<f4")
        arrays[name] = arr.reshape(shape).astype(np.float64)

    model = GatedResNet(spec, np.random.default_rng(0))
    targets = [(f"param/{name}", t.data)
               for name, t in model.named_parameters()]
    targets += [(f"buffer/{name}", arr) for name, arr in model.named_buffers()]
    for key, target in targets:
        if key not in arrays:
            raise CheckpointError(f"{path}: missing tensor {key}")
        if arrays[key].shape != target.shape:
            raise ArchitectureMismatchError(
                f"{path}: tensor {key} has shape {arrays[key].shape}, "
                f"model expects {target.shape}")
        target[...] = arrays[key]

    return model, dict(train_state)
