"""Property tests on the two loaders that read files from outside the
program: every malformed input must raise the loader's own error type and
make the command line exit with the data-error code, never a traceback.
A malformed synthetic dataset section or train section must raise
ConfigError (exit 1)."""

import dataclasses
import json
import struct

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from resizenet.cli import (  # noqa: E402
    EXIT_DATA,
    ConfigError,
    load_dataset_spec,
    main,
    parse_train_config,
)
from resizenet.data import (  # noqa: E402
    CheckpointError,
    DatasetFormatError,
    load_checkpoint,
    load_cifar_binary,
    save_checkpoint,
)
from resizenet.model import GatedResNet, ModelSpec  # noqa: E402
from resizenet.training import TrainConfig  # noqa: E402

# fixed example sequence, no example database: tier-1 stays deterministic
FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=40)

# a small alphabet spares building Hypothesis's unicode tables (≈2 s)
TEXT = st.text("ab0/.", max_size=4)


def json_values(*scalars):
    return st.recursive(
        st.one_of(st.none(), st.booleans(), *scalars),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(TEXT, inner, max_size=3),
        max_leaves=6)


# Python's json reads and writes NaN and Infinity, so the floats include
# them; a bare float leads the section strategies because the recursive
# ones draw few top-level numbers
FLOATS = st.floats()
JSON_VALUES = json_values(st.integers(), TEXT, FLOATS)
# a size key's numbers stay small, so no draw allocates much memory
SIZE_VALUES = json_values(st.integers(-2, 16), TEXT)
SIZE_KEYS = ("m", "val_m", "classes", "image_size")
SECTION_VALUES = FLOATS | JSON_VALUES
TRAIN_VALUES = FLOATS | json_values(st.integers(-2, 16), TEXT, FLOATS)
# every train key, and the numbers of the nested sections
TRAIN_KEYS = (*(f.name for f in dataclasses.fields(TrainConfig)),
              "optimizer.momentum", "optimizer.weight_decay",
              "scale_fixed.scale", "scale_fixed.sigma",
              "scale_fixed.anneal_epochs")

DATASET = {"kind": "synthetic", "m": 8, "val_m": 8, "classes": 3,
           "image_size": 8, "seed": 0}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    spec = ModelSpec(stage_blocks=(1, 1), channels=(4, 6), num_classes=3)
    save_checkpoint(d / "good.ckpt", GatedResNet(spec,
                                                 np.random.default_rng(0)))
    (d / "data.json").write_text(json.dumps(DATASET))
    return d


def _leaves(value) -> list:
    """The scalars inside nested dicts, lists and tuples."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def _split(blob: bytes) -> tuple[dict, bytes]:
    (n,) = struct.unpack("<Q", blob[:8])
    return json.loads(blob[8:8 + n]), blob[8 + n:]


def _join(header, rest: bytes) -> bytes:
    raw = json.dumps(header).encode()
    return struct.pack("<Q", len(raw)) + raw + rest


def _write(workdir, blob: bytes):
    path = workdir / "fuzzed.bin"
    path.write_bytes(blob)
    return path


def _loads(workdir, blob: bytes) -> bool:
    """True when the bytes load; otherwise the loader must have raised
    CheckpointError and ``eval`` must exit with code 2."""
    path = _write(workdir, blob)
    try:
        load_checkpoint(path)
    except CheckpointError:
        code = main(["eval", "--checkpoint", str(path),
                     "--dataset", str(workdir / "data.json"),
                     "--grid", "0.5", "--out", str(workdir / "eval")])
        assert code == EXIT_DATA
        return False
    return True


class TestCheckpointFuzz:
    @FUZZ
    @given(data=st.data())
    def test_truncation(self, workdir, data):
        blob = (workdir / "good.ckpt").read_bytes()
        n = data.draw(st.integers(0, len(blob) - 1))
        assert not _loads(workdir, blob[:n])

    @FUZZ
    @given(data=st.data())
    def test_header_bit_flip(self, workdir, data):
        blob = bytearray((workdir / "good.ckpt").read_bytes())
        (n,) = struct.unpack("<Q", blob[:8])
        pos = data.draw(st.integers(0, 8 + n - 1))
        blob[pos] ^= 1 << data.draw(st.integers(0, 7))
        _loads(workdir, bytes(blob))

    @FUZZ
    @given(key=st.sampled_from(["format_version", "model", "tensors",
                                "payload_nbytes", "crc32", "train_state"]),
           value=JSON_VALUES)
    def test_header_field_value(self, workdir, key, value):
        header, rest = _split((workdir / "good.ckpt").read_bytes())
        header[key] = value
        _loads(workdir, _join(header, rest))

    @FUZZ
    @given(data=st.data(),
           key=st.sampled_from(["name", "shape", "offset", "nbytes"]),
           value=JSON_VALUES)
    def test_tensor_entry_value(self, workdir, data, key, value):
        header, rest = _split((workdir / "good.ckpt").read_bytes())
        i = data.draw(st.integers(0, len(header["tensors"]) - 1))
        header["tensors"][i][key] = value
        _loads(workdir, _join(header, rest))


class TestCifarBinaryFuzz:
    @FUZZ
    @given(record_format=st.sampled_from(["cifar10", "cifar100"]),
           n_records=st.integers(0, 3), extra=st.integers(-3, 3),
           labels=st.lists(st.integers(0, 255), min_size=6, max_size=6))
    def test_length_and_labels(self, workdir, record_format, n_records,
                               extra, labels):
        label_bytes = 1 if record_format == "cifar10" else 2
        record = label_bytes + 3072
        num_classes = 10 if record_format == "cifar10" else 100
        blob = bytearray(max(0, n_records * record + extra))
        for r in range(n_records):
            for j in range(label_bytes):
                if r * record + j < len(blob):
                    blob[r * record + j] = labels[2 * r + j]
        path = _write(workdir, bytes(blob))
        try:
            ds = load_cifar_binary(path, record_format=record_format)
        except DatasetFormatError:
            spec = {"kind": record_format, "test_path": str(path)}
            code = main(["eval", "--checkpoint",
                         str(workdir / "good.ckpt"),
                         "--dataset", json.dumps(spec), "--grid", "0.5",
                         "--out", str(workdir / "eval")])
            assert code == EXIT_DATA
        else:
            assert len(blob) == len(ds) * record > 0
            assert ds.labels.max() < ds.num_classes == num_classes


class TestSyntheticSectionFuzz:
    @pytest.mark.parametrize("key", [*SIZE_KEYS, "seed", "noise_sigma"])
    @FUZZ
    @given(data=st.data())
    def test_one_key_value(self, data, key):
        value = data.draw(SIZE_VALUES if key in SIZE_KEYS
                          else SECTION_VALUES)
        for split in ("train", "val"):
            try:
                ds = load_dataset_spec({**DATASET, key: value}, split)
            except ConfigError:
                continue
            assert ds.images.size > 0 and np.isfinite(ds.images).all()


class TestTrainSectionFuzz:
    @pytest.mark.parametrize("key", TRAIN_KEYS)
    @FUZZ
    @given(value=TRAIN_VALUES)
    def test_one_key_value(self, key, value):
        outer, _, inner = key.partition(".")
        if outer == "scale_fixed":
            section = {"scale_range": None,
                       "scale_fixed": {"scale": 0.5, inner: value}}
        elif outer == "optimizer":
            section = {"optimizer": {"kind": "sgd", inner: value}}
        else:
            section = {key: value}
        try:
            cfg = parse_train_config(section)
        except ConfigError:
            return
        # a setting that passes holds finite numbers only, and no bool
        json.dumps(dataclasses.asdict(cfg), allow_nan=False)
        assert not any(isinstance(leaf, bool)
                       for leaf in _leaves(dataclasses.asdict(cfg)))
