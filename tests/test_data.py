"""Dataset ingestion and checkpoint persistence tests."""

import json
import pathlib
import struct

import numpy as np
import pytest

from resizenet.cli import EXIT_DATA, main
from resizenet.data import (
    CheckpointError,
    Dataset,
    augment_batch,
    load_cifar_binary,
    load_checkpoint,
    make_synthetic,
    save_checkpoint,
)
from resizenet.data import DatasetFormatError
from resizenet.metrics import evaluate
from resizenet.model import GatedResNet, ModelSpec


def nearest_template_accuracy(dataset: Dataset) -> float:
    """Oracle for the synthetic task: classify by closest class template."""
    templates = dataset.meta["templates"]
    k = templates.shape[0]
    flat = dataset.images.reshape(len(dataset), -1)
    tflat = templates.reshape(k, -1)
    d2 = ((flat[:, None, :] - tflat[None, :, :]) ** 2).sum(axis=2)
    return float((np.argmin(d2, axis=1) == dataset.labels).mean())


class TestMakeSynthetic:
    def test_shapes_and_label_range(self):
        ds = make_synthetic(100, 5, 8, seed=0)
        assert ds.images.shape == (100, 3, 8, 8)
        assert ds.labels.shape == (100,)
        assert ds.labels.min() >= 0 and ds.labels.max() < 5
        assert ds.num_classes == 5

    def test_deterministic_under_seed(self):
        a = make_synthetic(64, 4, 8, seed=42)
        b = make_synthetic(64, 4, 8, seed=42)
        assert a.images.tobytes() == b.images.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = make_synthetic(64, 4, 8, seed=1)
        b = make_synthetic(64, 4, 8, seed=2)
        assert not np.array_equal(a.images, b.images)

    def test_noiseless_oracle_is_perfect(self):
        ds = make_synthetic(128, 4, 8, seed=3, noise_sigma=0.0)
        assert nearest_template_accuracy(ds) == 1.0

    def test_default_oracle_accuracy_in_band(self):
        ds = make_synthetic(2048, 4, 8, seed=4)
        acc = nearest_template_accuracy(ds)
        assert 0.70 <= acc <= 0.99

    def test_too_few_classes_rejected(self):
        with pytest.raises(ValueError, match="classes"):
            make_synthetic(10, 1, 8, seed=0)

    @pytest.mark.parametrize("kwargs,error", [
        ({"m": 0}, ValueError),
        ({"split": "test"}, ValueError),
        ({"seed": None}, TypeError),  # None would draw an unseeded task
        # the template scale is a module constant, not a parameter
        ({"template_scale": [[[[[0.1]]]]]}, TypeError),
        ({"noise_sigma": 1e308}, FloatingPointError),
    ], ids=["m_zero", "split_test", "seed_none", "template_scale_nested",
            "noise_overflow"])
    def test_malformed_argument_rejected(self, kwargs, error):
        with pytest.raises(error):
            make_synthetic(**{"m": 64, "seed": 5, **kwargs})


# the per-channel statistics the cifar loader normalizes by
CIFAR_MEANS = np.array([0.4914, 0.4822, 0.4465])
CIFAR_STDS = np.array([0.2470, 0.2435, 0.2616])


class TestCifarBinary:
    def _record(self, label, fill):
        return bytes([label]) + bytes([fill] * 3072)

    def test_single_record(self, tmp_path):
        path = tmp_path / "one.bin"
        path.write_bytes(self._record(7, 128))
        ds = load_cifar_binary(path)
        assert len(ds) == 1
        assert ds.labels[0] == 7
        assert ds.images.shape == (1, 3, 32, 32)

    def test_truncated_file_names_record_size(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(self._record(1, 0)[:3072])
        with pytest.raises(DatasetFormatError, match="3073"):
            load_cifar_binary(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "label.bin"
        path.write_bytes(self._record(12, 0))
        with pytest.raises(DatasetFormatError, match="label"):
            load_cifar_binary(path)

    def test_normalization_arithmetic(self, tmp_path):
        # a white pixel is (1 - mean) / std under the fixed statistics
        path = tmp_path / "norm.bin"
        path.write_bytes(self._record(0, 255))
        ds = load_cifar_binary(path)
        white = (1 - CIFAR_MEANS) / CIFAR_STDS
        np.testing.assert_allclose(
            ds.images, np.broadcast_to(white[None, :, None, None],
                                       ds.images.shape))

    def test_plane_order_is_rgb(self, tmp_path):
        # red plane bright, green and blue dark
        body = bytes([250] * 1024) + bytes([0] * 2048)
        path = tmp_path / "rgb.bin"
        path.write_bytes(bytes([3]) + body)
        ds = load_cifar_binary(path)
        red = (250 / 255 - CIFAR_MEANS[0]) / CIFAR_STDS[0]
        green = -CIFAR_MEANS[1] / CIFAR_STDS[1]
        assert ds.images[0, 0].min() == pytest.approx(red)
        assert ds.images[0, 1].max() == pytest.approx(green)

    def test_coarse_fine_variant(self, tmp_path):
        path = tmp_path / "c100.bin"
        path.write_bytes(bytes([5, 42]) + bytes([0] * 3072))
        ds = load_cifar_binary(path, record_format="cifar100")
        assert ds.labels[0] == 42
        assert ds.num_classes == 100

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "many.bin"
        path.write_bytes(b"".join(self._record(i, i) for i in range(5)))
        ds = load_cifar_binary(path)
        np.testing.assert_array_equal(ds.labels, np.arange(5))


class TestAugmentBatch:
    def test_shape_preserved_and_deterministic(self):
        rng = np.random.default_rng(0)
        images = np.random.default_rng(1).standard_normal((6, 3, 8, 8))
        out = augment_batch(images, np.random.default_rng(2))
        assert out.shape == images.shape
        again = augment_batch(images, np.random.default_rng(2))
        np.testing.assert_array_equal(out, again)

    def test_values_come_from_padded_source(self):
        images = np.ones((2, 3, 8, 8))
        out = augment_batch(images, np.random.default_rng(3))
        assert set(np.unique(out)) <= {0.0, 1.0}


def _edit_header(path, edit):
    """Apply ``edit`` to a checkpoint's parsed header and write it back."""
    blob = path.read_bytes()
    (n,) = struct.unpack("<Q", blob[:8])
    header = json.loads(blob[8:8 + n])
    edit(header)
    raw = json.dumps(header).encode()
    path.write_bytes(struct.pack("<Q", len(raw)) + raw + blob[8 + n:])


def _swap_offsets(header, a="param/stem.bn.gamma", b="param/stem.bn.beta"):
    """Swap the offsets of two same-size entries, so each reads the other's
    bytes."""
    ea, eb = (next(e for e in header["tensors"] if e["name"] == n)
              for n in (a, b))
    ea["offset"], eb["offset"] = eb["offset"], ea["offset"]


# written by the format-1 saver from GatedResNet(ModelSpec((1, 1), (4, 6),
# num_classes=3), default_rng(0)) with its batch-norm running statistics
# drawn from U(0.5, 1.5) by default_rng(1), and train_state {"epoch": 1}
FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "v1_small.ckpt"


class TestCheckpoint:
    SPEC = ModelSpec(stage_blocks=(2, 2), channels=(8, 16), num_classes=4)

    def _model(self, seed=0):
        return GatedResNet(self.SPEC, np.random.default_rng(seed))

    def test_roundtrip_within_float32_rounding(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        loaded, state = load_checkpoint(path)
        assert state == {}
        for (name, a), (_, b) in zip(model.named_parameters(),
                                     loaded.named_parameters()):
            expect = a.data.astype(np.float32).astype(np.float64)
            np.testing.assert_array_equal(b.data, expect, err_msg=name)

    def test_buffers_roundtrip(self, tmp_path):
        model = self._model()
        model.stem.running_mean[...] = [1, 2, 3, 4, 5, 6, 7, 8]
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.stem.running_mean,
                                      np.arange(1.0, 9.0))

    def test_evaluation_identical_after_roundtrip(self, tmp_path):
        model = self._model(seed=5)
        ds = make_synthetic(64, 4, 8, seed=6)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        a = evaluate(model, ds, 0.7)
        b = evaluate(loaded, ds, 0.7)
        assert a.accuracy == b.accuracy
        assert a.stats.usage_mean == b.stats.usage_mean

    def test_corrupt_payload_byte_fails_checksum(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        blob = bytearray(path.read_bytes())
        blob[-100] ^= 0xFF  # inside the payload, ahead of the crc trailer
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="CRC32"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        blob = path.read_bytes()
        patched = blob.replace(b'"format_version": 1', b'"format_version": 9')
        path.write_bytes(patched)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_architecture_mismatch_names_block_counts(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        other = ModelSpec(stage_blocks=(3, 3), channels=(8, 16),
                          num_classes=4)
        with pytest.raises(CheckpointError, match="4.*6|6.*4"):
            load_checkpoint(path, expected_spec=other)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(CheckpointError, match="short"):
            load_checkpoint(path)

    def test_undecodable_header_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self._model())
        blob = bytearray(path.read_bytes())
        blob[9] = 0xFF  # first byte after the header's opening brace
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["payload_nbytes", "crc32", "model",
                                     "tensors"])
    def test_missing_header_key_is_checkpoint_error(self, tmp_path, key):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self._model())
        _edit_header(path, lambda h: h.pop(key))
        with pytest.raises(CheckpointError, match=f"lacks {key}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["name", "shape", "offset", "nbytes"])
    def test_missing_tensor_entry_key_is_checkpoint_error(self, tmp_path,
                                                          key):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self._model())
        _edit_header(path, lambda h: h["tensors"][0].pop(key))
        with pytest.raises(CheckpointError, match="tensor table entry 0"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,match", [
        (lambda h: h["model"].pop("stage_blocks"), "model description"),
        (lambda h: h.update(tensors=5), "tensor table entry 0"),
        (lambda h: h["tensors"][0].update(shape=[2, 2]),
         "tensor table entry 0"),
        (lambda h: h.update(train_state=5), "train_state"),
        (lambda h: h["tensors"][0].update(offset="0"),
         "tensor table entry 0"),
        (lambda h: h["tensors"][0].update(nbytes=-4), "tensor table entry 0"),
        (lambda h: h["tensors"][0].update(name=["x"]), "tensor table entry 0"),
        (lambda h: h["model"].update(stage_blocks=[1.5, 1]),
         "stage_blocks"),
        (lambda h: h["model"].update(channels=[0, 8]), "channels"),
        (lambda h: h["model"].update(reduction=0), "reduction"),
        (lambda h: next(e for e in h["tensors"]
                        if e["name"] == "buffer/stem.bn.mean"
                        ).update(shape=[2, 4]), "tensor table entry"),
    ], ids=["model_key", "manifest_type", "shape", "train_state",
            "offset_string", "nbytes_negative", "name_list",
            "stage_blocks_float", "channels_zero", "reduction_zero",
            "buffer_shape"])
    def test_malformed_header_value_is_checkpoint_error(self, tmp_path,
                                                        edit, match):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self._model())
        _edit_header(path, edit)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h["tensors"][1].update(offset=h["tensors"][1]["offset"] + 4),
        _swap_offsets,
        lambda h: h["tensors"].append({"name": "param/extra", "shape": [1],
                                       "offset": 0, "nbytes": 4}),
    ], ids=["offset_plus_4", "swapped_offsets", "extra_entry"])
    def test_table_that_misreads_the_payload_is_refused(self, tmp_path,
                                                        edit):
        # each edit keeps every entry in range, so only a comparison with
        # the model's own table can see it
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self._model())
        _edit_header(path, edit)
        with pytest.raises(CheckpointError, match="tensor table"):
            load_checkpoint(path)
        dataset = tmp_path / "data.json"
        dataset.write_text(json.dumps({"kind": "synthetic", "m": 8,
                                       "classes": 4}))
        assert main(["eval", "--checkpoint", str(path), "--dataset",
                     str(dataset), "--grid", "0.5",
                     "--out", str(tmp_path / "e")]) == EXIT_DATA

    @pytest.mark.parametrize("model", [
        {"channels": [400, 16]},
        {"stage_blocks": [10 ** 12, 2]},
    ], ids=["channels_400", "stage_blocks_1e12"])
    def test_spec_too_large_for_payload_is_refused_before_building(
            self, tmp_path, monkeypatch, model):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self._model())
        _edit_header(path, lambda h: h["model"].update(model))

        def refuse(*args):
            raise AssertionError("model built from an oversized spec")
        monkeypatch.setattr("resizenet.data.GatedResNet", refuse)
        with pytest.raises(CheckpointError, match="more weights than"):
            load_checkpoint(path)

    def test_format_1_fixture_loads_and_saves_byte_identical(self, tmp_path):
        blob = FIXTURE.read_bytes()
        (n,) = struct.unpack("<Q", blob[:8])
        values = np.frombuffer(blob[8 + n:-4], dtype="<f4")
        model, state = load_checkpoint(FIXTURE)
        assert state == {"epoch": 1}
        arrays = [t.data for _, t in model.named_parameters()]
        arrays += [arr for _, arr in model.named_buffers()]
        np.testing.assert_array_equal(
            np.concatenate([a.ravel() for a in arrays]), values)
        save_checkpoint(tmp_path / "again.ckpt", model, train_state=state)
        assert (tmp_path / "again.ckpt").read_bytes() == blob

    def test_fixture_is_rebuilt_from_its_recipe(self, tmp_path):
        # the recipe in FIXTURE's comment; pins the order in which
        # GatedResNet draws its initial parameters
        model = GatedResNet(ModelSpec((1, 1), (4, 6), num_classes=3),
                            np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for _, arr in model.named_buffers():
            arr[...] = rng.uniform(0.5, 1.5, arr.shape)
        path = tmp_path / "rebuilt.ckpt"
        save_checkpoint(path, model, train_state={"epoch": 1})
        assert path.read_bytes() == FIXTURE.read_bytes()

    def test_oversized_integer_in_header_is_checkpoint_error(self,
                                                             tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self._model())
        blob = path.read_bytes()
        (n,) = struct.unpack("<Q", blob[:8])
        raw = blob[8:8 + n].replace(b'"num_classes": 4',
                                    b'"num_classes": ' + b"9" * 5000)
        path.write_bytes(struct.pack("<Q", len(raw)) + raw + blob[8 + n:])
        with pytest.raises(CheckpointError, match="unreadable header"):
            load_checkpoint(path)

    def test_deeply_nested_header_is_checkpoint_error(self, tmp_path):
        raw = b"[" * 100_000 + b"]" * 100_000
        path = tmp_path / "deep.ckpt"
        path.write_bytes(struct.pack("<Q", len(raw)) + raw + bytes(4))
        with pytest.raises(CheckpointError, match="unreadable header"):
            load_checkpoint(path)

    def test_header_with_gate_train_prob_still_loads(self, tmp_path):
        # checkpoints written before the key was dropped carry it
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self._model())
        _edit_header(path, lambda h: h["model"].update(gate_train_prob=0.7))
        loaded, _ = load_checkpoint(path, expected_spec=self.SPEC)
        assert loaded.spec == self.SPEC

    def test_train_state_roundtrip(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, train_state={"epoch": 3})
        _, state = load_checkpoint(path)
        assert state == {"epoch": 3}


class TestDataset:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sample count"):
            Dataset(images=np.zeros((3, 3, 8, 8)),
                    labels=np.zeros(2, dtype=int), split="train")
