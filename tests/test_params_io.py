import struct

import numpy as np
import pytest

from aligncruse.errors import ConfigurationError, ShapeError
from aligncruse.model import BN_LAYERS, ModelConfig, init_params, param_shapes
from aligncruse.params_io import (
    CONFIG_RECORD,
    load_params,
    read_records,
    save_params,
    write_records,
)
from aligncruse.train import LossConfig, OptimConfig, train_loop

TINY = ModelConfig.tiny()


def test_round_trip_exact(tmp_path):
    store = init_params(TINY, seed=4)
    store["mic1.bn.running_mean"].data[:] = np.random.default_rng(0).standard_normal(4)
    path = tmp_path / "m.acrs"
    save_params(path, store)
    back, extra = load_params(path)
    assert extra == {}
    assert back.arch == "align"
    assert back.cfg == TINY
    for name, t in store.tensors.items():
        assert np.array_equal(back[name].data, t.data)
        assert back[name].requires_grad == t.requires_grad


def test_round_trip_cruse_and_extra(tmp_path):
    store = init_params(TINY, seed=5, arch="cruse")
    extra = {"opt.step": np.array([7.0]), "opt.m.gru.wih": np.ones((3, 2))}
    path = tmp_path / "c.acrs"
    save_params(path, store, extra=extra)
    back, got = load_params(path)
    assert back.arch == "cruse"
    assert "align.wq" not in back.tensors
    assert set(got) == set(extra)
    np.testing.assert_array_equal(got["opt.m.gru.wih"], extra["opt.m.gru.wih"])


def test_f32_round_trip_close(tmp_path):
    store = init_params(TINY, seed=6)
    path = tmp_path / "f32.acrs"
    save_params(path, store, dtype="f32")
    back, _ = load_params(path)
    for name, t in store.tensors.items():
        np.testing.assert_allclose(back[name].data, t.data, atol=1e-6)


def test_f64_records_share_one_allocation(tmp_path):
    """A load allocates its f64 payloads as one array, so the heap layout a
    load leaves does not depend on the record list."""
    path = tmp_path / "m.acrs"
    save_params(path, init_params(TINY, seed=14))
    records = read_records(path)
    assert len({id(arr.base) for arr in records.values()}) == 1
    assert all(arr.base is not None and arr.flags.writeable for arr in records.values())


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.acrs"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ConfigurationError):
        load_params(path)


def test_bad_version(tmp_path):
    path = tmp_path / "v9.acrs"
    path.write_bytes(b"ACRS" + struct.pack("<II", 9, 0))
    with pytest.raises(ConfigurationError):
        load_params(path)


def test_version_1_rejected(tmp_path):
    """A version-1 file (conv biases and geometry in its configuration echo)
    is refused by load_params and by a training resume."""
    path = tmp_path / "v1.acrs"
    save_params(path, init_params(TINY, seed=11), extra={"epoch": np.array([0.0])})
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigurationError, match="version 1"):
        load_params(path)
    store = init_params(TINY, seed=11)
    with pytest.raises(ConfigurationError, match="version 1"):
        train_loop(lambda epoch: [], store, OptimConfig(batch=1, epochs=1), LossConfig(),
                   resume_from=path)


@pytest.mark.parametrize("arch", ["align", "cruse"])
def test_version_2_round_trip(tmp_path, arch):
    store = init_params(TINY, seed=12, arch=arch)
    for layer in BN_LAYERS:
        store[f"{layer}.bn.running_mean"].data = np.full(store[f"{layer}.bn.gamma"].shape, 0.25)
    path = tmp_path / "v2.acrs"
    save_params(path, store)
    assert path.read_bytes()[:8] == b"ACRS" + struct.pack("<I", 2)
    records = read_records(path)
    stats_names = [f"{layer}.bn.running_{s}" for layer in BN_LAYERS for s in ("mean", "var")]
    assert list(records) == [CONFIG_RECORD, *param_shapes(TINY, arch), *stats_names]
    back, extra = load_params(path)
    assert (back.cfg, back.arch, extra) == (TINY, arch, {})
    assert list(back.tensors) == list(store.tensors)
    assert [n for n, _ in back.trainable()] == list(param_shapes(TINY, arch))
    for name, t in store.tensors.items():
        assert np.array_equal(back[name].data, t.data), name


@pytest.mark.parametrize("edit", ["empty", "short", "long"])
def test_malformed_config_record_rejected(tmp_path, edit):
    path = tmp_path / "m.acrs"
    save_params(path, init_params(TINY, seed=13))
    records = read_records(path)
    vec = records[CONFIG_RECORD]
    records[CONFIG_RECORD] = {"empty": vec[:0], "short": vec[:5],
                              "long": np.append(vec, [4.0, 3.0])}[edit]
    write_records(path, records)
    with pytest.raises(ConfigurationError):
        load_params(path)


def test_shape_validation_on_load(tmp_path):
    store = init_params(TINY, seed=7)
    path = tmp_path / "m.acrs"
    save_params(path, store)
    records = read_records(path)
    records["gru.whh"] = records["gru.whh"][:, :-1]  # corrupt one shape
    write_records(path, records)
    with pytest.raises(ShapeError):
        load_params(path)


def test_missing_tensor_rejected(tmp_path):
    store = init_params(TINY, seed=8)
    path = tmp_path / "m.acrs"
    save_params(path, store)
    records = read_records(path)
    del records["mask.gain"]
    write_records(path, records)
    with pytest.raises(ShapeError):
        load_params(path)


def test_missing_running_stat_rejected(tmp_path):
    """A file without one layer's running variance does not load with
    identity statistics in its place."""
    path = tmp_path / "m.acrs"
    save_params(path, init_params(TINY, seed=8))
    records = read_records(path)
    del records["enc3.bn.running_var"]
    write_records(path, records)
    with pytest.raises(ShapeError, match="enc3.bn.running_var"):
        load_params(path)


@pytest.mark.parametrize("stray", ["mic1.b", "adam.step"])
def test_stray_record_rejected(tmp_path, stray):
    """A record that is neither expected nor ``extra.`` (here a version-1
    conv bias, or optimizer state saved without its prefix) is an error,
    not dropped."""
    path = tmp_path / "m.acrs"
    save_params(path, init_params(TINY, seed=8), extra={"epoch": np.array([0.0])})
    records = read_records(path)
    records[stray] = np.zeros(4)
    write_records(path, records)
    with pytest.raises(ConfigurationError, match=stray):
        load_params(path)


def test_save_is_deterministic(tmp_path):
    store = init_params(TINY, seed=9)
    p1, p2 = tmp_path / "a.acrs", tmp_path / "b.acrs"
    save_params(p1, store)
    save_params(p2, store)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_payload_rejected(tmp_path):
    store = init_params(TINY, seed=10)
    path = tmp_path / "m.acrs"
    save_params(path, store)
    raw = path.read_bytes()
    # cut inside the payload of the largest tensor, so its header is intact
    start = raw.index(b"gru.wih") + len(b"gru.wih") + 4 * 4
    path.write_bytes(raw[: start + 8 * 100 + 3])
    with pytest.raises(ConfigurationError, match="truncated"):
        read_records(path)
    with pytest.raises(ConfigurationError):
        load_params(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "m.acrs"
    save_params(path, init_params(TINY, seed=10))
    raw = path.read_bytes()
    name_end = raw.index(b"gru.wih") + len(b"gru.wih")
    # inside the record count, a name length, a dtype code and a shape
    for cut in (6, 14, name_end + 6, name_end + 10):
        path.write_bytes(raw[:cut])
        with pytest.raises(ConfigurationError, match="truncated record header"):
            read_records(path)
