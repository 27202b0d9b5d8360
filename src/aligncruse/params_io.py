"""Binary parameter container ("ACRS" format).

Layout: magic ``ACRS``, u32 LE format version, u32 LE record count, then per
record: u32 name length, UTF-8 name, u32 dtype code (0 = f32, 1 = f64),
u32 rank, u32 dims, raw little-endian IEEE-754 payload. The first record is
a numeric echo of the model configuration so shapes are validated on load:
arch code, then each channel list as its length and its values, then
``align_proj``, ``d_max`` and ``gru_channels``.

Version 2 dropped the six geometry values from the configuration echo and
the conv biases that feed batch-norm; version-1 files are rejected.
"""

from __future__ import annotations

import math
import os
import struct
from collections import OrderedDict

import numpy as np

from .autodiff import Tensor
from .errors import ConfigurationError, ShapeError
from .model import RUNNING_STATS, ModelConfig, ParamStore, store_shapes

MAGIC = b"ACRS"
VERSION = 2
CONFIG_RECORD = "__config__"
_ARCH_CODES = {"align": 0.0, "cruse": 1.0}
_ARCH_NAMES = {0.0: "align", 1.0: "cruse"}


def _config_vector(cfg: ModelConfig, arch: str) -> np.ndarray:
    vec = [
        _ARCH_CODES[arch],
        len(cfg.mic_channels), *cfg.mic_channels,
        len(cfg.far_channels), *cfg.far_channels,
        len(cfg.dec_channels), *cfg.dec_channels,
        cfg.align_proj, cfg.d_max, cfg.gru_channels,
    ]
    return np.asarray(vec, dtype=np.float64)


def _config_from_vector(vec: np.ndarray, path) -> tuple[ModelConfig, str]:
    it = iter(vec.reshape(-1).tolist())
    arch = _ARCH_NAMES.get(next(it, None))
    if arch is None:
        raise ConfigurationError(f"{path}: unknown architecture code in parameter file")

    def take(n):  # a list, not a generator, so StopIteration reaches the caller
        return tuple([int(next(it)) for _ in range(n)])

    try:
        mic = take(int(next(it)))
        far = take(int(next(it)))
        dec = take(int(next(it)))
        proj, d_max, gru_ch = take(3)
    except StopIteration:
        raise ConfigurationError(f"{path}: configuration record is too short") from None
    if next(it, None) is not None:
        raise ConfigurationError(f"{path}: configuration record is too long")
    cfg = ModelConfig(mic_channels=mic, far_channels=far, dec_channels=dec,
                      align_proj=proj, d_max=d_max, gru_channels=gru_ch)
    return cfg, arch


def write_records(path, records: OrderedDict, dtype: str = "f64") -> None:
    code = {"f32": 0, "f64": 1}[dtype]
    np_dtype = {"f32": "<f4", "f64": "<f8"}[dtype]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(records)))
        for name, arr in records.items():
            raw = name.encode("utf-8")
            arr = np.asarray(arr, dtype=np.float64)
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<II", code, arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(arr.astype(np_dtype).tobytes())


_U32, _U32_PAIR = struct.Struct("<I"), struct.Struct("<II")


def read_records(path) -> OrderedDict:
    """Reads every record. The f64 payloads are read straight into one array
    as large as the file, each record a view of it: a load makes one large
    allocation, and copies each payload once, from the file into the array."""
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ConfigurationError(f"{path}: not a parameter file (bad magic)")
        records: OrderedDict[str, np.ndarray] = OrderedDict()
        try:  # a header cut short makes unpack raise struct.error
            version, count = _U32_PAIR.unpack(fh.read(8))
            if version != VERSION:
                raise ConfigurationError(f"{path}: unsupported format version {version}")
            arena, used = np.empty(os.fstat(fh.fileno()).st_size // 8, dtype="<f8"), 0
            for _ in range(count):
                (name_len,) = _U32.unpack(fh.read(4))
                name = fh.read(name_len).decode("utf-8")
                code, rank = _U32_PAIR.unpack(fh.read(8))
                if code not in (0, 1):
                    raise ConfigurationError(f"{path}: unknown dtype code {code}")
                shape = struct.unpack(f"<{rank}I", fh.read(4 * rank))
                n = math.prod(shape)
                if code == 0:
                    data = np.empty(n, dtype="<f4")
                elif used + n <= arena.size:
                    data, used = arena[used : used + n], used + n
                else:
                    raise ConfigurationError(f"{path}: record {name!r} is truncated")
                got = fh.readinto(data)
                if got != data.nbytes:
                    raise ConfigurationError(
                        f"{path}: record {name!r} is truncated ({got} of {data.nbytes} bytes)")
                records[name] = data.astype(np.float64, copy=False).reshape(shape)
        except struct.error:
            raise ConfigurationError(f"{path}: truncated record header") from None
    return records


def save_params(path, store: ParamStore, extra: dict | None = None, dtype: str = "f64") -> None:
    """Writes the store's tensors (parameters, then batch-norm running
    statistics) and optional extra records (optimizer state, counters) to one
    container."""
    records: OrderedDict[str, np.ndarray] = OrderedDict()
    records[CONFIG_RECORD] = _config_vector(store.cfg, store.arch)
    for name, tensor in store.tensors.items():
        records[name] = tensor.data
    for name, arr in (extra or {}).items():
        records[f"extra.{name}"] = np.asarray(arr, dtype=np.float64)
    write_records(path, records, dtype=dtype)


def load_params(path) -> tuple[ParamStore, dict]:
    """Rebuilds a ParamStore. Every tensor of ``store_shapes`` must be present
    with the shape the configuration echoed in the file gives it, and every
    other record must be an ``extra.`` one."""
    records = read_records(path)
    if CONFIG_RECORD not in records:
        raise ConfigurationError(f"{path}: missing configuration record")
    cfg, arch = _config_from_vector(records.pop(CONFIG_RECORD), path)
    store = ParamStore(cfg, arch)
    for name, shape in store_shapes(cfg, arch).items():
        if name not in records:
            raise ShapeError(f"{path}: missing tensor {name!r}")
        arr = records.pop(name)
        if arr.shape != shape:
            raise ShapeError(f"{path}: tensor {name!r} has shape {arr.shape}, expected {shape}")
        store.tensors[name] = Tensor(arr, requires_grad=not name.endswith(RUNNING_STATS))
    stray = [k for k in records if not k.startswith("extra.")]
    if stray:
        raise ConfigurationError(f"{path}: unexpected records {stray}")
    extra = {k[len("extra."):]: v for k, v in records.items()}
    return store, extra
