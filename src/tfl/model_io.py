"""Versioned binary model files.

Layout (all integers little-endian uint32 unless noted):

    magic           4 bytes  b"TFL1"
    format version  u32      currently 1
    header length   u32
    header          UTF-8 JSON, canonical form (sorted keys, no spaces):
                    {"config": {...}, "scaler": {...}|null, "provenance": {...}}
    block count     u32
    per block:      name length u32, name UTF-8,
                    ndim u32, dims u32 x ndim,
                    data float64 little-endian, row-major

Blocks follow ``network.PARAMS``.  Each stacked LSTM array is stored as
one block per gate, in ``GATES`` order (``enc.wf`` ... ``dec.bo``), then
``out.w`` and ``out.b``; the split exists only in the file, and every
block's shape follows from ``network.param_shapes``.  Canonical JSON plus
fixed block order makes load -> save byte-identical.
Transferred models carry the SHA-256 of their parent file in provenance.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .dataset import ScalerParams
from .network import GATES, PARAMS, ModelConfig, Seq2SeqModel, param_shapes

MAGIC = b"TFL1"
VERSION = 1
HEADER_KEYS = {"config", "scaler", "provenance"}


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_model(model: Seq2SeqModel, scaler: ScalerParams | None, provenance: dict, path) -> None:
    """Write the model losslessly (64-bit weights) with config and provenance."""
    header = {
        "config": dataclasses.asdict(model.config),
        "scaler": None if scaler is None else dataclasses.asdict(scaler),
        "provenance": provenance,
    }
    blob = _canonical_json(header)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        items = []
        for param in PARAMS:
            names = _block_names(param)
            items += zip(names, np.split(model.params[param], len(names)))
        fh.write(struct.pack("<I", len(items)))
        for name, arr in items:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, n: int, path, what: str) -> bytes:
    # a length field that runs past the end of the file is truncation; it is
    # checked before reading so a corrupt length never becomes an allocation
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"{path}: truncated model file while reading {what}")
    return fh.read(n)


_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,)}


def _from_header(cls, blob, path, what: str):
    """Build a header dataclass from a JSON object holding exactly its fields."""
    types = {f.name: _JSON_TYPES[f.type] for f in dataclasses.fields(cls)}
    if not isinstance(blob, dict) or set(blob) != set(types):
        raise ValueError(f"{path}: header '{what}' must be an object with keys {sorted(types)}")
    for name, value in blob.items():
        if type(value) not in types[name]:
            raise ValueError(f"{path}: header '{what}.{name}' has type {type(value).__name__}")
    return cls(**blob)


def _block_names(param: str) -> list[str]:
    """File block names of one in-memory parameter: a stacked LSTM array
    splits into ``GATES``-ordered gate blocks, the output layer stays whole."""
    return [param] if param.startswith("out.") else [param + g for g in GATES]


def _block_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every weight block the config implies: each of a
    parameter's blocks holds an equal share of its rows."""
    shapes = {}
    for param, (rows, *cols) in param_shapes(config).items():
        names = _block_names(param)
        shapes.update({name: (rows // len(names), *cols) for name in names})
    return shapes


def load_model(path) -> tuple[Seq2SeqModel, ScalerParams | None, dict]:
    """Read a model file back; rejects bad magic, any other version, truncation,
    malformed headers, and weight blocks whose name or shape contradicts the
    stored config (checked before the block's data is read)."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, path, "magic")
        if magic != MAGIC:
            raise ValueError(f"{path}: not a model file (magic {magic!r}, expected {MAGIC!r})")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path, "version"))
        if version != VERSION:
            raise ValueError(
                f"{path}: unsupported format version {version} (this build reads {VERSION})"
            )
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4, path, "header length"))
        blob = _read_exact(fh, hlen, path, "header")
        try:
            header = json.loads(blob)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
            raise ValueError(f"{path}: corrupt header: {exc}") from exc
        if not isinstance(header, dict):
            raise ValueError(f"{path}: header is not a JSON object")
        config = _from_header(ModelConfig, header.get("config"), path, "config")
        provenance = header.get("provenance")
        if not isinstance(provenance, dict):
            raise ValueError(f"{path}: header 'provenance' must be a JSON object")
        if set(header) != HEADER_KEYS:
            raise ValueError(
                f"{path}: header must hold exactly the keys {sorted(HEADER_KEYS)}, "
                f"missing or unknown: {sorted(set(header) ^ HEADER_KEYS)}"
            )
        scaler_blob = header["scaler"]
        scaler = None if scaler_blob is None else _from_header(ScalerParams, scaler_blob, path, "scaler")

        expected = _block_shapes(config)
        (n_blocks,) = struct.unpack("<I", _read_exact(fh, 4, path, "block count"))
        blocks: dict[str, np.ndarray] = {}
        for _ in range(n_blocks):
            (nlen,) = struct.unpack("<I", _read_exact(fh, 4, path, "block name length"))
            raw_name = _read_exact(fh, nlen, path, "block name")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: block name is not UTF-8: {raw_name!r}") from exc
            if name not in expected or name in blocks:
                raise ValueError(f"{path}: unexpected or repeated weight block {name!r}")
            shape = expected[name]
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4, path, "block ndim"))
            if ndim != len(shape):
                raise ValueError(f"{path}: block {name!r} has {ndim} dims, config implies {shape}")
            dims = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, path, "block dims"))
            if dims != shape:
                raise ValueError(
                    f"{path}: block {name!r} has shape {dims}, config implies {shape}"
                )
            raw = _read_exact(fh, 8 * math.prod(shape), path, f"block {name!r} data")
            blocks[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after last weight block")
    missing = sorted(set(expected) - set(blocks))
    if missing:
        raise ValueError(f"{path}: weight blocks {missing} missing")
    return _assemble(config, blocks), scaler, provenance


def _assemble(config: ModelConfig, blocks: dict[str, np.ndarray]) -> Seq2SeqModel:
    """Join the per-gate blocks of the file into the in-memory layout."""
    params = {param: np.concatenate([blocks[name] for name in _block_names(param)])
              for param in PARAMS}
    return Seq2SeqModel(config=config, params=params)
