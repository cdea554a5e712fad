import json
import math
import struct

import numpy as np
import numpy.testing as npt
import pytest

from tfl import model_io as mio
from tfl import network as net
from tfl.cli import main
from tfl.dataset import ScalerParams
from tfl.numeric import Rng


def make_model(attention=False, seed=5):
    cfg = net.ModelConfig(n_past=6, n_future=3, hidden=4, attention=attention)
    return net.init(cfg, Rng(seed))


PROV = {"seed": 42, "epochs": 10, "parent_sha256": None}
FLOAT32_MAX = float(np.finfo(np.float32).max)


def with_header(raw: bytes, edit) -> bytes:
    """The model file ``raw`` with its JSON header replaced by edit(header)."""
    (hlen,) = struct.unpack("<I", raw[8:12])
    blob = json.dumps(edit(json.loads(raw[12 : 12 + hlen]))).encode()
    return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen:]


def with_first_dims(raw: bytes, dims: tuple[int, int]) -> bytes:
    """The model file ``raw`` with the first weight block's 2-D dims replaced."""
    (hlen,) = struct.unpack("<I", raw[8:12])
    at = 12 + hlen + 4                                  # past the block count
    (nlen,) = struct.unpack("<I", raw[at : at + 4])
    at += 4 + nlen + 4                                  # past name and ndim
    return raw[:at] + struct.pack("<2I", *dims) + raw[at + 8:]


def with_first_name(raw: bytes, name: bytes) -> bytes:
    """The model file ``raw`` with the first weight block's name replaced."""
    (hlen,) = struct.unpack("<I", raw[8:12])
    at = 12 + hlen + 4                                  # past the block count
    (nlen,) = struct.unpack("<I", raw[at : at + 4])
    return raw[:at] + struct.pack("<I", len(name)) + name + raw[at + 4 + nlen:]


# each malformed file, built from a valid one, and the message it must give
MALFORMED = {
    "unknown_config_key": (lambda raw: with_header(raw, lambda h: {
        **h, "config": {**h["config"], "dropout": 0.1}}), "header 'config'"),
    "missing_config": (lambda raw: with_header(
        raw, lambda h: {k: v for k, v in h.items() if k != "config"}), "header 'config'"),
    "list_header": (lambda raw: with_header(raw, lambda h: [h]), "not a JSON object"),
    "list_provenance": (lambda raw: with_header(raw, lambda h: {
        **h, "provenance": [h["provenance"]]}), "header 'provenance'"),
    "missing_provenance": (lambda raw: with_header(
        raw, lambda h: {k: v for k, v in h.items() if k != "provenance"}), "header 'provenance'"),
    "huge_block_dims": (lambda raw: with_first_dims(raw, (2 ** 31, 2 ** 31)), "config implies"),
    "missing_scaler": (lambda raw: with_header(
        raw, lambda h: {k: v for k, v in h.items() if k != "scaler"}), "exactly the keys"),
    "unknown_top_key": (lambda raw: with_header(raw, lambda h: {
        **h, "comment": "hand-edited"}), "exactly the keys"),
}


def file_blocks(raw: bytes) -> list[tuple[str, np.ndarray]]:
    """(name, data) of every weight block of the model file ``raw``, in order."""
    (hlen,) = struct.unpack("<I", raw[8:12])
    at = 12 + hlen
    (count,) = struct.unpack("<I", raw[at : at + 4])
    at += 4
    blocks = []
    for _ in range(count):
        (nlen,) = struct.unpack("<I", raw[at : at + 4])
        name = raw[at + 4 : at + 4 + nlen].decode()
        at += 4 + nlen
        (ndim,) = struct.unpack("<I", raw[at : at + 4])
        dims = struct.unpack(f"<{ndim}I", raw[at + 4 : at + 4 + 4 * ndim])
        at += 4 + 4 * ndim
        size = 8 * math.prod(dims)
        blocks.append((name, np.frombuffer(raw[at : at + size], dtype="<f8").reshape(dims)))
        at += size
    assert at == len(raw)
    return blocks


class TestRoundTrip:
    @pytest.mark.parametrize("attention", [False, True])
    def test_parameters_bitwise_equal(self, tmp_path, attention):
        model = make_model(attention)
        path = tmp_path / "model.tfl"
        mio.save_model(model, ScalerParams(1.0, 9.0), PROV, path)
        loaded, scaler, provenance = mio.load_model(path)
        assert loaded.config == model.config
        assert (scaler.min, scaler.max) == (1.0, 9.0)
        assert provenance == PROV
        assert list(loaded.params) == list(model.params)
        for name, arr in model.params.items():
            npt.assert_array_equal(loaded.params[name], arr, err_msg=name)

    def test_load_then_save_is_byte_identical(self, tmp_path):
        model = make_model()
        first = tmp_path / "a.tfl"
        second = tmp_path / "b.tfl"
        mio.save_model(model, ScalerParams(0.5, 2.0), PROV, first)
        loaded, scaler, provenance = mio.load_model(first)
        mio.save_model(loaded, scaler, provenance, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("attention", [False, True])
    def test_file_keeps_per_gate_blocks_in_order(self, tmp_path, attention):
        # in memory each LSTM is one stacked weight and bias; the file
        # stores them as one block per gate, f, i, c, o
        model = make_model(attention)
        path = tmp_path / "m.tfl"
        mio.save_model(model, None, {}, path)
        blocks = file_blocks(path.read_bytes())
        hid = model.config.hidden
        expected = []
        for prefix, width in (("enc", 1), ("dec", hid)):
            expected += [(f"{prefix}.w{g}", (hid, hid + width)) for g in "fico"]
            expected += [(f"{prefix}.b{g}", (hid,)) for g in "fico"]
        expected += [("out.w", (2 * hid if attention else hid,)), ("out.b", (1,))]
        assert [(name, data.shape) for name, data in blocks] == expected
        data = dict(blocks)
        for prefix in ("enc", "dec"):
            for k, g in enumerate("fico"):
                rows = slice(k * hid, (k + 1) * hid)
                npt.assert_array_equal(data[f"{prefix}.w{g}"], model.params[prefix + ".w"][rows])
                npt.assert_array_equal(data[f"{prefix}.b{g}"], model.params[prefix + ".b"][rows])
        # taken in file order, the blocks are consecutive runs of the model's vector
        assert b"".join(block.tobytes() for _, block in blocks) == model.flat.astype("<f8").tobytes()

    def test_missing_scaler_roundtrips_as_none(self, tmp_path):
        path = tmp_path / "m.tfl"
        mio.save_model(make_model(), None, {}, path)
        _, scaler, _ = mio.load_model(path)
        assert scaler is None

    def test_predictions_survive_roundtrip(self, tmp_path):
        model = make_model(attention=True)
        path = tmp_path / "m.tfl"
        mio.save_model(model, None, {}, path)
        loaded, _, _ = mio.load_model(path)
        windows = Rng(9).uniform_array(12, 0, 1).reshape(2, 6)
        npt.assert_array_equal(net.forward_batch(model, windows).preds,
                               net.forward_batch(loaded, windows).preds)


class TestRejection:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.tfl"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            mio.load_model(path)

    @pytest.mark.parametrize("version", [0, mio.VERSION + 1])
    def test_unsupported_version(self, tmp_path, version):
        # only VERSION is read; a zeroed field is not taken for it
        path = tmp_path / "m.tfl"
        mio.save_model(make_model(), None, {}, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", version)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=rf"unsupported format version {version} "
                                             rf"\(this build reads {mio.VERSION}\)$"):
            mio.load_model(path)

    def test_truncation_rejected_everywhere(self, tmp_path):
        path = tmp_path / "m.tfl"
        mio.save_model(make_model(), ScalerParams(0.0, 1.0), PROV, path)
        raw = path.read_bytes()
        stub = tmp_path / "cut.tfl"
        for cut in (2, 6, 10, len(raw) // 2, len(raw) - 3):
            stub.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match="truncated"):
                mio.load_model(stub)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "m.tfl"
        mio.save_model(make_model(), None, {}, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ValueError, match="trailing"):
            mio.load_model(path)

    def test_shape_contradicting_config_rejected(self, tmp_path):
        # shrink the stored hidden size so the weight blocks no longer match
        path = tmp_path / "m.tfl"
        mio.save_model(make_model(), None, {}, path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        header = raw[12 : 12 + hlen]
        patched = header.replace(b'"hidden":4', b'"hidden":3')
        assert patched != header
        out = raw[:8] + struct.pack("<I", len(patched)) + patched + raw[12 + hlen:]
        path.write_bytes(out)
        with pytest.raises(ValueError, match="shape"):
            mio.load_model(path)


    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_header_or_block_rejected(self, tmp_path, capsys, case):
        path = tmp_path / "m.tfl"
        mio.save_model(make_model(), ScalerParams(0.0, 1.0), PROV, path)
        corrupt, message = MALFORMED[case]
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ValueError, match=message):
            mio.load_model(path)
        # the CLI reads the source model first, so the data file is never opened
        assert main(["transfer", "--source-model", str(path), "--data", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "out.tfl")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:"), err

    @pytest.mark.parametrize("name, problem", [
        (b"enc\nwf", r"unexpected or repeated weight block 'enc\nwf'"),
        (b"\xffnc.wf", r"block name is not UTF-8: b'\xffnc.wf'"),
    ])
    def test_bad_block_name_is_one_line_naming_the_file(self, tmp_path, capsys, name, problem):
        path = tmp_path / "m.tfl"
        mio.save_model(make_model(), ScalerParams(0.0, 1.0), {**PROV, "split": 0.5}, path)
        path.write_bytes(with_first_name(path.read_bytes(), name))
        data = tmp_path / "series.csv"
        data.write_text("timestamp,bps\n" + "".join(f"{300 * k},{k + 1}\n" for k in range(20)))
        assert main(["evaluate", "--model", str(path), "--data", str(data),
                     "--out-dir", str(tmp_path / "eval")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"data error: {path}: {problem}"]

    @pytest.mark.parametrize("block, value", [
        ("out.w", math.inf), ("out.w", -math.inf), ("dec.wi", math.nan), ("dec.wi", 1e300),
        ("enc.wc", math.nextafter(FLOAT32_MAX, math.inf)),
    ])
    def test_weight_float32_cannot_hold_is_one_line_naming_the_block(self, tmp_path, capsys,
                                                                     block, value):
        # training and inference run in float32, which cannot hold the value
        path = tmp_path / "m.tfl"
        mio.save_model(make_model(), ScalerParams(0.0, 1.0), {**PROV, "split": 0.5}, path)
        raw = path.read_bytes()
        at = raw.index(dict(file_blocks(raw))[block].tobytes())  # the block's first weight
        path.write_bytes(raw[:at] + struct.pack("<d", value) + raw[at + 8:])
        data = tmp_path / "series.csv"
        data.write_text("timestamp,bps\n" + "".join(f"{300 * k},{k + 1}\n" for k in range(20)))
        assert main(["evaluate", "--model", str(path), "--data", str(data),
                     "--out-dir", str(tmp_path / "eval")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {path}: block {block!r} is not finite in float32"]

    def test_float32_max_weight_loads(self, tmp_path):
        path = tmp_path / "m.tfl"
        model = make_model()
        model.params["out.w"][0] = -FLOAT32_MAX
        mio.save_model(model, None, PROV, path)
        assert mio.load_model(path)[0].params["out.w"][0] == -FLOAT32_MAX

    def test_unknown_scaler_key_rejected(self, tmp_path):
        path = tmp_path / "m.tfl"
        mio.save_model(make_model(), ScalerParams(0.0, 1.0), PROV, path)
        path.write_bytes(with_header(path.read_bytes(), lambda h: {
            **h, "scaler": {**h["scaler"], "mean": 0.5}}))
        with pytest.raises(ValueError, match="header 'scaler'"):
            mio.load_model(path)

    def test_mistyped_config_value_rejected(self, tmp_path):
        path = tmp_path / "m.tfl"
        mio.save_model(make_model(), None, PROV, path)
        path.write_bytes(with_header(path.read_bytes(), lambda h: {
            **h, "config": {**h["config"], "hidden": "4"}}))
        with pytest.raises(ValueError, match="'config.hidden' has type str"):
            mio.load_model(path)


class TestFileHash:
    def test_sha256_stable(self, tmp_path):
        path = tmp_path / "m.tfl"
        mio.save_model(make_model(), None, {}, path)
        assert mio.file_sha256(path) == mio.file_sha256(path)
        assert len(mio.file_sha256(path)) == 64
