"""The Python block under README's "Library use" runs as written, so the
text cannot drift from the API."""

import math
import re
from pathlib import Path

import numpy.testing as npt

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], f"{README} (python block)", "exec"), namespace)
    assert math.isfinite(float(capsys.readouterr().out))
    npt.assert_allclose(namespace["restored"], namespace["train_side"].values, rtol=1e-12)
