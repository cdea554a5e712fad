"""The bench (``perfbench/``) names ``tfl`` functions as ``<layer>.<function>``
in its span wrappers and in the per-layer metrics a traced run must record,
and wraps every public one.  A rename in ``src``, or a public function held
where the wrapper cannot rebind it, fails here rather than in a traced bench
run."""

import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tfl.numeric import Rng

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bench_module(name, monkeypatch):
    """Import ``perfbench/<name>.py`` without writing its bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _traced_functions(spans, run) -> set[str]:
    """``<layer>.<function>`` of every span extractor and required metric;
    the CLI's own metrics and the Rng stream total name no function."""
    names = set(spans.EXTRACTORS)
    for metrics in run.REQUIRED.values():
        for metric in metrics:
            metric = metric.removeprefix("setup.")
            if not metric.startswith(("cli.", "numeric.rng.")):
                names.add(".".join(metric.split(".")[:2]))
    return names


def test_bench_names_only_public_tfl_functions(monkeypatch):
    spans, run = _bench_module("spans", monkeypatch), _bench_module("run", monkeypatch)
    names = _traced_functions(spans, run)
    assert "network.predict_batch" in names
    unresolved = []
    for name in sorted(names):
        layer, function = name.split(".")
        module = importlib.import_module(f"tfl.{layer}")
        obj = getattr(module, function, None)
        # what spans.install wraps: public functions defined in the layer itself
        if function.startswith("_") or not inspect.isfunction(obj) \
                or obj.__module__ != module.__name__:
            unresolved.append(name)
    assert unresolved == []
    assert [m for m in spans.RNG_METHODS if not hasattr(Rng, m)] == []


# what every traced bench child does before it runs a command; ``{plant}``
# is a statement run between the two
_INSTALL = """
import sys
sys.path.insert(0, {bench!r})
import tfl.cli
{plant}
from spans import Recorder, install
install(Recorder())
"""


@pytest.mark.parametrize("plant, refusal", [
    ("", None),
    # a module-level tuple holding a public function: the wrapper cannot reach it
    ("import tfl.training; tfl.training._KEPT = (tfl.training.train,)",
     "tfl.training._KEPT still holds unwrapped train"),
])
def test_traced_child_installs_its_wrappers(plant, refusal):
    src = str(BENCH.with_name("src"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-B", "-c", _INSTALL.format(bench=str(BENCH), plant=plant)],
                          env=env, capture_output=True, text=True, timeout=120)
    if refusal is None:
        assert (proc.returncode, proc.stderr) == (0, "")
    else:
        assert proc.returncode == 1 and refusal in proc.stderr, proc.stderr
