"""The bench (``perfbench/``) names ``tfl`` functions as ``<layer>.<function>``
in its span wrappers and in the per-layer metrics a traced run must record.
A rename in ``src`` fails here rather than in a traced bench run."""

import importlib.util
import inspect
import sys
from pathlib import Path

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
