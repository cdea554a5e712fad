"""In-memory span recorder that wraps ``tfl``'s public functions from outside.

Every public function defined in a traced module is replaced, in every
``tfl`` namespace that binds it, by a wrapper that times the call and
charges it to ``<module>.<function>`` (plus a variant suffix where one is
defined).  Per name the recorder keeps the call count, total time, self
time (total minus the time of directly nested wrapped calls) and any work
counts an extractor derives from the arguments or the result.  Spans are
aggregated as they close; nothing is written until the process ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

TRACED_MODULES = ("dataset", "wavelet", "numeric", "network", "training",
                  "evaluation", "model_io")

# Rng methods are bound on the class, so they are wrapped there.
RNG_METHODS = {
    "uniform_array": lambda a, r: {"values": a[1]},
    "normal_array": lambda a, r: {"values": a[1]},
    "shuffle": lambda a, r: {"values": len(a[1])},
    "derive": lambda a, r: {"values": a[2] + 1},
}


def _variant(args) -> str:
    cfg = args[0].config
    return f"h{cfg.hidden}-{'attn' if cfg.attention else 'plain'}"


# name -> (variant(args) or None, work(args, result) or None); tfl passes
# these arguments positionally
EXTRACTORS = {
    "dataset.load_csv": (None, lambda a, r: {"rows": len(r[0]) - r[1], "filled": r[1]}),
    "dataset.write_csv": (None, lambda a, r: {"rows": len(a[0])}),
    "wavelet.expand_dataset": (None, lambda a, r: {"samples": a[2] * len(a[0])}),
    "network.forward_batch": (_variant, lambda a, r: {"windows": len(a[1])}),
    "network.backward_batch": (_variant, None),
    "network.predict_batch": (_variant, lambda a, r: {"windows": len(a[1])}),
}


class Recorder:
    """Aggregated spans keyed by name: calls, total_s, self_s and work counts."""

    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = {}
        self._nested = [0.0]  # per open span: time covered by its direct children

    def wrap(self, fn, name: str, variant=None, work=None):
        stats, nested, clock = self.stats, self._nested, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nested.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = nested.pop()
                nested[-1] += duration
                key = name if variant is None else f"{name}.{variant(args)}"
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                entry["calls"] += 1
                entry["total_s"] += duration
                entry["self_s"] += duration - inner
            if work is not None:
                for counter, amount in work(args, result).items():
                    entry[counter] = entry.get(counter, 0) + amount
            return result

        return traced


def _package_modules(package: str) -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


def rebind(package: str, replacements: dict) -> None:
    """Point every module-level name under ``package`` bound to a key of
    ``replacements`` at its value, then fail if any original is still
    reachable from a module-level container or a function default."""
    modules = _package_modules(package)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(mod, attr, replacements[obj])
    originals = set(replacements)
    for mod in modules:
        for attr, obj in vars(mod).items():
            reachable = []
            if isinstance(obj, (dict, list, tuple, set)):
                values = obj.values() if isinstance(obj, dict) else obj
                for value in values:
                    reachable.extend(value if isinstance(value, tuple) else (value,))
            elif inspect.isfunction(obj):
                reachable.extend(obj.__defaults__ or ())
                reachable.extend((obj.__kwdefaults__ or {}).values())
            leaked = [v for v in reachable if inspect.isfunction(v) and v in originals]
            if leaked:
                raise RuntimeError(f"{mod.__name__}.{attr} still holds unwrapped "
                                   f"{', '.join(f.__qualname__ for f in leaked)}")


def install(recorder: Recorder, package: str = "tfl") -> None:
    """Wrap every public function of the traced modules, in every namespace
    that binds it, and the Rng stream methods on their class."""
    replacements = {}
    for layer in TRACED_MODULES:
        mod = sys.modules[f"{package}.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            replacements[obj] = recorder.wrap(obj, name, *EXTRACTORS.get(name, (None, None)))
    rebind(package, replacements)
    rng = sys.modules[f"{package}.numeric"].Rng
    for method, work in RNG_METHODS.items():
        raw = inspect.getattr_static(rng, method)
        name = f"numeric.Rng.{method}"
        if isinstance(raw, classmethod):
            setattr(rng, method, classmethod(recorder.wrap(raw.__func__, name, None, work)))
        else:
            setattr(rng, method, recorder.wrap(raw, name, None, work))
