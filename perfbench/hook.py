"""Import ``tfl`` on interpreters whose ``dataclasses`` reject its defaults.

Since Python 3.11, ``dataclasses`` refuses a field default whose class is
unhashable, which includes any non-frozen dataclass instance.  A ``tfl``
release that still declares such a default cannot be imported there at all.
``tolerant_import`` wraps ``dataclasses.dataclass`` for the duration of one
import and, for classes defined under the package only, turns each such
default into ``field(default_factory=...)`` returning that same object.
Every instance then gets the identical default it would have had on an
older interpreter.  Each rewritten field is reported; once the package
declares its defaults portably the list is empty and nothing is changed.
"""

from __future__ import annotations

import dataclasses
import importlib


def _unhashable_dataclass_instance(value) -> bool:
    return (dataclasses.is_dataclass(value) and not isinstance(value, type)
            and type(value).__hash__ is None)


def tolerant_import(module: str, package: str = "tfl"):
    """Import ``module`` under the rewriting decorator.

    Returns ``(module_object, rewrites)`` where ``rewrites`` lists each
    rewritten field as ``module.Class.field``.  The original decorator is
    restored before returning; any import error propagates unchanged.
    """
    original = dataclasses.dataclass
    rewrites: list[str] = []

    def rewrite_defaults(cls):
        if cls.__module__ == package or cls.__module__.startswith(package + "."):
            for name in cls.__dict__.get("__annotations__", {}):
                value = cls.__dict__.get(name)
                if _unhashable_dataclass_instance(value):
                    setattr(cls, name, dataclasses.field(default_factory=lambda v=value: v))
                    rewrites.append(f"{cls.__module__}.{cls.__qualname__}.{name}")
        return cls

    def dataclass(cls=None, /, **kwargs):
        if cls is None:
            return lambda c: original(rewrite_defaults(c), **kwargs)
        return original(rewrite_defaults(cls), **kwargs)

    dataclasses.dataclass = dataclass
    try:
        mod = importlib.import_module(module)
    finally:
        dataclasses.dataclass = original
    return mod, rewrites
