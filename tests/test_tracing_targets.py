"""The benchmark's tracer wraps names of ``mphecke``; each must still exist.

``bench/tracing.py`` is loaded from the checkout without being changed or
installed, and every ``(module, attribute path)`` in its ``TARGETS`` is
looked up the way ``Tracer.install`` does: the last part must be in the
owner's own ``__dict__``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr in tracing.TARGETS:
        owner = importlib.import_module(f"mphecke.{module}")
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert last in owner.__dict__, f"mphecke.{module}.{attr} is traced but not defined"
