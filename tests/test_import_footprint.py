"""What each entry point imports, seen from a fresh interpreter.

Start-up is most of a single CLI invocation, so each entry point loads only
the modules it runs: the rank-one sweep needs no root data or Hecke algebra,
the mp verbs none of the algebra modules, and ``import mphecke`` loads no
submodule until an export is first used.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mphecke

PACKAGE_ROOT = str(Path(mphecke.__file__).resolve().parent.parent)


def loaded_after(statement: str) -> set[str]:
    """The modules in ``sys.modules`` after ``statement`` runs in a fresh interpreter."""
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


ALGEBRA = {"mphecke.hecke", "mphecke.rootdata", "mphecke.blocks", "mphecke.rankone",
           "mphecke.laurent"}


@pytest.mark.parametrize("statement, absent", [
    ("import mphecke.rankone",
     {"mphecke.hecke", "mphecke.rootdata", "mphecke.blocks", "mphecke.mpparams", "mphecke.cli",
      "dataclasses"}),
    ("import mphecke.cli", ALGEBRA),
    ("import mphecke", ALGEBRA | {"mphecke.mpparams", "mphecke.cli", "mphecke.jsonio"}),
    ("import mphecke.mpparams", ALGEBRA),
])
def test_entry_point_loads_only_what_it_runs(statement, absent):
    assert not loaded_after(statement) & absent


def test_every_export_resolves_to_its_defining_module():
    # the object is the one the module holds, and a class or function names
    # that module as the one defining it
    code = """\
import importlib, mphecke
assert [n for n in dir(mphecke) if not n.startswith("_")] == mphecke.__all__
bad = []
for name in mphecke.__all__:
    home = mphecke._HOME.get(name)
    obj = getattr(mphecke, name)
    if home is None:
        ok = obj is importlib.import_module("mphecke." + name)
    else:
        ok = obj is getattr(importlib.import_module("mphecke." + home), name) and getattr(
            obj, "__module__", "mphecke." + home) == "mphecke." + home
    if not ok:
        bad.append(name)
assert not bad, bad
"""
    loaded_after(code)
    assert len(mphecke.__all__) == 64
    assert {"laurent", "rootdata", "hecke", "rankone", "blocks", "mpparams"} <= set(mphecke.__all__)


def test_from_import_loads_only_the_defining_module():
    loaded = loaded_after("from mphecke import NormedParameter, rf_normalize")
    assert {"mphecke.mpparams", "mphecke.laurent"} <= loaded
    assert not loaded & {"mphecke.hecke", "mphecke.rootdata", "mphecke.blocks", "mphecke.rankone"}


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mphecke.no_such_name
    with pytest.raises(ImportError):
        from mphecke import no_such_name  # noqa: F401
