"""What the benchmark relies on in the package.

benchmarks/tracing.py wraps MultiPoly's product, sum and substitution by
reading them from the class dict, and every other name in its SPANNED and
COUNTED lists as a module attribute; if a refactor renames or moves one,
`--trace 1` breaks.  benchmarks/run.py imports the package anew on every
set-up, so nothing may keep an earlier copy alive.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import difftan
from difftan import polynomials

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
_spec = importlib.util.spec_from_file_location("tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

MODULE_LEVEL = [
    f"{module}.{func}"
    for module, func in tracing.SPANNED + tracing.COUNTED
    if not func.startswith("MultiPoly.")
]


@pytest.mark.parametrize("name", ["__mul__", "__rmul__", "__add__", "substitute"])
def test_multipoly_methods_live_in_the_class_dict(name):
    assert callable(polynomials.MultiPoly.__dict__[name])


@pytest.mark.parametrize("qualname", MODULE_LEVEL)
def test_traced_functions_exist(qualname):
    module, name = qualname.split(".")
    assert callable(vars(importlib.import_module(f"difftan.{module}"))[name])


def test_a_fresh_import_frees_the_previous_copy():
    code = textwrap.dedent(
        """
        import gc, importlib, sys, weakref
        import difftan.cli
        names = [name for name in sys.modules if name.split(".")[0] == "difftan"]
        old = [weakref.ref(value) for name in names
               for value in vars(sys.modules[name]).values()
               if isinstance(value, type) and value.__module__ == name]
        for name in names:
            del sys.modules[name]
        del difftan
        importlib.import_module("difftan.cli")
        gc.collect()
        sys.exit(sum(ref() is not None for ref in old))
        """
    )
    src = str(Path(difftan.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=60
    )
    assert proc.returncode == 0, f"{proc.returncode} classes of the old copy stay alive"
