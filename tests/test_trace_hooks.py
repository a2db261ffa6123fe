"""What the benchmark relies on in the package.

benchmarks/tracing.py wraps MultiPoly's product, sum and substitution by
reading them from the class dict, and every other name in its SPANNED and
COUNTED lists as a module attribute; if a refactor renames or moves one,
`--trace 1` breaks.  benchmarks/run.py imports the package anew on every
set-up, so nothing may keep an earlier copy alive.

The package itself binds no public name: `import difftan` loads no
submodule and reads each name from its module on first use, so a patched
module attribute is what `difftan.<name>` returns.  The runtime imports
nothing outside the standard library.
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


PUBLIC = {
    "__version__", "AxiomCheck", "AxiomCheckReport", "CONSTANT_GERMS", "COMPUTED",
    "ContinuedFraction", "ORBIT_GENERATOR", "DEFAULT_SLOPE_POOL", "DEFAULT_SLOPE_TEXTS",
    "Derivation", "EuclideanSpace", "FunctorKind", "GERM_DEGREE_BOUND",
    "HypothesisNotMetError", "InvalidLiftError", "InvariantGerm", "IrrationalTorus",
    "LiftWitness", "MobiusWitness", "MultiPoly", "OrbitSpace", "PolyLift",
    "PolyParseError", "QuadraticIrrational", "RankObstruction", "REGISTERED",
    "SurdParseError", "TORUS_GENERATOR", "TangentReport", "TorusHomReport",
    "UNDETERMINED", "UniPoly", "catalog_spaces", "cf_expand", "compose_hom",
    "compose_lifts", "derivation_value", "diffeomorphic", "distinguish", "format_surd",
    "functor_axiom_check", "gl2z_equivalent", "hom_nonconstant", "mobius_apply",
    "mobius_compose", "mobius_witness", "norm_square_poly", "compose_with",
    "parse_polynomial", "parse_quadratic", "parse_space", "pushforward",
    "random_valid_lift", "rank_obstruction", "same_field", "squarefree_split",
    "standard_embedding", "tangent", "theorem2_dim", "validate_lift", "y_internal_dim",
}
LIBRARY = ["functor_core", "orbit_space", "polynomials", "quad_field", "spaces", "torus"]


def _python(code):
    """Run code in a fresh interpreter that imports difftan from this source tree."""
    src = str(Path(difftan.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_a_bare_import_loads_no_submodule():
    proc = _python(
        """
        import sys
        import difftan
        loaded = sorted(name for name in sys.modules if name.startswith("difftan."))
        assert not loaded, loaded
        assert difftan.quad_field is sys.modules["difftan.quad_field"]
        """
    )
    assert proc.returncode == 0, proc.stderr


def test_every_public_name_is_its_modules_object():
    assert len(PUBLIC) == 61
    assert set(difftan.__all__) == PUBLIC
    modules = [importlib.import_module(f"difftan.{name}") for name in LIBRARY]
    for name in PUBLIC - {"__version__"}:
        owners = [module for module in modules if name in vars(module)]
        assert owners, name
        assert all(getattr(difftan, name) is vars(module)[name] for module in owners), name


def test_star_import_dir_and_unknown_names():
    namespace = {}
    exec("from difftan import *", namespace)
    assert PUBLIC <= set(namespace)
    assert {"__all__", *PUBLIC} <= set(dir(difftan))
    with pytest.raises(AttributeError, match="module 'difftan' has no attribute 'nope'"):
        difftan.nope


def test_the_runtime_imports_only_the_standard_library():
    proc = _python(
        """
        import importlib, pkgutil, sys
        before = {name.split(".")[0] for name in sys.modules}
        import difftan
        for module in pkgutil.iter_modules(difftan.__path__):
            if module.name != "__main__":
                importlib.import_module(f"difftan.{module.name}")
        added = {name.split(".")[0] for name in sys.modules} - before
        outside = sorted(added - set(sys.stdlib_module_names) - {"difftan"})
        assert "difftan.cli" in sys.modules and not outside, outside
        """
    )
    assert proc.returncode == 0, proc.stderr
