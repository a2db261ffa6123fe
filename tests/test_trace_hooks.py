"""The names the benchmark tracer wraps must keep existing.

benchmarks/tracing.py wraps MultiPoly's product, sum and substitution by
reading them from the class dict, and a few module-level functions by
name; if a refactor renames or moves one, `--trace 1` breaks.
"""

import pytest

from difftan import orbit_space, polynomials


@pytest.mark.parametrize("name", ["__mul__", "__rmul__", "__add__", "substitute"])
def test_multipoly_methods_live_in_the_class_dict(name):
    assert callable(polynomials.MultiPoly.__dict__[name])


@pytest.mark.parametrize(
    "module, name",
    [
        (polynomials, "compose_with"),
        (polynomials, "parse_polynomial"),
        (orbit_space, "validate_lift"),
        (orbit_space, "theorem2_dim"),
    ],
)
def test_traced_functions_exist(module, name):
    assert callable(vars(module)[name])
