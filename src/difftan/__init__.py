"""Exact tangent-space dimensions and witnesses for based diffeological spaces.

The package computes, in exact rational/quadratic-surd arithmetic, the
dimensions and constructive witnesses of five tangent-space constructions
(internal, right, vincent, and the test-relative y-internal and y-right)
on three families of based spaces: Euclidean opens, irrational tori, and
orthogonal-group orbit spaces.

`import difftan` loads no submodule: each name in `__all__` is read from
its module on first use, and `from difftan import X` works as usual.
"""

import importlib

__version__ = "0.1.0"

# Each public name, once, under the module that defines it.
_EXPORTS = {
    "functor_core": (
        "DEFAULT_SLOPE_POOL", "DEFAULT_SLOPE_TEXTS", "AxiomCheck", "AxiomCheckReport",
        "HypothesisNotMetError", "catalog_spaces", "distinguish", "functor_axiom_check",
        "tangent",
    ),
    "orbit_space": (
        "GERM_DEGREE_BOUND", "ORBIT_GENERATOR", "Derivation", "InvalidLiftError",
        "InvariantGerm", "LiftWitness", "PolyLift", "RankObstruction", "compose_lifts",
        "derivation_value", "norm_square_poly", "pushforward", "random_valid_lift",
        "rank_obstruction", "standard_embedding", "theorem2_dim", "validate_lift",
    ),
    "polynomials": (
        "MultiPoly", "PolyParseError", "UniPoly", "compose_with", "parse_polynomial",
    ),
    "quad_field": (
        "ContinuedFraction", "MobiusWitness", "QuadraticIrrational", "SurdParseError",
        "cf_expand", "format_surd", "gl2z_equivalent", "mobius_apply", "mobius_compose",
        "mobius_witness", "parse_quadratic", "same_field", "squarefree_split",
    ),
    "spaces": (
        "COMPUTED", "REGISTERED", "UNDETERMINED", "EuclideanSpace", "FunctorKind",
        "IrrationalTorus", "OrbitSpace", "TangentReport", "parse_space",
    ),
    "torus": (
        "CONSTANT_GERMS", "TORUS_GENERATOR", "TorusHomReport", "compose_hom",
        "diffeomorphic", "hom_nonconstant", "y_internal_dim",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name):
    # Nothing is cached here, so a name always reads its module's current
    # binding (the benchmark's tracer patches those bindings).
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_OWNER})
