"""Dispatch, axiom checks, and separation search for tangent constructions.

tangent() answers "what is the dimension of this tangent construction on
this based space" for every combination of catalog space (Euclidean
opens, irrational tori, orbit spaces) and construction (internal, right,
vincent, and the test-relative y-internal / y-right).  Each answer is a
TangentReport carrying generators, witnesses where meaningful, a status
-- computed here, registered from a proved classification, or
undetermined -- and a one-line justification.

Every answer comes from one row of the rule table below, keyed by
(construction, space family, test family) with the families R^0, R^k
(k >= 1), torus and orbit.  A row either states a fixed answer, gives
the Euclidean one (dimension k, one generator per axis), or calls a
decision procedure: torus.y_internal_dim for two tori,
orbit_space.theorem2_dim for two orbit spaces.

The undetermined corner is deliberate: maps from an irrational torus into
an orbit space fall outside the registered classifications, so the
y-internal cells of a torus tested against an orbit space report
undetermined rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import orbit_space as orbit
from . import torus as torus_mod
from .orbit_space import ORBIT_GENERATOR, PolyLift, compose_lifts
from .polynomials import MultiPoly
from .quad_field import QuadraticIrrational, parse_quadratic
from .spaces import (
    CLASSICAL_FUNCTORS,
    COMPUTED,
    REGISTERED,
    UNDETERMINED,
    EuclideanSpace,
    FunctorKind,
    IrrationalTorus,
    OrbitSpace,
    Space,
    TangentReport,
)
from .torus import CONSTANT_GERMS, TORUS_GENERATOR

DEFAULT_SLOPE_TEXTS = (
    "sqrt(2)",
    "1+sqrt(2)",
    "(1+sqrt(5))/2",
    "sqrt(5)",
    "sqrt(3)",
    "2+sqrt(3)",
    "sqrt(7)",
)
DEFAULT_SLOPE_POOL: tuple[QuadraticIrrational, ...] = tuple(
    parse_quadratic(text) for text in DEFAULT_SLOPE_TEXTS
)


class HypothesisNotMetError(ValueError):
    """The test space lacks the nonzero tangent vector the check needs."""


# ---------------------------------------------------------------------------
# The rule table
# ---------------------------------------------------------------------------

# Space families.  A classical construction takes no test, so its test
# family is None.
R0, RK, TORUS, ORBIT = "R^0", "R^k", "torus", "orbit"
_EUCLIDEAN = (R0, RK)
_ALL = (R0, RK, TORUS, ORBIT)


def _family(space: Optional[Space]) -> Optional[str]:
    if space is None:
        return None
    if isinstance(space, EuclideanSpace):
        return RK if space.dim else R0
    return TORUS if isinstance(space, IrrationalTorus) else ORBIT


def _fixed(dimension, generators, status, justification):
    """An answer that is the same for every instance of its cell."""
    return lambda space, functor: TangentReport(
        space, functor, dimension, generators, None, status, justification
    )


def _euclidean(justification):
    """The classical answer on R^k: dimension k, one generator per axis."""
    def answer(space, functor):
        generators = tuple(f"∂/∂x{i + 1}" for i in range(space.dim))
        return TangentReport(
            space, functor, space.dim, generators, None, REGISTERED, justification
        )

    return answer


# The decision procedures are looked up on their modules at call time, so
# rebinding the module attribute (to wrap or trace it) covers these calls.
def _torus_pair(space: IrrationalTorus, functor: FunctorKind) -> TangentReport:
    return torus_mod.y_internal_dim(space, functor.test)


def _orbit_pair(space: OrbitSpace, functor: FunctorKind) -> TangentReport:
    return orbit.theorem2_dim(functor.test.n, space.n)


_EUCLIDEAN_CLASSICAL = (
    "on a Euclidean open every construction returns the classical tangent "
    "space at the basepoint"
)
_EUCLIDEAN_RELATIVE = (
    "the test space carries a nonzero tangent vector of the relevant kind, "
    "so the construction agrees with the classical tangent functor on "
    "Euclidean spaces"
)
_TORUS_INTERNAL_LINE = (
    "the internal tangent space is spanned by the class of the projection "
    "curve; dense translations rule out a second independent direction"
)
_TORUS_NO_FUNCTIONS = (
    "smooth real-valued functions on an irrational torus are constant, so "
    "function-based constructions see only the zero germ algebra"
)
_ORBIT_REFLECTION = (
    "reflection through the origin descends to the identity, so every "
    "pushed-forward plot vector is identified with its own negative"
)
_ORBIT_NONNEGATIVE = (
    "a nonnegative smooth function vanishing at 0 has zero derivative "
    "there, so curves pair trivially with every invariant germ"
)
_ORBIT_PROFILE = (
    "invariant germs are profiles of the squared radius; D_n reads the "
    "profile's derivative at 0 and is nonzero on the squared-radius germ "
    "itself"
)
_POINT_TEST = (
    "the only germ into the one-point space is constant, so the refining "
    "relation identifies all plot vectors"
)
_TEST_INTERNAL_ZERO = (
    "the internal tangent space of the test space vanishes, so every "
    "pushforward is zero and the refining relation identifies all plot "
    "vectors"
)
_SPACE_INTERNAL_ZERO = (
    "the internal tangent space of an orbit space vanishes, and this "
    "construction is a quotient of it"
)
_TORUS_RIGHT_ZERO = (
    "the right tangent space of an irrational torus vanishes, and this "
    "construction selects a subspace of it"
)
_TEST_RIGHT_ZERO = (
    "the right tangent space of the test space vanishes, so there is "
    "nothing to push forward"
)
_AXIS_REDUCTION = (
    "each coordinate derivation is the pushforward of the curve derivation "
    "along an axis inclusion, so the span reduces to the span over curves, "
    "which vanishes on an orbit space"
)
_TORUS_ORBIT_GAP = (
    "maps from an irrational torus into an orbit space fall outside the "
    "registered classifications; no computation rule applies"
)

# (rule id, constructions, space families, test families, answer).  Every
# (construction, space family, test family) key matches exactly one row;
# the single undetermined row is y-internal-torus-orbit-gap.
_RULE_ROWS = (
    ("euclidean-classical", CLASSICAL_FUNCTORS, _EUCLIDEAN, (None,),
     _euclidean(_EUCLIDEAN_CLASSICAL)),
    ("torus-internal-line", ("internal",), (TORUS,), (None,),
     _fixed(1, (TORUS_GENERATOR,), REGISTERED, _TORUS_INTERNAL_LINE)),
    ("torus-no-functions", ("vincent", "right"), (TORUS,), (None,),
     _fixed(0, (), REGISTERED, _TORUS_NO_FUNCTIONS)),
    ("orbit-internal-reflection", ("internal",), (ORBIT,), (None,),
     _fixed(0, (), REGISTERED, _ORBIT_REFLECTION)),
    ("orbit-vincent-nonnegative", ("vincent",), (ORBIT,), (None,),
     _fixed(0, (), REGISTERED, _ORBIT_NONNEGATIVE)),
    ("orbit-right-profile", ("right",), (ORBIT,), (None,),
     _fixed(1, (ORBIT_GENERATOR,), REGISTERED, _ORBIT_PROFILE)),
    ("y-internal-orbit-space", ("y-internal",), (ORBIT,), _ALL,
     _fixed(0, (), COMPUTED, _SPACE_INTERNAL_ZERO)),
    ("y-internal-euclidean", ("y-internal",), _EUCLIDEAN, (RK, TORUS),
     _euclidean(_EUCLIDEAN_RELATIVE)),
    ("y-internal-point-test", ("y-internal",), _EUCLIDEAN, (R0,),
     _fixed(0, (), COMPUTED, _POINT_TEST)),
    ("y-internal-orbit-test", ("y-internal",), _EUCLIDEAN, (ORBIT,),
     _fixed(0, (), COMPUTED, _TEST_INTERNAL_ZERO)),
    ("y-internal-torus-pair", ("y-internal",), (TORUS,), (TORUS,),
     _torus_pair),
    ("y-internal-torus-euclidean", ("y-internal",), (TORUS,), _EUCLIDEAN,
     _fixed(0, (), COMPUTED, CONSTANT_GERMS)),
    ("y-internal-torus-orbit-gap", ("y-internal",), (TORUS,), (ORBIT,),
     _fixed(None, (), UNDETERMINED, _TORUS_ORBIT_GAP)),
    ("y-right-torus-space", ("y-right",), (TORUS,), _ALL,
     _fixed(0, (), COMPUTED, _TORUS_RIGHT_ZERO)),
    ("y-right-test-zero", ("y-right",), (R0, RK, ORBIT), (R0, TORUS),
     _fixed(0, (), COMPUTED, _TEST_RIGHT_ZERO)),
    ("y-right-euclidean", ("y-right",), _EUCLIDEAN, (RK, ORBIT),
     _euclidean(_EUCLIDEAN_RELATIVE)),
    ("y-right-orbit-pair", ("y-right",), (ORBIT,), (ORBIT,),
     _orbit_pair),
    ("y-right-axis-reduction", ("y-right",), (ORBIT,), (RK,),
     _fixed(0, (), COMPUTED, _AXIS_REDUCTION)),
)

# (construction, space family, test family) -> (rule id, answer).
_RULES = {
    (construction, space, test): (rule_id, answer)
    for rule_id, constructions, spaces, tests, answer in _RULE_ROWS
    for construction in constructions
    for space in spaces
    for test in tests
}


def tangent(space: Space, functor: FunctorKind) -> TangentReport:
    """Dimension, generators, witness, and provenance for one tangent cell."""
    _, answer = _RULES[functor.name, _family(space), _family(functor.test)]
    return answer(space, functor)


# ---------------------------------------------------------------------------
# Axiom checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AxiomCheckReport:
    functor: FunctorKind
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


_Matrix = tuple[tuple[Fraction, ...], ...]

# Sample linear maps (name, source dim, target dim, rows) used to probe
# functoriality; every composable pair below is checked.
_SAMPLE_LINEAR_MAPS: tuple[tuple[str, int, int, _Matrix], ...] = (
    ("dbl", 1, 2, ((Fraction(1),), (Fraction(2),))),
    ("proj", 2, 1, ((Fraction(1), Fraction(1)),)),
    ("mix", 2, 3, ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)))),
)


def _lift_of_matrix(source: int, target: int, rows: _Matrix) -> PolyLift:
    comps = []
    for i in range(target):
        poly = MultiPoly.zero(source)
        for j in range(source):
            if rows[i][j] != 0:
                poly = poly + rows[i][j] * MultiPoly.variable(source, j)
        comps.append(poly)
    return PolyLift(source, target, tuple(comps))


def _linear_part(lift: PolyLift) -> _Matrix:
    return tuple(comp.linear_coeffs() for comp in lift.components)


def _mat_mul(a: _Matrix, b: _Matrix) -> _Matrix:
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
            for j in range(len(b[0]))
        )
        for i in range(len(a))
    )


def _identity_matrix(k: int) -> _Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(k)) for i in range(k)
    )


def functor_axiom_check(functor: FunctorKind) -> AxiomCheckReport:
    """Check tangent-functor behavior on Euclidean opens.

    Verifies that the construction returns dimension k on R^k for
    k in 0..3, that identity maps push forward to identity matrices, and
    that pushforwards of sample linear maps compose functorially (the
    composite computed by polynomial substitution must match the matrix
    product).  Raises HypothesisNotMetError when the functor's test space
    has no tangent vector of the relevant kind, in which case the
    construction is degenerate rather than tangent-functorial.
    """
    if functor.test is not None:
        kind = functor.name.removeprefix("y-")
        if tangent(functor.test, FunctorKind(kind)).dimension == 0:
            raise HypothesisNotMetError(
                f"hypothesis not met: the {kind} tangent space of "
                f"{functor.test.label} vanishes"
            )

    dims_ok = all(
        tangent(EuclideanSpace(k), functor).dimension == k for k in range(4)
    )
    dim_check = AxiomCheck(
        "euclidean-dimensions", dims_ok, "dimension k on R^k for k in 0..3"
    )

    identity_ok = True
    for k in range(1, 4):
        ident = _lift_of_matrix(k, k, _identity_matrix(k))
        if _linear_part(ident) != _identity_matrix(k):
            identity_ok = False
    id_check = AxiomCheck(
        "identity-law", identity_ok, "identity maps act as identity matrices"
    )

    pairs = 0
    compose_ok = True
    for f_name, f_src, f_tgt, f_rows in _SAMPLE_LINEAR_MAPS:
        for g_name, g_src, g_tgt, g_rows in _SAMPLE_LINEAR_MAPS:
            if f_tgt != g_src:
                continue
            pairs += 1
            composite = compose_lifts(
                _lift_of_matrix(g_src, g_tgt, g_rows),
                _lift_of_matrix(f_src, f_tgt, f_rows),
            )
            if _linear_part(composite) != _mat_mul(g_rows, f_rows):
                compose_ok = False
    comp_check = AxiomCheck(
        "composition-law",
        compose_ok,
        f"{pairs} composable sample pairs agree with matrix products",
    )

    return AxiomCheckReport(functor, (dim_check, id_check, comp_check))


# ---------------------------------------------------------------------------
# Separation search
# ---------------------------------------------------------------------------


def catalog_spaces(
    slopes: Optional[Sequence[QuadraticIrrational]] = None,
) -> tuple[Space, ...]:
    """The search catalog: R^0..R^3, the slope-pool tori, orbit spaces 1..4."""
    pool = DEFAULT_SLOPE_POOL if slopes is None else tuple(slopes)
    spaces: list[Space] = [EuclideanSpace(k) for k in range(4)]
    spaces.extend(IrrationalTorus(slope) for slope in pool)
    spaces.extend(OrbitSpace(n) for n in range(1, 5))
    return tuple(spaces)


def distinguish(
    first: FunctorKind,
    second: FunctorKind,
    slopes: Optional[Sequence[QuadraticIrrational]] = None,
) -> Optional[Space]:
    """First catalog space on which the two constructions disagree.

    Only cells determined for both constructions can separate; an
    undetermined cell never counts as a difference.  Returns None when
    every comparable cell agrees.
    """
    for space in catalog_spaces(slopes):
        r1 = tangent(space, first)
        r2 = tangent(space, second)
        if r1.determined and r2.determined and r1.dimension != r2.dimension:
            return space
    return None
