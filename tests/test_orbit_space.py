"""Tests for orbit-space lifts, derivations, and the rank obstruction."""

import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from difftan import (
    GERM_DEGREE_BOUND,
    ORBIT_GENERATOR,
    Derivation,
    FunctorKind,
    InvalidLiftError,
    InvariantGerm,
    LiftWitness,
    MultiPoly,
    OrbitSpace,
    PolyLift,
    UniPoly,
    compose_lifts,
    compose_with,
    derivation_value,
    norm_square_poly,
    pushforward,
    random_valid_lift,
    rank_obstruction,
    standard_embedding,
    tangent,
    theorem2_dim,
    validate_lift,
)
from difftan.orbit_space import EMBED_GENERATOR, radial_poly


def _lift(m, text):
    return PolyLift.from_text(m, text)


# ----------------------------------------------------------- lift validity


def test_embedding_profile_is_identity():
    emb = standard_embedding(1, 2)
    assert emb.to_text() == "(x1; 0)"
    assert validate_lift(emb).psi == UniPoly((0, 1))


def test_squared_radius_lift():
    lift = _lift(2, "(x1^2+x2^2; 0)")
    assert validate_lift(lift).psi == UniPoly((0, 0, 1))


def test_rotation_lift_preserves_radius():
    lift = _lift(2, "(3/5*x1+4/5*x2; -4/5*x1+3/5*x2)")
    assert validate_lift(lift).psi == UniPoly((0, 1))


def test_zero_lift_is_valid():
    lift = PolyLift(2, 2, (MultiPoly.zero(2), MultiPoly.zero(2)))
    assert validate_lift(lift).psi.is_zero()


def test_projection_is_not_a_lift():
    # |F|^2 = x1^2 misses the x2^2 term of any radial profile.
    with pytest.raises(InvalidLiftError, match="offending monomial x2\\^2"):
        validate_lift(_lift(2, "(x1)"))


def test_odd_axis_power_is_rejected():
    with pytest.raises(InvalidLiftError, match="x1\\^3"):
        validate_lift(_lift(1, "(x1+x1^2)"))


def test_invalid_lift_error_carries_monomial():
    try:
        validate_lift(_lift(2, "(x1)"))
    except InvalidLiftError as err:
        assert err.monomial == "x2^2"
    else:  # pragma: no cover - the raise is the point
        pytest.fail("expected InvalidLiftError")


def _perturbed_lift(h, g, exps, bump):
    """R^6 -> R^2 radial lift (h(|x|^2), g(|x|^2)) with bump * x^exps added to
    the first component; the bumps below leave the x1-axis unchanged."""
    s = norm_square_poly(6)
    first = compose_with(UniPoly(h), s) + MultiPoly(6, {exps: bump})
    return PolyLift(6, 2, (first, compose_with(UniPoly(g), s)))


@pytest.mark.parametrize(
    "h, g, exps, bump, monomial",
    [
        (
            (0, 2, 0, 0, Fraction(-1, 3)),
            (0, 0, Fraction(3, 2)),
            (1, 1, 0, 0, 0, 0),
            1,
            "x1*x2*x6^2",
        ),
        (
            (0, Fraction(-3, 2), 0, 0, 2),
            (0, 0, -1),
            (0, 0, 2, 2, 0, 0),
            Fraction(-2, 5),
            "x3^2*x4^2*x6^2",
        ),
    ],
)
def test_perturbed_degree8_lift_messages(h, g, exps, bump, monomial):
    # Messages captured from the Horner-built |x|^2 profile check.
    with pytest.raises(InvalidLiftError) as info:
        validate_lift(_perturbed_lift(h, g, exps, bump))
    assert str(info.value) == (
        f"not an invariant lift: offending monomial {monomial} in |F|^2"
    )


def _rejection_message(lift):
    with pytest.raises(InvalidLiftError) as info:
        validate_lift(lift)
    return str(info.value)


def test_one_term_lift_is_rejected_without_expanding_the_profile():
    # |F|^2 = x1^60 gives the profile t^30, whose Psi(|x|^2) has C(35, 5)
    # terms in six variables; none of them may be built.
    start = time.perf_counter()
    message = _rejection_message(_lift(6, "(x1^30)"))
    assert time.perf_counter() - start < 1
    assert message == "not an invariant lift: offending monomial x6^60 in |F|^2"


def test_huge_axis_power_is_checked_before_any_dense_profile():
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        validate_lift(_lift(1, "(x1^1000000000)"))
    assert str(info.value) == f"profile degree 1000000000 exceeds bound {GERM_DEGREE_BOUND}"
    message = _rejection_message(_lift(2, "(x1^1000000000)"))
    assert message == "not an invariant lift: offending monomial x2^2000000000 in |F|^2"
    # x2^2000000 is missing, so the multinomial C(10^6, 5*10^5) of the
    # larger monomial x1^1000000*x2^1000000 is never needed.
    message = _rejection_message(_lift(2, "(x1^1000000; x1^500000*x2^500000)"))
    assert message == "not an invariant lift: offending monomial x2^2000000 in |F|^2"
    assert time.perf_counter() - start < 1


def _reference_validate(lift):
    """validate_lift by public operations: expand Psi(|x|^2) by Horner's
    rule and name the smallest monomial of the difference."""
    m = lift.m
    square = MultiPoly.zero(m)
    for comp in lift.components:
        square = square + comp * comp
    axis = square.restrict_axis(0)
    for i, coeff in enumerate(axis.coeffs):
        if coeff != 0 and i % 2 == 1:
            raise InvalidLiftError("x1" if i == 1 else f"x1^{i}")
    psi = UniPoly(tuple(axis.coeff(2 * j) for j in range(axis.degree // 2 + 1)))
    diff = square - compose_with(psi, norm_square_poly(m))
    if not diff.is_zero():
        raise InvalidLiftError(str(MultiPoly(m, {min(diff.terms): 1})))
    return InvariantGerm(psi)


def _outcome(check, lift):
    try:
        return check(lift).psi
    except ValueError as err:
        return type(err), str(err)


_nonzero = st.builds(
    Fraction, st.integers(1, 4) | st.integers(-4, -1), st.sampled_from((1, 2, 3))
)


@st.composite
def _lifts(draw):
    """A valid random lift (composed ones included) or one of four
    perturbations of it: an odd axis power, a cross term b*x1*x2, a
    dropped term, or a scaled coefficient."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, m - 1))
    lift = random_valid_lift(m, n, draw(st.integers(2, 8)), draw(st.integers(0, 2**16)))
    comps = list(lift.components)
    i = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(("valid", "odd", "cross", "drop", "scale")))
    if kind == "odd":
        power = draw(st.sampled_from((1, 3)))
        comps[i] += MultiPoly(m, {(power,) + (0,) * (m - 1): draw(_nonzero)})
    elif kind == "cross":
        comps[i] += MultiPoly(m, {(1, 1) + (0,) * (m - 2): draw(_nonzero)})
    elif kind != "valid" and not comps[i].is_zero():
        terms = dict(comps[i].terms)
        exps = draw(st.sampled_from(sorted(terms)))
        if kind == "drop":
            del terms[exps]
        else:
            terms[exps] *= draw(st.sampled_from((2, 3, -1, Fraction(1, 2))))
        comps[i] = MultiPoly(m, terms)
    return PolyLift(m, n, tuple(comps))


@pytest.mark.parametrize(
    "m, text",
    [
        (2, "(x1; x2; x1^2)"),  # every term of |F|^2 fits, but x1^2*x2^2 and x2^4 are missing
        (3, "(x1; x2; x3; x1*x2)"),
        (2, "(x1; x2; 1/2*x1^2+1/2*x2^2)"),
        (3, "(x1^2+x2^2; x3^2; x1*x2)"),
        (2, "(x1^3; x2)"),
        (1, "(x1^5+x1^2)"),
    ],
)
def test_validate_lift_agrees_with_the_expanded_profile_on_fixed_lifts(m, text):
    lift = _lift(m, text)
    assert _outcome(validate_lift, lift) == _outcome(_reference_validate, lift)


@settings(max_examples=80, deadline=None)
@given(_lifts())
def test_validate_lift_agrees_with_the_expanded_profile(lift):
    assert _outcome(validate_lift, lift) == _outcome(_reference_validate, lift)


def test_lift_shape_invariants():
    x1 = MultiPoly.variable(2, 0)
    with pytest.raises(ValueError, match=">= 1"):
        PolyLift(0, 1, ())
    with pytest.raises(ValueError, match="component count"):
        PolyLift(2, 2, (x1,))
    with pytest.raises(ValueError, match="x1..xm"):
        PolyLift(3, 1, (x1,))
    with pytest.raises(ValueError, match="vanish at the origin"):
        PolyLift(2, 1, (x1 + MultiPoly.constant(2, 1),))


def test_lift_text_round_trip():
    for text in ["(x1; x2; 0)", "(x1^2+x2^2; 0)", "(2*x1)"]:
        assert _lift(2, text).to_text() == text
    # Outer parentheses are optional on input.
    assert _lift(2, "x1; x2").to_text() == "(x1; x2)"
    with pytest.raises(ValueError, match="empty lift component"):
        _lift(2, "(x1;; x2)")


def test_norm_square_poly():
    assert str(norm_square_poly(3)) == "x1^2+x2^2+x3^2"


_PROFILES = [
    (1,),
    (0, 1),
    (0, 0, 0, 0, 0, 0, 0, 0, 1),
    (Fraction(1, 2), 0, Fraction(-3, 4), 0, 0, 2),
    tuple(Fraction((-1) ** j * (j + 1), j % 4 + 1) for j in range(9)),
]


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("coeffs", _PROFILES)
def test_radial_poly_matches_horner(m, coeffs):
    psi = UniPoly(coeffs)
    assert radial_poly(psi, m) == compose_with(psi, norm_square_poly(m))


def test_radial_poly_matches_horner_on_random_profiles():
    rng = random.Random(8)
    for _ in range(20):
        m = rng.randint(1, 6)
        psi = UniPoly(
            tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 5))) for _ in range(9))
        )
        assert radial_poly(psi, m) == compose_with(psi, norm_square_poly(m))
    assert radial_poly(UniPoly(), 3).is_zero()


def test_standard_embedding_needs_room():
    with pytest.raises(ValueError, match="1 <= m <= n"):
        standard_embedding(3, 2)


def test_germ_degree_bound():
    InvariantGerm(UniPoly((0,) * GERM_DEGREE_BOUND + (1,)))
    with pytest.raises(ValueError, match="exceeds bound"):
        InvariantGerm(UniPoly((0,) * (GERM_DEGREE_BOUND + 1) + (1,)))


# ------------------------------------------------- derivations and pushforwards


def test_derivation_value_reads_first_coefficient():
    germ = InvariantGerm(UniPoly((0, 5, 0, 7)))  # 5t + 7t^3
    assert derivation_value(Derivation(1), germ) == 5
    assert derivation_value(Derivation(Fraction(3, 2)), germ) == Fraction(15, 2)


def test_derivation_rejects_a_float_coefficient():
    with pytest.raises(TypeError, match="float"):
        Derivation(0.1)
    assert Derivation(2).coeff == 2
    assert Derivation(Fraction(1, 10)).coeff == Fraction(1, 10)


def test_pushforward_scales_by_profile_slope():
    emb = standard_embedding(2, 3)
    assert pushforward(emb, Derivation(Fraction(2, 3))).coeff == Fraction(2, 3)
    doubling = _lift(1, "(2*x1)")
    assert pushforward(doubling, Derivation(1)).coeff == 4  # psi = 4t


def test_pushforward_validates_first():
    with pytest.raises(InvalidLiftError):
        pushforward(_lift(2, "(x1)"), Derivation(1))


# --------------------------------------------------------- rank obstruction


def test_rank_obstruction_of_embedding():
    ob = rank_obstruction(standard_embedding(2, 3))
    assert ob.matrix == ((1, 0), (0, 1), (0, 0))
    assert ob.gram == ((1, 0), (0, 1))
    assert ob.scalar == 1


def test_rank_obstruction_flags_nonscalar_gram():
    ob = rank_obstruction(_lift(2, "(x1)"))
    assert ob.gram == ((1, 0), (0, 0))
    assert ob.scalar is None


def test_rank_obstruction_of_quadratic_lift():
    ob = rank_obstruction(_lift(2, "(x1^2+x2^2; 0)"))
    assert ob.scalar == 0


# ------------------------------------------------------- the dimension law


@pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3)])
def test_theorem2_dim_one_when_test_fits(m, n):
    report = theorem2_dim(m, n)
    assert report.dimension == 1
    assert report.generators == (EMBED_GENERATOR,)
    assert report.status == "computed"
    witness = report.witness
    assert isinstance(witness, LiftWitness)
    assert witness.psi == UniPoly((0, 1))
    assert witness.pushforward == 1
    assert validate_lift(witness.lift).psi == witness.psi


@pytest.mark.parametrize("m, n", [(2, 1), (3, 1), (3, 2), (4, 3)])
def test_theorem2_dim_zero_when_test_too_big(m, n):
    report = theorem2_dim(m, n)
    assert report.dimension == 0
    assert report.generators == ()
    assert report.witness is None
    assert report.status == "registered-by-theorem"


def test_theorem2_table():
    table = {(m, n): theorem2_dim(m, n).dimension for m in range(1, 5) for n in range(1, 5)}
    assert table == {(m, n): int(m <= n) for m in range(1, 5) for n in range(1, 5)}


def test_classical_dims():
    dims = {
        name: tangent(OrbitSpace(2), FunctorKind(name))
        for name in ("internal", "vincent", "right")
    }
    assert {name: r.dimension for name, r in dims.items()} == {
        "internal": 0,
        "vincent": 0,
        "right": 1,
    }
    assert dims["right"].generators == (ORBIT_GENERATOR,)


# ------------------------------------------------------------ random family


_SHRINKING_PAIRS = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]


@pytest.mark.parametrize("m, n", _SHRINKING_PAIRS)
def test_random_lifts_are_valid_with_zero_pushforward(m, n):
    for seed in range(8):
        lift = random_valid_lift(m, n, seed=seed)
        assert (lift.m, lift.n) == (m, n)
        germ = validate_lift(lift)
        # The rank obstruction in action: more source than target dimensions
        # forces the profile slope, hence every pushforward, to vanish.
        assert germ.psi.coeff(1) == 0
        assert pushforward(lift, Derivation(1)).coeff == 0
        assert rank_obstruction(lift).scalar == 0


def test_random_lift_is_deterministic():
    a = random_valid_lift(3, 1, seed=7)
    b = random_valid_lift(3, 1, seed=7)
    assert a == b
    assert a != random_valid_lift(3, 1, seed=8)


def test_random_lift_uses_composites():
    # With m - n >= 2 the generator flips a coin between the direct radial
    # family and a composite through an intermediate dimension; replaying
    # the coin shows both branches occur, and both must validate.
    branches = set()
    for seed in range(16):
        lift = random_valid_lift(4, 1, degree=4, seed=seed)
        validate_lift(lift)
        branches.add(random.Random(seed).random() < 0.5)
    assert branches == {True, False}


def test_random_lift_rejects_bad_arguments():
    with pytest.raises(ValueError, match="m > n >= 1"):
        random_valid_lift(2, 2)
    with pytest.raises(ValueError, match="m > n >= 1"):
        random_valid_lift(1, 2)
    with pytest.raises(ValueError, match="degree"):
        random_valid_lift(3, 1, degree=1)
    with pytest.raises(ValueError, match="degree"):
        random_valid_lift(3, 1, degree=9)


# -------------------------------------------------------------- composition


def test_compose_lifts_golden_chain_rule():
    inner = _lift(3, "(x1^2+x2^2+x3^2; 0)")  # psi = t^2
    outer = _lift(2, "(x1^2+x2^2)")  # psi = t^2
    composite = compose_lifts(outer, inner)
    assert validate_lift(composite).psi == UniPoly((0, 0, 0, 0, 1))  # t^4


def test_compose_lifts_chain_rule_random():
    inner = random_valid_lift(3, 2, degree=2, seed=1)
    outer = random_valid_lift(2, 1, degree=2, seed=2)
    psi_inner = validate_lift(inner).psi
    psi_outer = validate_lift(outer).psi
    composite = compose_lifts(outer, inner)
    assert (composite.m, composite.n) == (3, 1)
    assert validate_lift(composite).psi == psi_outer.compose(psi_inner)


def test_compose_lifts_dimension_mismatch():
    with pytest.raises(ValueError, match="must match"):
        compose_lifts(standard_embedding(1, 2), standard_embedding(1, 2))


# ---------------------------------------------------- evenness is necessary


@pytest.mark.parametrize("m, n, seed", [(3, 2, 0), (3, 2, 3), (2, 1, 1), (4, 2, 5)])
def test_odd_perturbation_breaks_validity(m, n, seed):
    lift = random_valid_lift(m, n, seed=seed)
    validate_lift(lift)
    comps = list(lift.components)
    comps[0] = comps[0] + MultiPoly.variable(m, 0) ** 3
    with pytest.raises(InvalidLiftError):
        validate_lift(PolyLift(m, n, tuple(comps)))


# ------------------------------------------------------- symbolic cross-check


def test_derivation_matches_symbolic_second_derivative():
    # D_n(Psi(|x|^2)) equals Psi'(0), which symbolically is half the second
    # x1-derivative of the composite at the origin.
    rng = random.Random(42)
    t = sympy.Symbol("t")
    for _ in range(12):
        n = rng.randint(1, 3)
        coeffs = [Fraction(0)] + [
            Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(3)
        ]
        psi = UniPoly(tuple(coeffs))
        germ = InvariantGerm(psi)
        xs = sympy.symbols(f"x1:{n + 1}")
        radius = sum(x**2 for x in xs)
        profile = sum(sympy.Rational(c) * t**i for i, c in enumerate(psi.coeffs))
        composite = profile.subs(t, radius)
        origin = {x: 0 for x in xs}
        symbolic = sympy.diff(composite, xs[0], 2).subs(origin) / 2
        assert symbolic == sympy.Rational(derivation_value(Derivation(1), germ))
