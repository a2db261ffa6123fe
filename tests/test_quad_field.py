"""Exact quadratic arithmetic: parsing, continued fractions, witnesses.

The continued-fraction and GL(2,Z) answers are checked against
independent routes: a float-driven quotient expansion, and a brute-force
enumeration of unimodular matrices acting through a general surd algebra
that never touches the production Moebius code.
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftan import (
    ContinuedFraction,
    MobiusWitness,
    QuadraticIrrational,
    SurdParseError,
    cf_expand,
    format_surd,
    gl2z_equivalent,
    mobius_apply,
    mobius_compose,
    mobius_witness,
    parse_quadratic,
    same_field,
    squarefree_split,
)

# ---------------------------------------------------------------------------
# squarefree_split and canonicalization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, square, free",
    [(1, 1, 1), (2, 1, 2), (8, 2, 2), (9, 3, 1), (12, 2, 3), (360, 6, 10)],
)
def test_squarefree_split(n, square, free):
    assert squarefree_split(n) == (square, free)
    assert square * square * free == n


def test_squarefree_split_rejects_nonpositive():
    with pytest.raises(ValueError):
        squarefree_split(0)


def test_huge_radicand_rejected():
    # 1000003 and 1000033 are primes above the trial-division bound; their
    # product is a non-square cofactor just past the certification bound.
    n = 1000003 * 1000033
    with pytest.raises(ValueError, match="factoring bound"):
        parse_quadratic(f"sqrt({n})")


def test_large_perfect_square_cofactor_is_certified():
    # Perfect-square leftovers are certified by isqrt at any size.
    assert squarefree_split(1000003**2) == (1000003, 1)
    big = 1000003 * 1000033
    assert squarefree_split(big**2) == (big, 1)


def test_canonical_forms():
    assert parse_quadratic("sqrt(8)") == QuadraticIrrational(0, 2, 2)
    assert parse_quadratic("sqrt(9)") == Fraction(3)
    assert parse_quadratic("(1+sqrt(5))/2") == QuadraticIrrational(
        Fraction(1, 2), Fraction(1, 2), 5
    )
    # Same value through different spellings collapses to one representation.
    assert parse_quadratic("(2+2*sqrt(5))/4") == parse_quadratic("(1+sqrt(5))/2")
    assert parse_quadratic("2*sqrt(2)") == parse_quadratic("sqrt(8)")


def test_rational_collapse_in_arithmetic():
    r2 = parse_quadratic("sqrt(2)")
    assert r2 * r2 == Fraction(2)
    assert r2 - r2 == Fraction(0)
    assert (1 + r2) * (r2 - 1) == Fraction(1)


def test_arithmetic_does_not_factor_the_radicand_again(monkeypatch):
    from difftan import quad_field

    x = 1 + parse_quadratic("sqrt(999999937)")
    calls = []
    original = quad_field.squarefree_split
    monkeypatch.setattr(
        quad_field, "squarefree_split", lambda n: calls.append(n) or original(n)
    )
    y = mobius_apply(MobiusWitness(1, 1, 0, 1), x)
    assert calls == []
    assert y == (1 + x) / x


def test_direct_construction_rejects_a_square_factor():
    with pytest.raises(ValueError, match="square-free"):
        QuadraticIrrational(0, 1, 12)


@pytest.mark.parametrize(
    "p, q",
    [(0.5, 1), (0, 1.0), (Fraction(1, 2), 0.25)],
    ids=["float-p", "float-q", "float-both"],
)
def test_direct_construction_rejects_floats(p, q):
    with pytest.raises(TypeError, match="float"):
        QuadraticIrrational(p, q, 2)
    with pytest.raises(TypeError, match="float"):
        QuadraticIrrational.make(p, q, 2)


@pytest.mark.parametrize(
    "compare, symbol",
    [
        (lambda x: x < 1.5, "<"),
        (lambda x: x <= 1.5, "<="),
        (lambda x: x > 1.5, ">"),
        (lambda x: x >= 1.5, ">="),
        (lambda x: 1.5 < x, "<"),
        (lambda x: "1" >= x, ">="),
    ],
    ids=["lt", "le", "gt", "ge", "float-lt", "str-ge"],
)
def test_comparison_with_an_inexact_operand_is_not_supported(compare, symbol):
    with pytest.raises(TypeError, match=f"'{symbol}' not supported"):
        compare(parse_quadratic("sqrt(2)"))


def test_comparisons_with_exact_operands():
    root2 = parse_quadratic("sqrt(2)")
    assert 1 < root2 < Fraction(3, 2) and root2 > 1 and Fraction(3, 2) >= root2
    assert root2 <= root2 and root2 < 1 + root2


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, p, q, d",
    [
        ("sqrt(2)", 0, 1, 2),
        ("1+sqrt(2)", 1, 1, 2),
        ("(1+sqrt(5))/2", Fraction(1, 2), Fraction(1, 2), 5),
        ("(3-2*sqrt(7))/5", Fraction(3, 5), Fraction(-2, 5), 7),
        ("-sqrt(2)", 0, -1, 2),
        ("-1+2*sqrt(3)", -1, 2, 3),
        ("2+sqrt(3)", 2, 1, 3),
        (" ( 1 + sqrt( 5 ) ) / 2 ", Fraction(1, 2), Fraction(1, 2), 5),
    ],
)
def test_parse_examples(text, p, q, d):
    value = parse_quadratic(text)
    assert value == QuadraticIrrational(Fraction(p), Fraction(q), d)


def test_leading_minus_binds_to_first_product_only():
    # -1+2*sqrt(3) is (-1) + 2*sqrt(3), not -(1 + 2*sqrt(3)).
    assert parse_quadratic("-1+2*sqrt(3)") == QuadraticIrrational(-1, 2, 3)


@pytest.mark.parametrize(
    "text",
    ["", "sqrt(2", "sqrt()", "1+", "sqrt(2))", "1/2", "sqrt(2)/2", "(1+sqrt(2)", "* 3"],
)
def test_parse_syntax_errors(text):
    with pytest.raises(SurdParseError):
        parse_quadratic(text)


def test_parse_error_reports_position():
    with pytest.raises(SurdParseError) as excinfo:
        parse_quadratic("1+sqrt(2) )")
    assert excinfo.value.position == 10
    assert "position 10" in str(excinfo.value)


@pytest.mark.parametrize(
    "text, position",
    [
        ("sqrt(\u00b2)", 5),  # str.isdigit() accepts it, int() does not
        # past Python's default limit on digits converted to an int
        pytest.param("1" * 5000, 0, id="5000-digit literal"),
    ],
)
def test_digits_int_cannot_read_are_positioned_errors(text, position):
    with pytest.raises(SurdParseError) as excinfo:
        parse_quadratic(text)
    assert excinfo.value.position == position


def test_negative_radicand_rejected():
    with pytest.raises(SurdParseError, match="negative radicand"):
        parse_quadratic("sqrt(-2)")


def test_mixed_radicands_rejected():
    with pytest.raises(SurdParseError):
        parse_quadratic("sqrt(2)+sqrt(3)")


def test_quotient_requires_parenthesized_numerator():
    assert parse_quadratic("(sqrt(2))/2") == QuadraticIrrational(
        0, Fraction(1, 2), 2
    )
    with pytest.raises(SurdParseError):
        parse_quadratic("sqrt(2)/2")


def test_division_by_zero_rejected():
    with pytest.raises(SurdParseError, match="division by zero"):
        parse_quadratic("(1+sqrt(2))/0")


def test_deep_nesting_is_a_parse_error():
    assert parse_quadratic("(" * 50 + "sqrt(2)" + ")" * 50) == parse_quadratic("sqrt(2)")
    with pytest.raises(SurdParseError, match="nested too deeply"):
        parse_quadratic("(" * 3000 + "sqrt(2)" + ")" * 3000)


_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_radicands = st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 15])
_quads = st.builds(
    lambda p, q, d: QuadraticIrrational(p, q if q != 0 else Fraction(1), d),
    _fractions,
    _fractions,
    _radicands,
)


@given(_quads)
@settings(max_examples=80, deadline=None)
def test_format_parse_round_trip(x):
    assert parse_quadratic(format_surd(x)) == x


@given(_fractions, _fractions, st.sampled_from([1, 2, 3, 5]), _radicands)
@settings(max_examples=80, deadline=None)
def test_make_canonicalizes_square_parts(p, q, s, d):
    # p + q*sqrt(s^2 d) and p + (q s)*sqrt(d) are the same number.
    assert QuadraticIrrational.make(p, q, s * s * d) == QuadraticIrrational.make(
        p, q * s, d
    )


# ---------------------------------------------------------------------------
# Floor and ordering
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, expected",
    [
        ("sqrt(2)", 1),
        ("-sqrt(2)", -2),
        ("(1+sqrt(2))/-2", -2),
        ("(-sqrt(2))/3", -1),
        ("(-sqrt(2))/-2", 0),
        ("(1+sqrt(5))/2", 1),
        ("3-2*sqrt(7)", -3),
    ],
)
def test_floor_golden(text, expected):
    assert parse_quadratic(text).floor() == expected


@given(_quads)
@settings(max_examples=80, deadline=None)
def test_floor_brackets_value(x):
    f = x.floor()
    assert isinstance(f, int)
    assert f < x < f + 1  # the value itself is irrational, so strict


def test_ordering_is_consistent_with_floats():
    values = [parse_quadratic(t) for t in ("sqrt(2)", "1+sqrt(2)", "-sqrt(2)", "3-2*sqrt(2)")]
    for a in values:
        for b in values:
            assert (a < b) == (float(a) < float(b))


# ---------------------------------------------------------------------------
# Continued fractions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, preperiod, period",
    [
        ("(1+sqrt(5))/2", (1,), (1,)),
        ("sqrt(2)", (1,), (2,)),
        ("1+sqrt(2)", (2,), (2,)),
        ("sqrt(3)", (1,), (1, 2)),
        ("2+sqrt(3)", (3,), (1, 2)),
        ("sqrt(5)", (2,), (4,)),
        ("sqrt(7)", (2,), (1, 1, 1, 4)),
        ("3*sqrt(2)", (4,), (4, 8)),
        ("-sqrt(2)", (-2, 1, 1), (2,)),
        # c^2 * d is far past the factoring bound; d alone is not.
        ("1000033*sqrt(1000066001090)", (1000066001089,), (2, 2000132002178)),
    ],
)
def test_cf_golden(text, preperiod, period):
    cf = cf_expand(parse_quadratic(text))
    assert (cf.preperiod, cf.period) == (preperiod, period)


def test_cf_str():
    assert str(cf_expand(parse_quadratic("sqrt(3)"))) == "[1; (1, 2)]"


def _float_quotients(value: float, count: int) -> list[int]:
    out = []
    for _ in range(count):
        a = math.floor(value)
        out.append(a)
        value = 1.0 / (value - a)
    return out


@pytest.mark.parametrize(
    "text", ["sqrt(2)", "1+sqrt(2)", "(1+sqrt(5))/2", "sqrt(7)", "2+sqrt(3)"]
)
def test_cf_matches_float_expansion(text):
    # Independent numeric route: the first few quotients from float math.
    x = parse_quadratic(text)
    cf = cf_expand(x)
    symbolic = list(cf.preperiod)
    while len(symbolic) < 8:
        symbolic.extend(cf.period)
    assert symbolic[:8] == _float_quotients(float(x), 8)


@given(_quads)
@settings(max_examples=60, deadline=None)
def test_cf_round_trip(x):
    cf = cf_expand(x)
    assert cf.value() == x


def test_cf_type_invariants():
    with pytest.raises(ValueError, match="primitive"):
        ContinuedFraction((1,), (2, 2))
    with pytest.raises(ValueError, match="absorbable"):
        ContinuedFraction((1, 2), (1, 2))
    with pytest.raises(ValueError, match=">= 1"):
        ContinuedFraction((1, 0), (2,))
    with pytest.raises(ValueError):
        ContinuedFraction((), (2,))


def test_primitive_period_check_is_fast():
    started = time.perf_counter()
    ContinuedFraction((0,), (1,) * 19999 + (2,))
    assert time.perf_counter() - started < 0.5
    with pytest.raises(ValueError, match="primitive"):
        ContinuedFraction((0,), (1, 2) * 20000)


# ---------------------------------------------------------------------------
# Moebius witnesses
# ---------------------------------------------------------------------------


def test_mobius_apply_golden():
    r2 = parse_quadratic("sqrt(2)")
    assert mobius_apply(MobiusWitness(0, 1, 1, 0), r2) == r2
    assert mobius_apply(MobiusWitness(1, 1, 1, 0), r2) == parse_quadratic("1+sqrt(2)")
    assert mobius_apply(MobiusWitness(0, 1, 2, 0), r2) == parse_quadratic("(sqrt(2))/2")


def test_witness_requires_nonzero_determinant():
    with pytest.raises(ValueError, match="determinant"):
        MobiusWitness(0, 1, 0, 2)


def test_mobius_witness_golden():
    r2 = parse_quadratic("sqrt(2)")
    r2p1 = parse_quadratic("1+sqrt(2)")
    w = mobius_witness(r2p1, r2)
    assert (w.a, w.b, w.c, w.d) == (1, 1, 1, 0)
    assert mobius_witness(parse_quadratic("sqrt(3)"), r2) is None
    ident = mobius_witness(r2, r2)
    assert (ident.a, ident.b, ident.c, ident.d) == (0, 1, 1, 0)
    assert ident.det == -1


def test_mobius_witness_clears_denominators():
    golden = parse_quadratic("(1+sqrt(5))/2")
    r5 = parse_quadratic("sqrt(5)")
    w = mobius_witness(golden, r5)
    assert (w.a, w.b, w.c, w.d) == (1, 1, 2, 0)
    assert mobius_apply(w, r5) == golden


def test_gl2z_golden():
    r2 = parse_quadratic("sqrt(2)")
    r2p1 = parse_quadratic("1+sqrt(2)")
    w = gl2z_equivalent(r2, r2p1)
    assert abs(w.det) == 1
    assert mobius_apply(w, r2p1) == r2
    assert gl2z_equivalent(r2, parse_quadratic("sqrt(3)")) is None
    ident = gl2z_equivalent(r2, r2)
    assert (ident.a, ident.b, ident.c, ident.d) == (0, 1, 1, 0)


def test_mobius_compose_matches_application():
    r2 = parse_quadratic("sqrt(2)")
    u = MobiusWitness(1, 2, 3, 1)
    v = MobiusWitness(0, 1, 2, 5)
    assert mobius_apply(mobius_compose(u, v), r2) == mobius_apply(
        u, mobius_apply(v, r2)
    )
    # The matrix acting on y is [[b, a], [d, c]], whose determinant is
    # -(a*d - b*c); matrix determinants multiply, so the quadruple's
    # determinant picks up a sign under composition.
    assert mobius_compose(u, v).det == -(u.det * v.det)


def test_witness_soundness_over_pool(field_pool):
    for x in field_pool:
        for y in field_pool:
            w = mobius_witness(x, y)
            assert (w is not None) == same_field(x, y)
            if w is not None:
                assert w.d == 0 and w.c > 0
                assert mobius_apply(w, y) == x
            g = gl2z_equivalent(x, y)
            if g is not None:
                assert abs(g.det) == 1
                assert mobius_apply(g, y) == x


def test_gl2z_is_an_equivalence_relation(field_pool):
    # Reflexive; symmetric and transitive as existence statements, with
    # the composed transitive witness verified sound.
    for x in field_pool:
        assert gl2z_equivalent(x, x) is not None
    for x in field_pool:
        for y in field_pool:
            assert (gl2z_equivalent(x, y) is None) == (
                gl2z_equivalent(y, x) is None
            )
    for x in field_pool:
        for y in field_pool:
            w_xy = gl2z_equivalent(x, y)
            if w_xy is None:
                continue
            for z in field_pool:
                w_yz = gl2z_equivalent(y, z)
                if w_yz is None:
                    continue
                assert gl2z_equivalent(x, z) is not None
                composed = mobius_compose(w_xy, w_yz)
                assert abs(composed.det) == 1
                assert mobius_apply(composed, z) == x


def test_gl2z_implies_same_field(field_pool):
    for x in field_pool:
        for y in field_pool:
            if gl2z_equivalent(x, y) is not None:
                assert same_field(x, y)


# ---------------------------------------------------------------------------
# Brute-force GL(2,Z) oracle
# ---------------------------------------------------------------------------
#
# Independent route: enumerate all integer matrices with entries in
# [-5, 5] and determinant +-1, and test x == (a + b*y)/(c + d*y) in a
# general surd algebra (coefficients on square-free radicands), which
# shares nothing with the continued-fraction machinery.


def _surd_parts(v):
    if isinstance(v, Fraction):
        return {1: v}
    return {1: v.p, v.d: v.q}


def _parts_mul(u, w):
    out = {}
    for r1, c1 in u.items():
        for r2, c2 in w.items():
            s, f = squarefree_split(r1 * r2)
            out[f] = out.get(f, Fraction(0)) + c1 * c2 * s
    return {r: c for r, c in out.items() if c != 0}


def _parts_combine(u, scale_u, w, scale_w):
    out = {}
    for r, c in u.items():
        out[r] = out.get(r, Fraction(0)) + c * scale_u
    for r, c in w.items():
        out[r] = out.get(r, Fraction(0)) + c * scale_w
    return {r: c for r, c in out.items() if c != 0}


def unimodular_matrices(bound: int = 5):
    rng = range(-bound, bound + 1)
    return [
        (a, b, c, d)
        for a in rng
        for b in rng
        for c in rng
        for d in rng
        if abs(a * d - b * c) == 1
    ]


def brute_force_equivalent(x, y, matrices) -> bool:
    # x*(c + d*y) == a + b*y, checked exactly in the surd algebra; a fast
    # float screen discards clear misses first.
    px, py = _surd_parts(x), _surd_parts(y)
    pxy = _parts_mul(px, py)
    fx, fy = float(x), float(y)
    one = {1: Fraction(1)}
    for a, b, c, d in matrices:
        den = c + d * fy
        if abs(den) > 1e-9 and abs(fx - (a + b * fy) / den) > 1e-9:
            continue
        lhs = _parts_combine(px, Fraction(c), pxy, Fraction(d))
        rhs = _parts_combine(one, Fraction(a), py, Fraction(b))
        if lhs == rhs:
            return True
    return False


def test_gl2z_agrees_with_brute_force(field_pool):
    matrices = unimodular_matrices(5)
    for i, x in enumerate(field_pool):
        for y in field_pool[i:]:
            assert (gl2z_equivalent(x, y) is not None) == brute_force_equivalent(
                x, y, matrices
            ), (format_surd(x), format_surd(y))
