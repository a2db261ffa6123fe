"""Tests for exact univariate/multivariate polynomial arithmetic."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from difftan import (
    MultiPoly,
    PolyParseError,
    UniPoly,
    compose_with,
    parse_polynomial,
)
from difftan.polynomials import square_numerators, sum_of_squares


# ---------------------------------------------------------------- UniPoly


def test_unipoly_trims_trailing_zeros():
    p = UniPoly((Fraction(1), Fraction(0), Fraction(0)))
    assert p.coeffs == (Fraction(1),)
    assert p.degree == 0


def test_unipoly_zero():
    z = UniPoly()
    assert z.is_zero()
    assert z.degree == -1
    assert z.coeff(3) == 0
    assert str(z) == "0"


def test_unipoly_arithmetic():
    p = UniPoly((1, 2))  # 1 + 2t
    q = UniPoly((0, 0, 3))  # 3t^2
    assert (p + q).coeffs == (1, 2, 3)
    assert (p - p).is_zero()
    assert (p * q).coeffs == (0, 0, 3, 6)
    assert p.scale(Fraction(1, 2)).coeffs == (Fraction(1, 2), Fraction(1))


def test_unipoly_evaluation():
    p = UniPoly((1, 0, 2))  # 1 + 2t^2
    assert p(3) == 19
    assert p(Fraction(1, 2)) == Fraction(3, 2)


def test_unipoly_compose():
    outer = UniPoly((1, 0, 1))  # 1 + t^2
    inner = UniPoly((1, 1))  # 1 + t
    assert outer.compose(inner).coeffs == (2, 2, 1)
    assert UniPoly().compose(inner).is_zero()


@pytest.mark.parametrize(
    "coeffs, text",
    [
        ((0, 5, 0, 7), "5*t+7*t^3"),
        ((Fraction(1, 2),), "1/2"),
        ((-1, 1), "-1+t"),
        ((0, Fraction(-3, 2)), "-3/2*t"),
        ((2, 0, 1), "2+t^2"),
    ],
)
def test_unipoly_str(coeffs, text):
    assert str(UniPoly(coeffs)) == text


_small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=4)
_unipolys = st.lists(_small_fracs, max_size=5).map(lambda cs: UniPoly(tuple(cs)))


@given(_unipolys, _unipolys, _small_fracs)
def test_unipoly_evaluation_is_ring_hom(f, g, x):
    assert (f + g)(x) == f(x) + g(x)
    assert (f * g)(x) == f(x) * g(x)


@given(_unipolys, _unipolys, _small_fracs)
def test_unipoly_compose_matches_evaluation(f, g, x):
    assert f.compose(g)(x) == f(g(x))


# --------------------------------------------------------------- MultiPoly


def _poly(text, nvars=2):
    return parse_polynomial(text, nvars)


def test_multipoly_constructors():
    z = MultiPoly.zero(3)
    assert z.is_zero()
    assert z.total_degree() == -1
    one = MultiPoly.constant(2, 1)
    assert one.constant_term == 1
    x2 = MultiPoly.variable(2, 1)
    assert x2.terms == {(0, 1): Fraction(1)}


def test_multipoly_rejects_bad_shapes():
    with pytest.raises(ValueError, match="nvars"):
        MultiPoly(0)
    with pytest.raises(ValueError, match="exponent"):
        MultiPoly(2, {(1,): Fraction(1)})
    with pytest.raises(ValueError, match="exponent"):
        MultiPoly(2, {(-1, 0): Fraction(1)})
    with pytest.raises(ValueError, match="index"):
        MultiPoly.variable(2, 2)


def test_multipoly_arithmetic():
    x1 = MultiPoly.variable(2, 0)
    x2 = MultiPoly.variable(2, 1)
    s = x1 * x1 + x2 * x2
    assert s == _poly("x1^2+x2^2")
    assert s - s == MultiPoly.zero(2)
    assert 2 * s == s * 2 == _poly("2*x1^2+2*x2^2")
    assert (x1 + x2) ** 2 == _poly("x1^2+2*x1*x2+x2^2")
    assert x1**0 == MultiPoly.constant(2, 1)
    with pytest.raises(ValueError, match="negative"):
        x1 ** (-1)
    with pytest.raises(ValueError, match="variable counts"):
        x1 + MultiPoly.variable(3, 0)


def test_multipoly_equality_and_hash():
    a = _poly("x1*x2+1")
    b = _poly("1+x2*x1")
    assert a == b
    assert hash(a) == hash(b)
    assert a != _poly("x1*x2")
    assert a != "x1*x2+1"


def test_restrict_axis():
    p = _poly("x1^2+3*x1*x2+x2^2+2*x1")
    assert p.restrict_axis(0).coeffs == (0, 2, 1)
    assert p.restrict_axis(1).coeffs == (0, 0, 1)
    assert MultiPoly.zero(2).restrict_axis(0).is_zero()


def test_linear_coeffs():
    p = _poly("3*x1-1/2*x2+x1^2")
    assert p.linear_coeffs() == (Fraction(3), Fraction(-1, 2))
    assert MultiPoly.constant(2, 5).linear_coeffs() == (0, 0)


def test_evaluate():
    p = _poly("x1^2+x2^2")
    assert p.evaluate([3, 4]) == 25
    assert p.evaluate([Fraction(1, 2), 0]) == Fraction(1, 4)
    with pytest.raises(ValueError, match="dimension"):
        p.evaluate([1])


def test_substitute():
    p = _poly("x1^2+x2^2")
    # Substitute the plane curve (t, t^2) written in one variable.
    t = MultiPoly.variable(1, 0)
    curve = p.substitute([t, t * t])
    assert curve == parse_polynomial("x1^2+x1^4", 1)
    with pytest.raises(ValueError, match="one replacement"):
        p.substitute([t])
    with pytest.raises(ValueError, match="variable counts"):
        p.substitute([t, MultiPoly.variable(2, 0)])


def test_compose_with():
    psi = UniPoly((0, 1, 1))  # t + t^2
    s = _poly("x1^2+x2^2")
    assert compose_with(psi, s) == _poly("x1^4+2*x1^2*x2^2+x2^4+x1^2+x2^2")
    assert compose_with(UniPoly(), s).is_zero()


@pytest.mark.parametrize(
    "text, expected",
    [
        ("x1^2+x2^2", "x1^2+x2^2"),
        ("x2^2 + x1^2", "x1^2+x2^2"),
        ("3/2*x1*x2^3-x1", "3/2*x1*x2^3-x1"),
        ("0", "0"),
        ("-x1", "-x1"),
        ("x1-x1", "0"),
        ("2*x1^2", "2*x1^2"),
        ("1/2", "1/2"),
        ("x1*x1", "x1^2"),
        ("x1^0", "1"),
    ],
)
def test_parse_and_format(text, expected):
    assert str(parse_polynomial(text, 2)) == expected


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("x", "variable needs an index", 0),
        ("x3", "out of range", 0),
        ("1/0", "division by zero", 2),
        ("x1^", "expected an exponent", 3),
        ("x1+*x2", "expected a variable", 3),
        ("x1 @ x2", "unexpected character", 3),
        ("3*", "expected a variable", 2),
        ("x1 5", "unexpected", 3),
        # str.isdigit() accepts a superscript two, which int() cannot read.
        ("x\u00b2", "variable needs an index", 0),
        ("x1^\u00b2", "unexpected character", 3),
        pytest.param("1" * 5000, "too long to read", 0, id="5000-digit number"),
        pytest.param("x" + "1" * 5000, "too long to read", 1, id="5000-digit index"),
    ],
)
def test_parse_errors_carry_positions(text, message, position):
    with pytest.raises(PolyParseError, match=message) as info:
        parse_polynomial(text, 2)
    assert info.value.position == position


_exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
_multipolys = st.dictionaries(_exponents, _small_fracs, max_size=5).map(
    lambda terms: MultiPoly(2, terms)
)


@given(_multipolys)
def test_multipoly_format_parse_round_trip(p):
    assert parse_polynomial(str(p), 2) == p


@given(_multipolys, _multipolys, _small_fracs, _small_fracs)
def test_multipoly_evaluation_is_ring_hom(p, q, a, b):
    point = (a, b)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


@given(_multipolys, _small_fracs)
def test_restrict_axis_matches_evaluation(p, a):
    assert p.restrict_axis(0)(a) == p.evaluate((a, 0))
    assert p.restrict_axis(1)(a) == p.evaluate((0, a))


# ------------------------------------------------- integer product kernel


def _schoolbook(p, q):
    """Reference product: one Fraction multiply and add per term pair."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def _assert_canonical(poly):
    """Every stored coefficient is a nonzero Fraction, and the result equals
    (and hashes like) the public constructor's polynomial on the same dict."""
    assert all(type(c) is Fraction and c != 0 for c in poly.terms.values())
    rebuilt = MultiPoly(poly.nvars, dict(poly.terms))
    assert poly == rebuilt
    assert hash(poly) == hash(rebuilt)


# Mixed denominators, so the operands' common denominators differ.
_mixed_fracs = st.builds(
    Fraction,
    st.integers(-6, 6),
    st.sampled_from((1, 2, 3, 4, 5, 6, 7, 12)),
)
_exponents3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
_multipolys3 = st.dictionaries(_exponents3, _mixed_fracs, max_size=6).map(
    lambda terms: MultiPoly(3, terms)
)


@settings(max_examples=150, deadline=None)
@given(_multipolys3, _multipolys3)
def test_product_matches_schoolbook(p, q):
    for product, reference in (
        (p * q, _schoolbook(p, q)),
        (p * p, _schoolbook(p, p)),
        # (p + q)(p - q): the cross terms cancel inside one product.
        ((p + q) * (p - q), _schoolbook(p + q, p - q)),
    ):
        assert dict(product.terms) == reference
        _assert_canonical(product)
    assert ((p + q) * (p - q)) == p * p - q * q
    assert (p * (q - q)).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.lists(_multipolys3, min_size=1, max_size=4))
def test_sum_of_squares_matches_products(polys):
    expected = MultiPoly.zero(3)
    for p in polys:
        expected = expected + MultiPoly(3, _schoolbook(p, p))
    total = sum_of_squares(polys)
    assert total == expected
    _assert_canonical(total)


def _schoolbook_squares(polys):
    """Reference p1^2 + ... + pk^2: one Fraction multiply and add per ordered
    term pair of each component."""
    out = {}
    for p in polys:
        for e, c in _schoolbook(p, p).items():
            out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def _square_fractions(polys):
    terms, den = square_numerators(polys)
    assert all(type(n) is int and n != 0 for n in terms.values())
    return {e: Fraction(n, den) for e, n in terms.items()}


@pytest.mark.parametrize(
    "nvars, texts",
    [
        (2, ("x1+x2", "x1-x2")),  # the x1*x2 terms cancel across components
        (2, ("1/2*x1-2/3*x2", "3/4*x1*x2+5/6*x2^2", "1/7*x2^3")),
        (3, ("7/3*x1*x2^2*x3", "0", "-x3")),  # one-term and zero components
        (1, ("x1+1/2*x1^3", "-2/5*x1^2")),
        (1, ("0",)),
        (2, ("x1^4*x2-x1*x2^4",)),
    ],
)
def test_square_numerators_matches_schoolbook(nvars, texts):
    polys = [parse_polynomial(text, nvars) for text in texts]
    assert _square_fractions(polys) == _schoolbook_squares(polys)


@settings(max_examples=60, deadline=None)
@given(st.lists(_multipolys3, min_size=1, max_size=4))
def test_square_numerators_matches_schoolbook_on_random_polys(polys):
    assert _square_fractions(polys) == _schoolbook_squares(polys)


@given(_multipolys3, _mixed_fracs)
def test_scalar_product_and_sums_stay_canonical(p, factor):
    for result in (p * factor, factor * p, p + p, p - p, -p, p**3):
        _assert_canonical(result)
    assert dict((p * factor).terms) == {
        e: c * factor for e, c in p.terms.items() if c * factor != 0
    }


@pytest.mark.parametrize("power", range(8))
def test_power_by_squaring_matches_repeated_products(power):
    base = _poly("1/2*x1-2/3*x2+3")
    expected = MultiPoly.constant(2, 1)
    for _ in range(power):
        expected = MultiPoly(2, _schoolbook(expected, base))
    assert base**power == expected


def test_huge_exponents_take_logarithmic_time():
    started = time.perf_counter()
    poly = parse_polynomial("x1^1000000000*x2^3", 2)
    power = MultiPoly.variable(2, 0) ** 1_000_000_000
    assert time.perf_counter() - started < 1.0
    assert poly.terms == {(1_000_000_000, 3): Fraction(1)}
    assert power.terms == {(1_000_000_000, 0): Fraction(1)}
    assert str(poly) == "x1^1000000000*x2^3"


def _cancelling_text():
    """100 terms: 25 pairs that cancel exactly, 25 x1*x2 that alternate in
    sign and 25 x1-powers that pile up on four monomials."""
    parts = []
    for k in range(1, 26):
        parts.append(f"{k}/{k + 1}*x1^{k % 5}*x2^{k % 3}")
        parts.append(f"-{k}/{k + 1}*x2^{k % 3}*x1^{k % 5}")
        parts.append(f"1/{k}*x1^{k % 4}")
        parts.append("x1*x2" if k % 2 else "-x1*x2")
    return "+".join(parts).replace("+-", "-")


def test_parse_many_cancelling_terms():
    poly = parse_polynomial(_cancelling_text(), 2)
    # Both expectations were captured from the term-by-term MultiPoly sum.
    assert poly.terms == {
        (1, 0): Fraction(534113, 348075),
        (2, 0): Fraction(3254, 3465),
        (3, 0): Fraction(122798, 168245),
        (0, 0): Fraction(49, 80),
        (1, 1): Fraction(1),
    }
    assert str(poly) == "122798/168245*x1^3+3254/3465*x1^2+x1*x2+534113/348075*x1+49/80"
    _assert_canonical(poly)


# ------------------------------------------------------ exactness guards


_P = MultiPoly.variable(2, 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: MultiPoly(2, {(1, 0): 0.1}),
        lambda: MultiPoly(2, {(1.0, 0): 1}),
        lambda: MultiPoly.constant(2, 0.5),
        lambda: UniPoly((0.1,)),
        lambda: UniPoly((1, 2)).scale(0.5),
        lambda: UniPoly((1, 2))(0.5),
        lambda: _P.evaluate([0.5, 1]),
        lambda: _P * 0.5,
        lambda: 0.5 * _P,
        lambda: _P + 1,
        lambda: 1 + _P,
        lambda: _P - 1,
        lambda: _P + 0.5,
        lambda: UniPoly((1,)) + 1,
        lambda: UniPoly((1,)) * 0.5,
    ],
    ids=[
        "float-coefficient",
        "float-exponent",
        "float-constant",
        "unipoly-float-coefficient",
        "unipoly-float-scale",
        "unipoly-float-point",
        "float-point",
        "times-float",
        "float-times",
        "plus-int",
        "int-plus",
        "minus-int",
        "plus-float",
        "unipoly-plus-int",
        "unipoly-times-float",
    ],
)
def test_floats_and_foreign_operands_are_rejected(build):
    with pytest.raises(TypeError):
        build()


def test_unsupported_operands_return_not_implemented():
    assert _P.__add__(1) is NotImplemented
    assert _P.__sub__(1) is NotImplemented
    assert _P.__mul__(0.5) is NotImplemented
    assert _P.__mul__("x1") is NotImplemented


def test_exact_scalars_are_still_accepted():
    assert _P * Fraction(1, 2) == Fraction(1, 2) * _P == _poly("1/2*x1")
    assert _P * True == _P
    assert (_P * 0).is_zero()
    assert UniPoly((1, 2)).scale(Fraction(1, 3)).coeffs == (Fraction(1, 3), Fraction(2, 3))
    assert _poly("x1^2+x2").evaluate([Fraction(1, 2), 3]) == Fraction(13, 4)
