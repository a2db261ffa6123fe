"""Tests for tangent computations on irrational tori."""

from fractions import Fraction
from itertools import combinations

import pytest

from difftan import (
    CONSTANT_GERMS,
    TORUS_GENERATOR,
    FunctorKind,
    IrrationalTorus,
    MobiusWitness,
    TorusHomReport,
    compose_hom,
    diffeomorphic,
    hom_nonconstant,
    mobius_apply,
    parse_quadratic,
    same_field,
    tangent,
    y_internal_dim,
)
from difftan.quad_field import _surd_expansion


def _torus(text):
    return IrrationalTorus(parse_quadratic(text))


SQRT2 = _torus("sqrt(2)")
SILVER = _torus("1+sqrt(2)")
GOLDEN = _torus("(1+sqrt(5))/2")
SQRT5 = _torus("sqrt(5)")
SQRT3 = _torus("sqrt(3)")


def test_torus_requires_irrational_slope():
    with pytest.raises(ValueError, match="torus slope must be irrational"):
        IrrationalTorus(Fraction(3, 2))


def test_hom_witness_between_related_slopes():
    # 1 + sqrt(2) = (1 + 1*sqrt(2)) / 1, so the lift t -> t + mu works.
    report = hom_nonconstant(SILVER, SQRT2)
    assert report.nonconstant_exists
    assert report.witness == MobiusWitness(1, 1, 1, 0)
    assert report.basis_action == 1


def test_hom_identity():
    report = hom_nonconstant(SQRT2, SQRT2)
    assert report.witness == MobiusWitness(0, 1, 1, 0)
    assert report.basis_action == 1


def test_hom_clears_denominators():
    # golden = (1 + 1*sqrt(5)) / 2: the witness scales by c = 2.
    report = hom_nonconstant(GOLDEN, SQRT5)
    assert report.witness == MobiusWitness(1, 1, 2, 0)
    assert report.basis_action == 2


def test_hom_absent_across_fields():
    report = hom_nonconstant(SQRT2, SQRT3)
    assert report == TorusHomReport(False, None, None)


def test_hom_report_invariant():
    with pytest.raises(ValueError, match="accompany"):
        TorusHomReport(True, None, Fraction(1))
    with pytest.raises(ValueError, match="accompany"):
        TorusHomReport(True, MobiusWitness(0, 1, 1, 0), Fraction(0))
    with pytest.raises(ValueError, match="accompany"):
        TorusHomReport(False, MobiusWitness(0, 1, 1, 0), Fraction(1))


def test_compose_hom_multiplies_actions():
    f = hom_nonconstant(SILVER, SQRT2)
    g = hom_nonconstant(SQRT2, SILVER)
    gf = compose_hom(f, g)
    assert gf.nonconstant_exists
    assert gf.basis_action == f.basis_action * g.basis_action
    # The composed witness still expresses the source slope in the target.
    assert mobius_apply(gf.witness, SILVER.slope) == SILVER.slope


def test_compose_hom_with_constant_leg():
    f = hom_nonconstant(SQRT2, SQRT3)
    g = hom_nonconstant(SQRT3, SQRT3)
    assert not compose_hom(f, g).nonconstant_exists
    assert not compose_hom(g, f).nonconstant_exists


def test_y_internal_keeps_generator_within_field():
    report = y_internal_dim(SILVER, SQRT2)
    assert report.dimension == 1
    assert report.generators == (TORUS_GENERATOR,)
    assert report.status == "computed"
    assert report.witness == MobiusWitness(1, 1, 1, 0)


def test_y_internal_collapses_across_fields():
    report = y_internal_dim(SQRT2, SQRT3)
    assert report.dimension == 0
    assert report.generators == ()
    assert report.witness is None
    assert report.justification == CONSTANT_GERMS


def test_y_internal_dichotomy_matches_fields(acceptance_pool):
    tori = [IrrationalTorus(slope) for slope in acceptance_pool]
    for a in tori:
        for b in tori:
            expected = 1 if same_field(a.slope, b.slope) else 0
            assert y_internal_dim(a, b).dimension == expected


def test_dichotomy_is_symmetric(field_pool):
    tori = [IrrationalTorus(s) for s in field_pool]
    for a, b in combinations(tori, 2):
        assert (
            hom_nonconstant(a, b).nonconstant_exists
            == hom_nonconstant(b, a).nonconstant_exists
        )


def test_witness_soundness_over_pool(field_pool):
    for x in field_pool:
        for y in field_pool:
            report = hom_nonconstant(IrrationalTorus(x), IrrationalTorus(y))
            assert report.nonconstant_exists == same_field(x, y)
            if report.nonconstant_exists:
                assert mobius_apply(report.witness, y) == x
                assert report.basis_action == report.witness.c != 0


def test_diffeomorphic_refines_nonconstancy(field_pool):
    # A diffeomorphism witness forces maps both ways; the converse can fail.
    for x in field_pool:
        for y in field_pool:
            a, b = IrrationalTorus(x), IrrationalTorus(y)
            w = diffeomorphic(a, b)
            if w is not None:
                assert abs(w.det) == 1
                assert mobius_apply(w, y) == x
                assert hom_nonconstant(a, b).nonconstant_exists
                assert hom_nonconstant(b, a).nonconstant_exists


def test_same_field_yet_not_diffeomorphic():
    # golden and sqrt(5) live in the same field, so each maps nonconstantly
    # to the other, but no unimodular witness exists: their continued
    # fraction expansions share no tail.
    assert hom_nonconstant(GOLDEN, SQRT5).nonconstant_exists
    assert hom_nonconstant(SQRT5, GOLDEN).nonconstant_exists
    assert diffeomorphic(GOLDEN, SQRT5) is None
    _, golden_tails, _ = _surd_expansion(GOLDEN.slope)
    _, sqrt5_tails, _ = _surd_expansion(SQRT5.slope)
    assert not set(golden_tails) & set(sqrt5_tails)
    # Both tori still have identical one-dimensional y-internal reports.
    assert y_internal_dim(GOLDEN, GOLDEN).dimension == 1
    assert y_internal_dim(SQRT5, SQRT5).dimension == 1


def test_diffeomorphic_within_field_example():
    w = diffeomorphic(SQRT2, SILVER)
    assert w == MobiusWitness(1, 1, 0, 1)
    assert mobius_apply(w, SILVER.slope) == SQRT2.slope


def _classical_dims(torus):
    return {
        name: tangent(torus, FunctorKind(name))
        for name in ("internal", "vincent", "right")
    }


def test_classical_dims():
    dims = _classical_dims(SQRT2)
    assert {name: r.dimension for name, r in dims.items()} == {
        "internal": 1,
        "vincent": 0,
        "right": 0,
    }
    assert dims["internal"].generators == (TORUS_GENERATOR,)
    assert dims["internal"].status == "registered-by-theorem"
    assert dims["vincent"].generators == ()
    # The dimensions do not depend on the slope.
    assert {name: r.dimension for name, r in _classical_dims(GOLDEN).items()} == {
        name: r.dimension for name, r in dims.items()
    }
