"""Tangent-space computations for irrational tori.

The torus with slope alpha is the quotient of the real line by the dense
subgroup Z + alpha*Z.  Its D-topology is indiscrete, so germs of smooth
maps at the basepoint are global smooth maps.

Nonconstant smooth maps between two such tori exist exactly when the
slopes are related by an integer Moebius transformation (equivalently,
generate the same real quadratic field); any such map is induced by an
affine lift t -> lambda*t + mu, and its pushforward scales the generator
by lambda.  That dichotomy drives the test-relative internal tangent
space below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .quad_field import (
    MobiusWitness,
    gl2z_equivalent,
    mobius_compose,
    mobius_witness,
)
from .spaces import COMPUTED, FunctorKind, IrrationalTorus, TangentReport

TORUS_GENERATOR = "[π_α, ∂/∂t]"

CONSTANT_GERMS = "all germs constant; D-topology indiscrete"
_SAME_FIELD = (
    "the slopes are related by an integer Moebius transformation, so the "
    "witnessed affine map pushes the generator forward with nonzero scale "
    "and the refining relation identifies nothing new"
)


@dataclass(frozen=True)
class TorusHomReport:
    """Classification of smooth maps between two based irrational tori.

    When a nonconstant map exists, witness relates the slopes by
    source_slope = (a + b*target_slope) / c and basis_action is the slope
    of a concrete affine lift, i.e. the scale by which the pushforward
    multiplies the generator.
    """

    nonconstant_exists: bool
    witness: Optional[MobiusWitness]
    basis_action: Optional[Fraction]

    def __post_init__(self):
        has_witness = self.witness is not None
        has_action = self.basis_action is not None and self.basis_action != 0
        if not (self.nonconstant_exists == has_witness == has_action):
            raise ValueError("witness and basis action must accompany nonconstancy")


def hom_nonconstant(
    source: IrrationalTorus, target: IrrationalTorus
) -> TorusHomReport:
    """Decide whether a nonconstant smooth map source -> target exists.

    The witness expresses the source slope through the target slope; the
    lift F(t) = c*t + mu (c the witness denominator) then carries the
    covering lattice Z + source_slope*Z into Z + target_slope*Z, since
    c*source_slope = a + b*target_slope.
    """
    witness = mobius_witness(source.slope, target.slope)
    if witness is None:
        return TorusHomReport(False, None, None)
    return TorusHomReport(True, witness, Fraction(witness.c))


def compose_hom(first: TorusHomReport, second: TorusHomReport) -> TorusHomReport:
    """Report for g . f given reports for f: A -> B and g: B -> C."""
    if not (first.nonconstant_exists and second.nonconstant_exists):
        return TorusHomReport(False, None, None)
    return TorusHomReport(
        True,
        mobius_compose(first.witness, second.witness),
        first.basis_action * second.basis_action,
    )


def y_internal_dim(space: IrrationalTorus, test: IrrationalTorus) -> TangentReport:
    """Test-relative internal tangent space of one torus against another.

    The construction refines the internal tangent space of `space` by all
    pushforwards into `test`; it keeps the generator exactly when a
    nonconstant map space -> test exists, and collapses to zero otherwise.
    """
    functor = FunctorKind.y_internal(test)
    hom = hom_nonconstant(space, test)
    if hom.nonconstant_exists:
        return TangentReport(
            space=space,
            functor=functor,
            dimension=1,
            generators=(TORUS_GENERATOR,),
            witness=hom.witness,
            status=COMPUTED,
            justification=_SAME_FIELD,
        )
    return TangentReport(
        space=space,
        functor=functor,
        dimension=0,
        generators=(),
        witness=None,
        status=COMPUTED,
        justification=CONSTANT_GERMS,
    )


def diffeomorphic(
    a: IrrationalTorus, b: IrrationalTorus
) -> Optional[MobiusWitness]:
    """Unimodular witness that the tori are diffeomorphic, or None.

    Diffeomorphism requires the Moebius relation between the slopes to be
    invertible over the integers, i.e. determinant +-1.
    """
    return gl2z_equivalent(a.slope, b.slope)
