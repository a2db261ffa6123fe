"""Tangent-space computations for orthogonal-group orbit spaces.

The n-th orbit space is R^n modulo the orthogonal group, based at the
cone point.  Smooth invariant function germs there are exactly germs of
the form Psi(|x|^2) for a smooth one-variable profile Psi; this module
works with polynomial profiles.  The derivation D_n reads off Psi'(0) --
equivalently half the second x1-derivative of the invariant function at
the origin.

Smooth maps between orbit spaces are represented by polynomial lifts
F: R^m -> R^n with F(0) = 0 that are radius-preserving in the weak sense
|F(x)|^2 = Psi_F(|x|^2); validate_lift checks that identity exactly and
extracts the profile.  The pushforward of D_m along such a lift scales by
Psi_F'(0), and the linear part A of F obeys A^T A = Psi_F'(0) * I_m, which
forces the scale to vanish whenever m > n (the rank obstruction).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .polynomials import (
    MultiPoly,
    UniPoly,
    _monomial_text,
    compose_with,
    parse_polynomial,
    square_numerators,
)
from .quad_field import _exact
from .spaces import (
    COMPUTED,
    REGISTERED,
    FunctorKind,
    OrbitSpace,
    TangentReport,
)

ORBIT_GENERATOR = "D_n"
EMBED_GENERATOR = "embed_*(D_m)"

# Invariant germs keep polynomial profiles of bounded degree so every
# operation stays exact and small.
GERM_DEGREE_BOUND = 8


def _check_profile_degree(degree: int) -> None:
    if degree > GERM_DEGREE_BOUND:
        raise ValueError(f"profile degree {degree} exceeds bound {GERM_DEGREE_BOUND}")


@dataclass(frozen=True)
class InvariantGerm:
    """Invariant function germ Psi(|x|^2) with polynomial profile Psi."""

    psi: UniPoly

    def __post_init__(self):
        _check_profile_degree(self.psi.degree)

    def __str__(self) -> str:
        return str(self.psi)


@dataclass(frozen=True)
class Derivation:
    """Element coeff * D_n of the right tangent space."""

    coeff: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coeff", _exact(self.coeff))


class InvalidLiftError(ValueError):
    """The polynomial map is not radius-preserving; names one offender."""

    def __init__(self, monomial: str):
        super().__init__(
            f"not an invariant lift: offending monomial {monomial} in |F|^2"
        )
        self.monomial = monomial


@dataclass(frozen=True)
class PolyLift:
    """Polynomial map F: R^m -> R^n with F(0) = 0."""

    m: int
    n: int
    components: tuple[MultiPoly, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if self.m < 1 or self.n < 1:
            raise ValueError("lift dimensions must be >= 1")
        if len(self.components) != self.n:
            raise ValueError("component count must equal the target dimension")
        for comp in self.components:
            if comp.nvars != self.m:
                raise ValueError("components must be polynomials in x1..xm")
            if comp.constant_term != 0:
                raise ValueError("lift components must vanish at the origin")

    @staticmethod
    def from_text(m: int, text: str) -> "PolyLift":
        body = text.strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        parts = [part.strip() for part in body.split(";")]
        if any(not part for part in parts):
            raise ValueError("empty lift component")
        comps = tuple(parse_polynomial(part, m) for part in parts)
        return PolyLift(m, len(comps), comps)

    def to_text(self) -> str:
        return "(" + "; ".join(str(c) for c in self.components) + ")"


def norm_square_poly(m: int) -> MultiPoly:
    """x1^2 + ... + xm^2."""
    total = MultiPoly.zero(m)
    for j in range(m):
        total = total + MultiPoly.variable(m, j) ** 2
    return total


def radial_poly(psi: UniPoly, m: int) -> MultiPoly:
    """psi(x1^2 + ... + xm^2), expanded by the multinomial theorem.

    The coefficient of x^(2a) is psi_j * j!/(a1! ... am!) with j = |a|.
    """
    terms = {}
    for j, coeff in enumerate(psi.coeffs):
        if coeff:
            # (exponents so far, multinomial coefficient so far, degree left)
            level = [((), 1, j)]
            for _ in range(m - 1):
                level = [
                    (exps + (2 * a,), ways * comb(left, a), left - a)
                    for exps, ways, left in level
                    for a in range(left + 1)
                ]
            for exps, ways, left in level:
                terms[exps + (2 * left,)] = coeff * ways
    return MultiPoly(m, terms)


def standard_embedding(m: int, n: int) -> PolyLift:
    """(x1, ..., xm, 0, ..., 0): R^m -> R^n for m <= n."""
    if not 1 <= m <= n:
        raise ValueError("standard embedding needs 1 <= m <= n")
    comps = tuple(MultiPoly.variable(m, j) for j in range(m)) + tuple(
        MultiPoly.zero(m) for _ in range(n - m)
    )
    return PolyLift(m, n, comps)


def _first_missing(terms, j: int, m: int, below) -> Optional[tuple[int, ...]]:
    """The smallest x^(2a) with |a| = j that is not a key of terms.

    Walks the exponent tuples of degree 2j in increasing order, so it
    takes at most len(terms) + 1 steps; returns None once the walk reaches
    `below` (when not None) or runs out.
    """
    exps = [0] * m
    exps[-1] = 2 * j
    while True:
        key = tuple(exps)
        if below is not None and key >= below:
            return None
        if key not in terms:
            return key
        # Successor: raise the entry just before the last nonzero one and
        # move what that one held, less the raise, to the final slot.
        last = max((k for k, e in enumerate(exps) if e), default=0)
        if last == 0:
            return None
        rest = exps[last]
        exps[last - 1] += 2
        exps[last:] = [0] * (m - last)
        exps[-1] = rest - 2


def validate_lift(lift: PolyLift) -> InvariantGerm:
    """Check |F(x)|^2 = Psi(|x|^2) exactly and return the profile.

    |F|^2 is summed once as integer numerators N over one denominator.
    The candidate profile is read off its x1-axis terms, whose odd powers
    must vanish: N_j multiplies x1^(2j).  Psi(|x|^2) is never expanded.
    Instead every term x^(2a) with |a| = j must equal N_j * j!/(a1!...am!),
    and the terms must number the sum of C(j+m-1, m-1) over the j with
    N_j != 0, so none of Psi(|x|^2) is missing.  Otherwise raises
    InvalidLiftError naming the smallest monomial where the two sides
    differ.
    """
    m = lift.m
    terms, den = square_numerators(lift.components)
    zeros = (0,) * (m - 1)
    axis = {e[0]: n for e, n in terms.items() if e[1:] == zeros}
    odd = min((i for i in axis if i % 2), default=None)
    if odd is not None:
        raise InvalidLiftError("x1" if odd == 1 else f"x1^{odd}")
    profile = {i // 2: n for i, n in axis.items()}
    # Where Psi(|x|^2) has more terms than |F|^2 a monomial is missing for
    # sure; finding it first keeps the multinomials below small.
    required, offender = 0, None
    for j in profile:
        count = comb(j + m - 1, m - 1)
        required += count
        if count > len(terms):
            offender = _first_missing(terms, j, m, offender) or offender
    matched = 0
    for exps, n in terms.items():
        if offender is not None and exps >= offender:
            continue
        # An odd total degree meets an odd exponent in the loop below.
        scale = profile.get(sum(exps) // 2)
        if scale is not None:
            ways, left = 1, 0
            for e in exps:
                if e & 1:
                    break
                if e:
                    left += e >> 1
                    ways *= comb(left, e >> 1)
            else:
                if n == scale * ways:
                    matched += 1
                    continue
        offender = exps
    if offender is None and matched == required:
        top = max(profile, default=-1)
        _check_profile_degree(top)
        return InvariantGerm(
            UniPoly(tuple(Fraction(profile.get(j, 0), den) for j in range(top + 1)))
        )
    for j in profile:
        offender = _first_missing(terms, j, m, offender) or offender
    raise InvalidLiftError(_monomial_text(offender))


def derivation_value(derivation: Derivation, germ: InvariantGerm) -> Fraction:
    """Apply coeff * D_n to the germ: coeff * Psi'(0)."""
    return derivation.coeff * germ.psi.coeff(1)


def pushforward(lift: PolyLift, derivation: Derivation) -> Derivation:
    """Pushforward along the map induced by the lift: scale by Psi_F'(0)."""
    germ = validate_lift(lift)
    return Derivation(derivation.coeff * germ.psi.coeff(1))


@dataclass(frozen=True)
class RankObstruction:
    """Linear part A of a lift, its Gram matrix A^T A, and the scalar.

    For a valid lift the Gram matrix equals scalar * identity; scalar is
    None when the Gram matrix is not of that shape (which certifies the
    lift invalid).
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    gram: tuple[tuple[Fraction, ...], ...]
    scalar: Optional[Fraction]


def rank_obstruction(lift: PolyLift) -> RankObstruction:
    """Compute the linear part, its Gram matrix, and the forced scalar."""
    rows = tuple(comp.linear_coeffs() for comp in lift.components)
    gram = tuple(
        tuple(
            sum((row[j] * row[k] for row in rows), Fraction(0))
            for k in range(lift.m)
        )
        for j in range(lift.m)
    )
    scalar: Optional[Fraction] = gram[0][0]
    for j in range(lift.m):
        for k in range(lift.m):
            expected = scalar if j == k else Fraction(0)
            if gram[j][k] != expected:
                scalar = None
    return RankObstruction(rows, gram, scalar)


@dataclass(frozen=True)
class LiftWitness:
    """A concrete lift, its radial profile, and its pushforward scale."""

    lift: PolyLift
    psi: UniPoly
    pushforward: Fraction

    def __str__(self) -> str:
        return f"lift {self.lift.to_text()}, psi = {self.psi}, pushforward = {self.pushforward}"


_EMBED_JUSTIFICATION = (
    "the standard embedding is an invariant lift with radial profile t, so "
    "the generating derivation pushes forward with coefficient 1"
)
_RANK_JUSTIFICATION = (
    "the linear part A of any invariant lift satisfies A^T A = Psi'(0) * I, "
    "whose rank is at most the target dimension; with more source than "
    "target dimensions the scalar, hence every pushforward, must vanish"
)


def theorem2_dim(m: int, n: int) -> TangentReport:
    """Dimension of the orbit-space-tested right tangent space.

    The space is the n-th orbit space, the test the m-th; generators are
    pushforwards of D_m along maps from the test into the space.  The
    answer is 1 exactly when m <= n.
    """
    space = OrbitSpace(n)
    functor = FunctorKind.y_right(OrbitSpace(m))
    if m <= n:
        emb = standard_embedding(m, n)
        germ = validate_lift(emb)
        scale = germ.psi.coeff(1)
        return TangentReport(
            space=space,
            functor=functor,
            dimension=1,
            generators=(EMBED_GENERATOR,),
            witness=LiftWitness(emb, germ.psi, scale),
            status=COMPUTED,
            justification=_EMBED_JUSTIFICATION,
        )
    return TangentReport(
        space=space,
        functor=functor,
        dimension=0,
        generators=(),
        witness=None,
        status=REGISTERED,
        justification=_RANK_JUSTIFICATION,
    )


def compose_lifts(outer: PolyLift, inner: PolyLift) -> PolyLift:
    """The composite lift outer(inner(x))."""
    if inner.n != outer.m:
        raise ValueError("inner target dimension must match outer source")
    comps = tuple(c.substitute(inner.components) for c in outer.components)
    return PolyLift(inner.m, outer.n, comps)


def _random_profile(tdeg: int, rng: random.Random, force_nonzero: bool) -> UniPoly:
    coeffs = [Fraction(0)] + [
        Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(tdeg)
    ]
    poly = UniPoly(tuple(coeffs))
    if force_nonzero and poly.is_zero():
        poly = UniPoly((Fraction(0), Fraction(1)))
    return poly


def _radial_lift(m: int, n: int, tdeg: int, rng: random.Random) -> PolyLift:
    # F = h(|x|^2) * e1 + G(|x|^2) * e2 (both profiles on e1 when n == 1);
    # then |F|^2 = (h^2 + G^2)(|x|^2), so the lift is always valid.
    h = _random_profile(tdeg, rng, force_nonzero=True)
    g = _random_profile(tdeg, rng, force_nonzero=False)
    s = norm_square_poly(m)
    comps = [MultiPoly.zero(m) for _ in range(n)]
    if n == 1:
        comps[0] = compose_with(h + g, s)
    else:
        comps[0] = compose_with(h, s)
        comps[1] = compose_with(g, s)
    return PolyLift(m, n, tuple(comps))


def random_valid_lift(m: int, n: int, degree: int = 4, seed: int = 0) -> PolyLift:
    """Deterministic pseudo-random valid lift R^m -> R^n for m > n >= 1.

    Draws from the radial family h(|x|^2)*v + G(|x|^2)*w (v, w the first
    two basis vectors), occasionally composing two such lifts through an
    intermediate dimension.  Components have total degree at most
    `degree`, which must lie in 2..8 so profiles respect the germ degree
    bound.  The same (m, n, degree, seed) always returns the same lift.
    """
    if not (isinstance(m, int) and isinstance(n, int) and m > n >= 1):
        raise ValueError("random_valid_lift requires m > n >= 1")
    if not 2 <= degree <= GERM_DEGREE_BOUND:
        raise ValueError(f"degree must lie in 2..{GERM_DEGREE_BOUND}")
    rng = random.Random(seed)
    if m - n >= 2 and degree >= 4 and rng.random() < 0.5:
        mid = rng.randrange(n + 1, m)
        inner = _radial_lift(m, mid, max(1, degree // 4), rng)
        outer = _radial_lift(mid, n, 1, rng)
        return compose_lifts(outer, inner)
    return _radial_lift(m, n, degree // 2, rng)
