"""Shared vocabulary: based spaces, tangent constructions, and reports.

Three families of based spaces are supported: Euclidean opens (R^k based
at 0), irrational tori (the quotient of the line by Z + alpha*Z for an
irrational quadratic slope alpha, based at the origin coset), and orbit
spaces (R^n modulo the orthogonal group, based at the cone point).
Basepoints are fixed by these descriptions and never appear explicitly.

A tangent construction is either classical (internal, right, vincent) or
parameterized by a based test space (y-internal, y-right).  Results are
TangentReport records: an exact dimension with generator labels, an
optional witness object, a status telling whether the number was computed
by this tool or registered from a proved classification, and a short
justification.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .quad_field import QuadraticIrrational, format_surd, parse_quadratic

COMPUTED = "computed"
REGISTERED = "registered-by-theorem"
UNDETERMINED = "undetermined-by-theory"

CLASSICAL_FUNCTORS = ("internal", "vincent", "right")
TEST_FUNCTORS = ("y-internal", "y-right")

# Largest k in "R^k" (its reports list k generators) and n in "orbit:n"
# (a pair of orbit spaces runs theorem2_dim, whose time grows faster than
# n^2: about 40 times as long at n = 256 as at n = 64).
MAX_EUCLIDEAN_DIM = 1000
MAX_ORBIT_DIM = 64


@dataclass(frozen=True)
class EuclideanSpace:
    """R^k based at the origin."""

    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 0:
            raise ValueError("Euclidean dimension must be an integer >= 0")

    @property
    def label(self) -> str:
        return f"R^{self.dim}"


@dataclass(frozen=True)
class IrrationalTorus:
    """R / (Z + slope*Z) for an irrational quadratic slope, based at 0."""

    slope: QuadraticIrrational

    def __post_init__(self):
        if not isinstance(self.slope, QuadraticIrrational):
            raise ValueError("torus slope must be irrational")

    @property
    def label(self) -> str:
        return f"torus:{format_surd(self.slope)}"


@dataclass(frozen=True)
class OrbitSpace:
    """R^n modulo the orthogonal group O(n), based at the cone point."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("orbit-space index must be an integer >= 1")

    @property
    def label(self) -> str:
        return f"orbit:{self.n}"


# A `|` union, not typing.Union: typing caches every Union[...] for the life
# of the process, which would keep these classes, and the modules they
# reference, alive after the package is imported anew.
Space = EuclideanSpace | IrrationalTorus | OrbitSpace


def parse_space(text: str) -> Space:
    """Parse "R^k", "torus:<expr>", or "orbit:<n>"."""
    text = text.strip()
    if text.startswith("R^"):
        body = text[2:]
        if not body.isdecimal():
            raise ValueError(f"bad Euclidean dimension in {text!r}")
        if int(body) > MAX_EUCLIDEAN_DIM:
            raise ValueError(f"dimension in {text!r} exceeds {MAX_EUCLIDEAN_DIM}")
        return EuclideanSpace(int(body))
    if text.startswith("torus:"):
        slope = parse_quadratic(text[len("torus:") :])
        if isinstance(slope, Fraction):
            raise ValueError("torus slope must be irrational")
        return IrrationalTorus(slope)
    if text.startswith("orbit:"):
        body = text[len("orbit:") :].strip()
        if not body.isdecimal() or int(body) < 1:
            raise ValueError(f"bad orbit-space index in {text!r}")
        if int(body) > MAX_ORBIT_DIM:
            raise ValueError(f"orbit-space index in {text!r} exceeds {MAX_ORBIT_DIM}")
        return OrbitSpace(int(body))
    raise ValueError(
        f"unrecognized space {text!r}; expected R^k, torus:<expr>, or orbit:<n>"
    )


@dataclass(frozen=True)
class FunctorKind:
    """A tangent construction: classical, or relative to a based test space."""

    name: str
    test: Optional[Space] = None

    def __post_init__(self):
        if self.name in CLASSICAL_FUNCTORS:
            if self.test is not None:
                raise ValueError(f"{self.name} does not take a test space")
        elif self.name in TEST_FUNCTORS:
            if self.test is None:
                raise ValueError(f"{self.name} requires a test space")
        else:
            raise ValueError(f"unknown tangent construction {self.name!r}")

    @property
    def label(self) -> str:
        if self.test is None:
            return self.name
        return f"{self.name}({self.test.label})"

    @staticmethod
    def internal() -> "FunctorKind":
        return FunctorKind("internal")

    @staticmethod
    def vincent() -> "FunctorKind":
        return FunctorKind("vincent")

    @staticmethod
    def right() -> "FunctorKind":
        return FunctorKind("right")

    @staticmethod
    def y_internal(test: Space) -> "FunctorKind":
        return FunctorKind("y-internal", test)

    @staticmethod
    def y_right(test: Space) -> "FunctorKind":
        return FunctorKind("y-right", test)


@dataclass(frozen=True)
class TangentReport:
    """Outcome of one tangent-space computation.

    dimension is None exactly when the status is undetermined; otherwise
    the generator labels enumerate a basis, so their count equals the
    dimension.
    """

    space: Space
    functor: FunctorKind
    dimension: Optional[int]
    generators: tuple[str, ...]
    witness: object
    status: str
    justification: str

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if self.status not in (COMPUTED, REGISTERED, UNDETERMINED):
            raise ValueError(f"unknown status {self.status!r}")
        if (self.dimension is None) != (self.status == UNDETERMINED):
            raise ValueError("dimension must be absent exactly when undetermined")
        if self.dimension is not None and len(self.generators) != self.dimension:
            raise ValueError("generator count must equal the dimension")

    @property
    def determined(self) -> bool:
        return self.dimension is not None
