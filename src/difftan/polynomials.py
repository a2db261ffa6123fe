"""Exact polynomial arithmetic over the rationals.

UniPoly is a univariate polynomial in the formal variable t; MultiPoly is
a polynomial in variables x1..xn.  Both are immutable, use Fraction
coefficients throughout, and print in a stable canonical form, so golden
comparisons are exact.  Coefficients, scalars and evaluation points must be
ints or other exact rationals; floats are rejected.  A small parser accepts
the text format used for polynomial lifts ("x1^2+x2^2" with rational
coefficients).

MultiPoly products run on integers: each operand is brought to integer
numerators over its own common denominator, exponent tuples are packed
into single integers, and one Fraction is built per output term.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Sequence

from .quad_field import _exact, _read_int


def _format_terms(parts: list[tuple[Fraction, str]]) -> str:
    """Join (coefficient, monomial) pairs into canonical text."""
    if not parts:
        return "0"
    pieces = []
    for coeff, mono in parts:
        mag = -coeff if coeff < 0 else coeff
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"-{body}" if coeff < 0 else f"+{body}")
    return "".join(pieces)


@dataclass(frozen=True)
class UniPoly:
    """Univariate polynomial; coeffs[i] multiplies t^i, trailing zeros trimmed."""

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self):
        cs = tuple(_exact(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(tuple(self.coeff(i) - other.coeff(i) for i in range(n)))

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(tuple(out))

    def scale(self, factor) -> "UniPoly":
        f = _exact(factor)
        return UniPoly(tuple(c * f for c in self.coeffs))

    def __call__(self, t) -> Fraction:
        t = _exact(t)
        value = Fraction(0)
        for c in reversed(self.coeffs):
            value = value * t + c
        return value

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """self(inner(t)) by Horner's rule."""
        result = UniPoly()
        for c in reversed(self.coeffs):
            result = result * inner + UniPoly((c,))
        return result

    def __str__(self) -> str:
        parts = [
            (c, "1" if i == 0 else ("t" if i == 1 else f"t^{i}"))
            for i, c in enumerate(self.coeffs)
            if c != 0
        ]
        return _format_terms(parts)


def _monomial_text(exponents: tuple[int, ...]) -> str:
    factors = [
        f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}"
        for j, e in enumerate(exponents)
        if e != 0
    ]
    return "*".join(factors) if factors else "1"


def _numerators(terms) -> tuple[list[tuple[tuple[int, ...], int]], int]:
    """Integer numerators of `terms` over their least common denominator."""
    den = lcm(*(c.denominator for c in terms.values()))
    return [(e, c.numerator * (den // c.denominator)) for e, c in terms.items()], den


def _products(pairs, nvars: int, den: int) -> dict[tuple[int, ...], Fraction]:
    """Terms of the sum over (left, right) in pairs of left*right, divided by den.

    Each side is a nonempty list of (exponent tuple, int numerator).  Every
    exponent tuple is packed into one integer in a radix above any exponent
    of the result, so adding two packed keys multiplies the monomials
    without a carry.  Cancelled monomials are dropped.
    """
    radix = 1 + max(
        max(max(e) for e, _ in left) + max(max(e) for e, _ in right)
        for left, right in pairs
    )
    weights = [radix**j for j in range(nvars)]
    out: dict[int, int] = {}
    get = out.get
    for left, right in pairs:
        packed = [(sum(map(operator.mul, e, weights)), n) for e, n in right]
        for e, n1 in left:
            k1 = sum(map(operator.mul, e, weights))
            for k2, n2 in packed:
                key = k1 + k2
                out[key] = get(key, 0) + n1 * n2
    result = {}
    for key, n in out.items():
        if n:
            exps = []
            for _ in range(nvars):
                key, e = divmod(key, radix)
                exps.append(e)
            result[tuple(exps)] = Fraction(n, den)
    return result


def _add_terms(out: dict, terms) -> None:
    """Add (exponent tuple, Fraction) pairs into out, dropping cancelled monomials."""
    for exps, coeff in terms:
        total = out.get(exps, 0) + coeff
        if total:
            out[exps] = total
        else:
            out.pop(exps, None)


class MultiPoly:
    """Polynomial in x1..xn, stored as exponent-tuple -> nonzero Fraction."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms=None):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        self.nvars = nvars
        clean = {}
        for exps, coeff in (terms or {}).items():
            coeff = _exact(coeff)
            if coeff == 0:
                continue
            exps = tuple(operator.index(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {nvars} variables")
            clean[exps] = coeff
        self._terms = clean

    @classmethod
    def _known(cls, nvars: int, terms: dict) -> "MultiPoly":
        """Build a result whose terms already map exponent tuples of length
        nvars to nonzero Fractions, skipping the public checks."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly._terms = terms
        return poly

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        """The monomial x_{index+1}."""
        if not 0 <= index < nvars:
            raise ValueError("variable index out of range")
        exps = tuple(1 if j == index else 0 for j in range(nvars))
        return cls._known(nvars, {exps: Fraction(1)})

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.nvars, Fraction(0))

    def total_degree(self) -> int:
        return max((sum(e) for e in self._terms), default=-1)

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out = dict(self._terms)
        _add_terms(out, other._terms.items())
        return MultiPoly._known(self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._known(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            self._check(other)
            if not self._terms or not other._terms:
                return MultiPoly._known(self.nvars, {})
            left, lden = _numerators(self._terms)
            right, rden = (left, lden) if other is self else _numerators(other._terms)
            products = _products([(left, right)], self.nvars, lden * rden)
            return MultiPoly._known(self.nvars, products)
        if isinstance(other, numbers.Rational):
            factor = Fraction(other)
            if not factor:
                return MultiPoly._known(self.nvars, {})
            return MultiPoly._known(
                self.nvars, {e: c * factor for e, c in self._terms.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "MultiPoly":
        """Repeated squaring: about 2*log2(power) products."""
        if power < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(self.nvars, 1)
        square = self
        while power:
            if power & 1:
                result = result * square
            power >>= 1
            if power:
                square = square * square
        return result

    def restrict_axis(self, index: int = 0) -> UniPoly:
        """Restriction to the x_{index+1} axis as a univariate polynomial."""
        coeffs: dict[int, Fraction] = {}
        for exps, coeff in self._terms.items():
            if all(e == 0 for j, e in enumerate(exps) if j != index):
                coeffs[exps[index]] = coeff
        if not coeffs:
            return UniPoly()
        top = max(coeffs)
        return UniPoly(tuple(coeffs.get(i, Fraction(0)) for i in range(top + 1)))

    def linear_coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients of x1..xn in the degree-one part."""
        out = []
        for j in range(self.nvars):
            exps = tuple(1 if k == j else 0 for k in range(self.nvars))
            out.append(self._terms.get(exps, Fraction(0)))
        return tuple(out)

    def evaluate(self, point: Sequence) -> Fraction:
        values = [_exact(v) for v in point]
        if len(values) != self.nvars:
            raise ValueError("point dimension mismatch")
        total = Fraction(0)
        for exps, coeff in self._terms.items():
            term = coeff
            for v, e in zip(values, exps):
                term *= v**e
            total += term
        return total

    def substitute(self, replacements: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute replacements[j] for x_{j+1}; all must share a variable count."""
        if len(replacements) != self.nvars:
            raise ValueError("need one replacement per variable")
        nvars = replacements[0].nvars
        if any(r.nvars != nvars for r in replacements):
            raise ValueError("replacement variable counts differ")
        total = MultiPoly.zero(nvars)
        for exps, coeff in self._terms.items():
            term = MultiPoly.constant(nvars, coeff)
            for r, e in zip(replacements, exps):
                if e:
                    term = term * r**e
            total = total + term
        return total

    def __str__(self) -> str:
        ordered = sorted(
            self._terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True
        )
        return _format_terms([(c, _monomial_text(e)) for e, c in ordered])

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self!s})"


def sum_of_squares(polys: Sequence[MultiPoly]) -> MultiPoly:
    """p1^2 + ... + pk^2 for a nonempty sequence, summed in one integer pass."""
    nvars = polys[0].nvars
    if any(p.nvars != nvars for p in polys):
        raise ValueError("variable counts differ")
    scaled = [_numerators(p._terms) for p in polys if p._terms]
    den = lcm(*(d * d for _, d in scaled))
    pairs = [([(e, n * (den // (d * d))) for e, n in nums], nums) for nums, d in scaled]
    return MultiPoly._known(nvars, _products(pairs, nvars, den) if pairs else {})


def compose_with(psi: UniPoly, inner: MultiPoly) -> MultiPoly:
    """psi(inner) by Horner's rule."""
    result = MultiPoly.zero(inner.nvars)
    for c in reversed(psi.coeffs):
        result = result * inner + MultiPoly.constant(inner.nvars, c)
    return result


class PolyParseError(ValueError):
    """Raised for malformed polynomial text; carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _poly_tokens(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("num", _read_int(text[i:j], i, PolyParseError), i))
            i = j
        elif ch == "x":
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            if j == i + 1:
                raise PolyParseError("variable needs an index, e.g. x1", i)
            tokens.append(("var", _read_int(text[i + 1 : j], i + 1, PolyParseError), i))
            i = j
        elif ch in "+-*/^":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def parse_polynomial(text: str, nvars: int) -> MultiPoly:
    """Parse text like "x1^2+x2^2", "3/2*x1*x2^3-x1", or "0".

    Terms are products of an optional rational coefficient and powers of
    x1..x<nvars>, joined by "+" and "-".
    """
    tokens = _poly_tokens(text)
    if nvars < 1:
        raise ValueError("nvars must be >= 1")
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_factor(exps: list[int]) -> None:
        kind, value, at = peek()
        if kind != "var":
            raise PolyParseError("expected a variable", at)
        advance()
        if not 1 <= value <= nvars:
            raise PolyParseError(f"variable x{value} out of range (nvars={nvars})", at)
        power = 1
        if peek()[0] == "^":
            advance()
            kind, power, at = peek()
            if kind != "num":
                raise PolyParseError("expected an exponent", at)
            advance()
        exps[value - 1] += power

    def parse_term() -> tuple[tuple[int, ...], Fraction]:
        coeff = Fraction(1)
        exps = [0] * nvars
        if peek()[0] == "num":
            coeff = Fraction(advance()[1])
            if peek()[0] == "/":
                advance()
                kind, den, at = peek()
                if kind != "num":
                    raise PolyParseError("expected a denominator", at)
                advance()
                if den == 0:
                    raise PolyParseError("division by zero", at)
                coeff /= den
            if peek()[0] == "*":
                advance()
            else:
                return tuple(exps), coeff
        parse_factor(exps)
        while peek()[0] == "*":
            advance()
            parse_factor(exps)
        return tuple(exps), coeff

    # Every term is one monomial; all of them are summed into one dict.
    terms = []
    op = advance()[0] if peek()[0] == "-" else "+"
    while True:
        exps, coeff = parse_term()
        terms.append((exps, -coeff if op == "-" else coeff))
        if peek()[0] not in ("+", "-"):
            break
        op = advance()[0]
    kind, value, at = peek()
    if kind != "end":
        raise PolyParseError(f"unexpected {value!r}", at)
    total: dict = {}
    _add_terms(total, terms)
    return MultiPoly._known(nvars, total)
