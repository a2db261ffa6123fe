"""Exact arithmetic in real quadratic fields.

Values are numbers p + q*sqrt(d) with rational p, q and a square-free
radicand d >= 2.  The representation is canonical -- two equal values have
identical components -- which makes equality, hashing, and golden outputs
exact.  On top of the arithmetic the module provides a surd-expression
parser, exact floor computation, periodic continued-fraction expansion,
and integer Moebius witnesses for the same-field and GL(2,Z) equivalence
questions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Union

_TRIAL_BOUND = 1_000_000
_CERTIFY_BOUND = 10**12
_CF_STATE_BOUND = 10**5


class SurdParseError(ValueError):
    """Raised for any malformed surd expression; carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def squarefree_split(n: int) -> tuple[int, int]:
    """Split n > 0 as square*square*free with free square-free.

    Trial division runs up to 10**6.  A perfect-square leftover is always
    accepted (isqrt certifies it exactly at any size); a non-square
    leftover is accepted as square-free only below 10**12, where it can
    have at most two prime factors, both necessarily distinct.  Anything
    larger is rejected rather than factored heuristically.
    """
    if n <= 0:
        raise ValueError("radicand must be positive")
    square, free, m = 1, 1, n
    p = 2
    while p <= _TRIAL_BOUND and p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            square *= p ** (e // 2)
            if e % 2:
                free *= p
        p += 1 if p == 2 else 2
    if m > 1:
        r = math.isqrt(m)
        if r * r == m:
            square *= r
        elif m <= _CERTIFY_BOUND:
            free *= m
        else:
            raise ValueError("radicand exceeds the exact factoring bound")
    return square, free


def _exact(value) -> Fraction:
    """value as a Fraction; only ints and other exact rationals are accepted."""
    if isinstance(value, numbers.Rational):
        return Fraction(value)
    raise TypeError(f"expected an int or a rational number, got {type(value).__name__}")


def _floor_sqrt_multiple(c: int, d: int) -> int:
    """floor(c * sqrt(d)) for integers c (any sign) and d >= 0."""
    s = math.isqrt(c * c * d)
    if c >= 0:
        return s
    return -s if s * s == c * c * d else -s - 1


def _floor_surd_quotient(a: int, c: int, b: int, d: int) -> int:
    """floor((a + c*sqrt(d)) / b) computed exactly; b != 0."""
    if c == 0:
        return a // b
    f = a + _floor_sqrt_multiple(c, d)
    if b > 0:
        return f // b
    # a + c*sqrt(d) is irrational here, so the quotient is never an integer.
    return -(f // -b) - 1


@dataclass(frozen=True)
class QuadraticIrrational:
    """Canonical p + q*sqrt(d) with q != 0 and d >= 2 square-free."""

    p: Fraction
    q: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "p", _exact(self.p))
        object.__setattr__(self, "q", _exact(self.q))
        if self.q == 0:
            raise ValueError("q must be nonzero; rational values are plain Fractions")
        if not isinstance(self.d, int) or self.d < 2 or squarefree_split(self.d) != (1, self.d):
            raise ValueError("radicand must be a square-free integer >= 2")

    @classmethod
    def _known(cls, p: Fraction, q: Fraction, d: int) -> "QuadraticIrrational":
        """p + q*sqrt(d) from Fractions with q != 0 and d known square-free.

        Arithmetic results keep the radicand of their operands, so they skip
        the checks (and the factoring) of the public constructor.
        """
        value = object.__new__(cls)
        object.__setattr__(value, "p", p)
        object.__setattr__(value, "q", q)
        object.__setattr__(value, "d", d)
        return value

    @staticmethod
    def make(p, q, radicand: int) -> Union["QuadraticIrrational", Fraction]:
        """Canonicalize p + q*sqrt(radicand), collapsing rational values."""
        p, q = _exact(p), _exact(q)
        if q == 0:
            return p
        square, free = squarefree_split(radicand)
        if free == 1:
            return p + q * square
        return QuadraticIrrational._known(p, q * square, free)

    # -- ring operations (closed over QuadraticIrrational | Fraction) --

    def _coerce(self, other):
        if isinstance(other, QuadraticIrrational):
            if other.d != self.d:
                raise ValueError(
                    f"different radicands: sqrt({self.d}) vs sqrt({other.d})"
                )
            return other.p, other.q
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        return None

    @staticmethod
    def _wrap(p: Fraction, q: Fraction, d: int):
        return QuadraticIrrational._known(p, q, d) if q != 0 else p

    def __add__(self, other):
        parts = self._coerce(other)
        if parts is None:
            return NotImplemented
        op, oq = parts
        return self._wrap(self.p + op, self.q + oq, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticIrrational._known(-self.p, -self.q, self.d)

    def __sub__(self, other):
        parts = self._coerce(other)
        if parts is None:
            return NotImplemented
        op, oq = parts
        return self._wrap(self.p - op, self.q - oq, self.d)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        parts = self._coerce(other)
        if parts is None:
            return NotImplemented
        op, oq = parts
        return self._wrap(
            self.p * op + self.q * oq * self.d,
            self.p * oq + self.q * op,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticIrrational":
        # The field norm p^2 - q^2 d is nonzero because the value is irrational.
        n = self.p * self.p - self.q * self.q * self.d
        return QuadraticIrrational._known(self.p / n, -self.q / n, self.d)

    def __truediv__(self, other):
        if isinstance(other, QuadraticIrrational):
            return self.__mul__(other.inverse())
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return QuadraticIrrational._known(self.p / other, self.q / other, self.d)
        return NotImplemented

    def __rtruediv__(self, other):
        parts = self._coerce(other)
        if parts is None:
            return NotImplemented
        return self.inverse().__mul__(other)

    # -- order and size --

    def _sign(self) -> int:
        # Sign of p + q*sqrt(d); never zero since the value is irrational.
        if self.q > 0:
            if self.p >= 0:
                return 1
            return 1 if self.p * self.p < self.q * self.q * self.d else -1
        if self.p <= 0:
            return -1
        return 1 if self.p * self.p > self.q * self.q * self.d else -1

    def _cmp(self, other) -> Optional[int]:
        """Sign of self - other, or None for an operand that is not exact."""
        diff = self.__sub__(other)
        if diff is NotImplemented:
            return None
        if isinstance(diff, Fraction):
            return (diff > 0) - (diff < 0)
        return diff._sign()

    # Unsupported operands (floats among them) return NotImplemented, so
    # Python raises its own "'<' not supported" TypeError.

    def __lt__(self, other):
        sign = self._cmp(other)
        return NotImplemented if sign is None else sign < 0

    def __le__(self, other):
        sign = self._cmp(other)
        return NotImplemented if sign is None else sign <= 0

    def __gt__(self, other):
        sign = self._cmp(other)
        return NotImplemented if sign is None else sign > 0

    def __ge__(self, other):
        sign = self._cmp(other)
        return NotImplemented if sign is None else sign >= 0

    def floor(self) -> int:
        b = lcm(self.p.denominator, self.q.denominator)
        return _floor_surd_quotient(int(self.p * b), int(self.q * b), b, self.d)

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * math.sqrt(self.d)

    def __str__(self) -> str:
        return format_surd(self)


def format_surd(value) -> str:
    """Canonical text form, e.g. "(1+sqrt(5))/2", "-sqrt(2)", "3-2*sqrt(7)".

    The output re-parses to the same value under parse_quadratic.
    """
    if isinstance(value, int):
        value = Fraction(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"({value.numerator})/{value.denominator}"
    x = value
    den = lcm(x.p.denominator, x.q.denominator)
    a = int(x.p * den)
    b = int(x.q * den)
    g = gcd(gcd(abs(a), abs(b)), den)
    a, b, den = a // g, b // g, den // g
    root = f"sqrt({x.d})"
    mag = root if abs(b) == 1 else f"{abs(b)}*{root}"
    if a == 0:
        body = mag if b > 0 else f"-{mag}"
    else:
        body = f"{a}{'+' if b > 0 else '-'}{mag}"
    return body if den == 1 else f"({body})/{den}"


# ---------------------------------------------------------------------------
# Surd expression parser
# ---------------------------------------------------------------------------
#
# Grammar (whitespace ignored everywhere):
#
#   expr  := "(" sum ")" "/" int        -- only place a "/" may appear
#          | sum
#   sum   := ["-"] prod (("+"|"-") prod)*
#   prod  := int "*" atom | atom | int
#   atom  := "sqrt" "(" int ")" | int | "(" sum ")"
#   int   := ["-"] digit+
#
# The leading "-" of a sum negates its first product only, so
# "-1+sqrt(2)" means (-1) + sqrt(2).  Quotients require the parenthesized
# form: "(1+sqrt(5))/2" parses, "1+sqrt(5)/2" is a syntax error.


def _read_int(digits: str, position: int, error: type) -> int:
    """int() of a run of decimal digits, its failure raised as the parser's error.

    The run is all str.isdecimal(), which int() reads, so int() fails only
    past Python's limit on digits converted to an int.
    """
    try:
        return int(digits)
    except ValueError:
        message = f"integer of {len(digits)} digits is too long to read"
        raise error(message, position) from None


def _tokenize(text: str):
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
            tokens.append(("int", _read_int(text[i:j], i, SurdParseError), i))
            i = j
        elif text.startswith("sqrt", i):
            tokens.append(("sqrt", "sqrt", i))
            i += 4
        elif ch in "+-*/()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise SurdParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.peek()
        if tok[0] != kind:
            raise SurdParseError(f"expected {what}", tok[2])
        return self.next()

    def parse_int(self, what: str) -> tuple[int, int]:
        sign = 1
        tok = self.peek()
        if tok[0] == "-":
            self.next()
            sign = -1
        tok = self.expect("int", what)
        return sign * tok[1], tok[2]

    def quotient_ahead(self) -> bool:
        # At an opening paren: does its matching close precede a "/"?
        if self.peek()[0] != "(":
            return False
        depth = 0
        for k in range(self.pos, len(self.tokens)):
            kind = self.tokens[k][0]
            if kind == "(":
                depth += 1
            elif kind == ")":
                depth -= 1
                if depth == 0:
                    return k + 1 < len(self.tokens) and self.tokens[k + 1][0] == "/"
        return False

    def parse_expr(self):
        if self.quotient_ahead():
            self.next()  # "("
            value = self.parse_sum()
            self.expect(")", "')'")
            self.expect("/", "'/'")
            den, pos = self.parse_int("a denominator")
            if den == 0:
                raise SurdParseError("division by zero", pos)
            return value / den
        return self.parse_sum()

    def parse_sum(self):
        negate = False
        if self.peek()[0] == "-":
            self.next()
            negate = True
        value = self.parse_prod()
        if negate:
            value = -value
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.next()
            rhs = self.parse_prod()
            try:
                value = value + rhs if op == "+" else value - rhs
            except ValueError as exc:
                raise SurdParseError(str(exc), pos) from None
        return value

    def parse_prod(self):
        tok = self.peek()
        if tok[0] == "int":
            coeff = self.next()[1]
            if self.peek()[0] == "*":
                self.next()
                return coeff * self.parse_atom()
            return Fraction(coeff)
        if tok[0] == "-":
            # A negative integer literal, e.g. the "-2" of "3*-2" or "1--2".
            value, _ = self.parse_int("an integer")
            if self.peek()[0] == "*":
                self.next()
                return value * self.parse_atom()
            return Fraction(value)
        return self.parse_atom()

    def parse_atom(self):
        tok = self.peek()
        if tok[0] == "sqrt":
            self.next()
            self.expect("(", "'(' after sqrt")
            value, pos = self.parse_int("a radicand")
            self.expect(")", "')'")
            if value < 0:
                raise SurdParseError("negative radicand", pos)
            if value == 0:
                return Fraction(0)
            return QuadraticIrrational.make(0, 1, value)
        if tok[0] == "int":
            return Fraction(self.next()[1])
        if tok[0] == "(":
            self.next()
            value = self.parse_sum()
            self.expect(")", "')'")
            return value
        raise SurdParseError("expected a value", tok[2])


def parse_quadratic(expr: str) -> Union[QuadraticIrrational, Fraction]:
    """Parse a surd expression into its canonical exact value.

    Returns a QuadraticIrrational, or a plain Fraction when the value is
    rational (e.g. "sqrt(9)").  Raises SurdParseError with a character
    position for any malformed input, nesting too deep for the recursive
    descent included.
    """
    parser = _Parser(_tokenize(expr))
    try:
        value = parser.parse_expr()
    except RecursionError:
        raise SurdParseError("parentheses nested too deeply", parser.peek()[2]) from None
    tok = parser.peek()
    if tok[0] != "end":
        raise SurdParseError(f"unexpected {tok[1]!r}", tok[2])
    return value


# ---------------------------------------------------------------------------
# Continued fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuedFraction:
    """Eventually periodic continued fraction [preperiod; (period)].

    The preperiod always holds at least the leading partial quotient, all
    entries after the first are >= 1, the period is a primitive cycle of
    entries >= 1, and no preperiod suffix can be absorbed into a rotation
    of the period.  Instances produced by cf_expand are canonical: equal
    values yield equal expansions.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "preperiod", tuple(self.preperiod))
        object.__setattr__(self, "period", tuple(self.period))
        if not self.preperiod:
            raise ValueError("preperiod must contain the leading quotient")
        if not self.period:
            raise ValueError("period must be nonempty")
        if any(a < 1 for a in self.preperiod[1:]) or any(a < 1 for a in self.period):
            raise ValueError("partial quotients after the first must be >= 1")
        if len(self.preperiod) > 1 and self.preperiod[-1] == self.period[-1]:
            raise ValueError("preperiod suffix absorbable into the period")
        # A matching rotation by i implies one by gcd(i, k), a proper divisor.
        k, per = len(self.period), self.period
        if any(per[i:] + per[:i] == per for i in range(1, k) if k % i == 0):
            raise ValueError("period must be primitive")

    def value(self) -> QuadraticIrrational:
        """Exact value: fixed point of the period, folded under the preperiod."""
        (m00, m01), (m10, m11) = _quotient_matrix(self.period)
        # Purely periodic tail t solves t = (m00 t + m01) / (m10 t + m11).
        disc = (m00 - m11) ** 2 + 4 * m01 * m10
        tail = QuadraticIrrational.make(
            Fraction(m00 - m11, 2 * m10), Fraction(1, 2 * m10), disc
        )
        v = tail
        for a in reversed(self.preperiod):
            v = a + 1 / v
        return v

    def __str__(self) -> str:
        pre = ", ".join(str(a) for a in self.preperiod)
        per = ", ".join(str(a) for a in self.period)
        return f"[{pre}; ({per})]"


def _surd_expansion(x: QuadraticIrrational):
    """Run the (P, Q) surd recurrence until the state repeats.

    The complete quotient before each emission is (P + r*sqrt(d)) / Q with
    r fixed for the run, so its exact components (P/Q, r/Q) key it without
    building a field element.  Returns (quotients, tails, entry): the partial
    quotients emitted before the first repeated state, a dict mapping each
    complete quotient to its index, and the index at which the cycle
    re-enters.  Distinct tails correspond to distinct states, so the entry
    point is minimal.  More than _CF_STATE_BOUND states raise ValueError.
    """
    b = lcm(x.p.denominator, x.q.denominator)
    sign = 1 if x.q > 0 else -1
    big_p, r, big_q = sign * int(x.p * b), abs(int(x.q * b)), sign * b
    if (r * r * x.d - big_p * big_p) % big_q != 0:
        m = abs(big_q)
        big_p, r, big_q = big_p * m, r * m, big_q * m
    big_d = r * r * x.d
    quotients: list[int] = []
    tails: dict[tuple[Fraction, Fraction], int] = {}
    while (tail := (Fraction(big_p, big_q), Fraction(r, big_q))) not in tails:
        if len(tails) == _CF_STATE_BOUND:
            raise ValueError(
                f"continued fraction exceeds the state bound ({_CF_STATE_BOUND} states)"
            )
        tails[tail] = len(quotients)
        a = _floor_surd_quotient(big_p, 1, big_q, big_d)
        quotients.append(a)
        big_p = a * big_q - big_p
        big_q = (big_d - big_p * big_p) // big_q
    return quotients, tails, tails[tail]


def cf_expand(x: QuadraticIrrational) -> ContinuedFraction:
    """Canonical periodic continued-fraction expansion of x."""
    quotients, _, entry = _surd_expansion(x)
    if entry == 0:
        # Purely periodic: keep the leading quotient as the preperiod.
        pre = [quotients[0]]
        per = quotients[1:] + [quotients[0]]
    else:
        pre = quotients[:entry]
        per = quotients[entry:]
    return ContinuedFraction(tuple(pre), tuple(per))


# ---------------------------------------------------------------------------
# Moebius witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MobiusWitness:
    """Integer quadruple (a, b, c, d) acting by x = (a + b*y) / (c + d*y)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            if not isinstance(getattr(self, name), int):
                raise ValueError("witness entries must be integers")
        if self.det == 0:
            raise ValueError("witness must have nonzero determinant")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __str__(self) -> str:
        return f"(a,b,c,d) = ({self.a},{self.b},{self.c},{self.d}), det = {self.det}"


def mobius_apply(w: MobiusWitness, x) -> Union[QuadraticIrrational, Fraction]:
    """Evaluate (a + b*x) / (c + d*x) exactly."""
    num = w.a + w.b * x
    den = w.c + w.d * x
    return num / den


def mobius_compose(outer: MobiusWitness, inner: MobiusWitness) -> MobiusWitness:
    """Witness of the composed transformation: outer(inner(x))."""
    return MobiusWitness(
        outer.a * inner.c + outer.b * inner.a,
        outer.a * inner.d + outer.b * inner.b,
        outer.c * inner.c + outer.d * inner.a,
        outer.c * inner.d + outer.d * inner.b,
    )


def same_field(x: QuadraticIrrational, y: QuadraticIrrational) -> bool:
    """True iff x and y generate the same real quadratic field.

    Canonical radicands make this a single comparison, and equality of
    fields is exactly integer-Moebius relatedness for quadratic
    irrationals (see the README derivation).
    """
    return x.d == y.d

def mobius_witness(
    x: QuadraticIrrational, y: QuadraticIrrational
) -> Optional[MobiusWitness]:
    """Integer witness with x = (a + b*y) / c (d = 0), or None across fields.

    Writing x = p1 + q1*sqrt(D) and y = p2 + q2*sqrt(D), the affine relation
    x = (q1/q2)(y - p2) + p1 clears to integers; the result is normalized to
    c > 0 and lowest terms.
    """
    if not same_field(x, y):
        return None
    slope = x.q / y.q
    shift = x.p - slope * y.p
    c = lcm(slope.denominator, shift.denominator)
    a, b = int(shift * c), int(slope * c)
    g = gcd(gcd(abs(a), abs(b)), c)
    return MobiusWitness(a // g, b // g, c // g, 0)


def _quotient_matrix(quotients) -> tuple[tuple[int, int], tuple[int, int]]:
    m00, m01, m10, m11 = 1, 0, 0, 1
    for a in quotients:
        m00, m01, m10, m11 = m00 * a + m01, m00, m10 * a + m11, m10
    return (m00, m01), (m10, m11)


def gl2z_equivalent(
    x: QuadraticIrrational, y: QuadraticIrrational
) -> Optional[MobiusWitness]:
    """Unimodular witness with mobius_apply(w, y) = x, or None.

    Two quadratic irrationals are GL(2,Z)-equivalent exactly when their
    continued-fraction expansions share a complete quotient (a common
    tail).  The expansions' tail sets are finite and exhaustive, so the
    search is a complete decision procedure.  x's tails are walked in order
    and each is looked up in y's; tails within one expansion are distinct,
    so the first hit is the first match in lexicographic (i, j) order,
    which keeps the witness deterministic.
    """
    if not same_field(x, y):
        return None
    qx, tx, _ = _surd_expansion(x)
    qy, ty, _ = _surd_expansion(y)
    for tail, i in tx.items():
        j = ty.get(tail)
        if j is not None:
            return _assemble_witness(qx[:i], qy[:j], y, x)
    return None


def _assemble_witness(head_x, head_y, y, x) -> MobiusWitness:
    # x = M(head_x) . t and y = M(head_y) . t for the shared tail t, so
    # x = M(head_x) . adj(M(head_y)) . y as a fractional-linear action.
    (m00, m01), (m10, m11) = _quotient_matrix(head_x)
    (n00, n01), (n10, n11) = _quotient_matrix(head_y)
    adj = ((n11, -n01), (-n10, n00))
    w00 = m00 * adj[0][0] + m01 * adj[1][0]
    w01 = m00 * adj[0][1] + m01 * adj[1][1]
    w10 = m10 * adj[0][0] + m11 * adj[1][0]
    w11 = m10 * adj[0][1] + m11 * adj[1][1]
    a, b, c, d = w01, w00, w11, w10
    if c < 0 or (c == 0 and d < 0):
        a, b, c, d = -a, -b, -c, -d
    witness = MobiusWitness(a, b, c, d)
    assert abs(witness.det) == 1 and mobius_apply(witness, y) == x
    return witness
