"""Expected answers known by construction, computed without difftan.

Nothing here imports the package under test.  The benchmark builds each
query's expectation from the way the input was made (a unimodular image,
a discriminant mismatch, a radial lift, a registered theorem) and checks
difftan's output against it with the small exact arithmetic below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


# ---------------------------------------------------------------------------
# Integers
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def strip_small_factors(n: int, limit: int) -> tuple[bool, int]:
    """Divide out every prime up to `limit`: (no square factor seen, rest).

    The rest is 1 or has no prime factor up to `limit`; when the loop ends
    because p*p exceeded it, the rest is 1 or a prime.
    """
    p, squarefree = 2, True
    while p <= limit and p * p <= n:
        if n % p == 0:
            n //= p
            while n % p == 0:
                n //= p
                squarefree = False
        p += 1 if p == 2 else 2
    return squarefree, n


def is_squarefree(n: int) -> bool:
    """Exact square-freeness by trial division; meant for n below ~1e13."""
    return strip_small_factors(n, math.isqrt(n))[0]


def sqrt_period(n: int, limit: int) -> int | None:
    """Period of the continued fraction of sqrt(n), or None past `limit`."""
    a0 = math.isqrt(n)
    if a0 * a0 == n:
        raise ValueError("perfect square has no period")
    m, q, a = 0, 1, a0
    for k in range(1, limit + 1):
        m = a * q - m
        q = (n - m * m) // q
        a = (a0 + m) // q
        if a == 2 * a0:
            return k
    return None


# ---------------------------------------------------------------------------
# Quadratic surds p + q*sqrt(d)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Surd:
    """p + q*sqrt(d) with d a square-free integer >= 2 (q == 0 allowed)."""

    p: Fraction
    q: Fraction
    d: int

    def _parts(self, other):
        if isinstance(other, Surd):
            if other.d != self.d:
                raise ValueError("surds from different fields")
            return other.p, other.q
        return Fraction(other), Fraction(0)

    def add(self, other) -> "Surd":
        op, oq = self._parts(other)
        return Surd(self.p + op, self.q + oq, self.d)

    def mul(self, other) -> "Surd":
        op, oq = self._parts(other)
        return Surd(self.p * op + self.q * oq * self.d, self.p * oq + self.q * op, self.d)

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def inverse(self) -> "Surd":
        norm = self.p * self.p - self.q * self.q * self.d
        return Surd(self.p / norm, -self.q / norm, self.d)

    def text(self) -> str:
        """Parenthesised "(A+B*sqrt(d))/C"; never starts with '-'."""
        den = math.lcm(self.p.denominator, self.q.denominator)
        a, b = int(self.p * den), int(self.q * den)
        sign = "+" if b > 0 else "-"
        return f"({a}{sign}{abs(b)}*sqrt({self.d}))/{den}"

    def discriminant(self) -> int:
        """Discriminant of the primitive integer minimal polynomial."""
        # (x - p)^2 = q^2 d, i.e. x^2 - 2p x + (p^2 - q^2 d) = 0.
        b, c = -2 * self.p, self.p * self.p - self.q * self.q * self.d
        scale = math.lcm(b.denominator, c.denominator)
        coeffs = (scale, int(b * scale), int(c * scale))
        g = math.gcd(*coeffs)
        a_, b_, c_ = (x // g for x in coeffs)
        return b_ * b_ - 4 * a_ * c_


def mobius_image(matrix, x: Surd) -> Surd:
    """(m00*x + m01) / (m10*x + m11)."""
    (m00, m01), (m10, m11) = matrix
    num = x.mul(m00).add(m01)
    den = x.mul(m10).add(m11)
    return num.mul(den.inverse())


def witness_relates(w: tuple[int, int, int, int], x: Surd, y: Surd) -> bool:
    """True iff x = (a + b*y) / (c + d*y) exactly, with c + d*y != 0."""
    a, b, c, d = w
    den = y.mul(d).add(c)
    if den.is_zero():
        return False
    lhs = x.mul(den)
    rhs = y.mul(b).add(a)
    return lhs == rhs


def unimodular(rng, steps: int, bound: int):
    """Random integer matrix of determinant +-1: a product of elementary moves."""
    m = ((1, 0), (0, 1))
    for _ in range(steps):
        k = rng.randint(1, bound)
        move = rng.choice((((1, k), (0, 1)), ((1, 0), (k, 1)), ((0, 1), (1, 0))))
        m = _matmul(m, move)
    return m


def _matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


# ---------------------------------------------------------------------------
# Registered tangent dimensions (the paper's classification)
# ---------------------------------------------------------------------------
#
# Spaces are ("R", k), ("torus", radicand) or ("orbit", n).

_CLASSICAL = {
    "R": lambda k: {"internal": k, "vincent": k, "right": k},
    "torus": lambda _: {"internal": 1, "vincent": 0, "right": 0},
    "orbit": lambda _: {"internal": 0, "vincent": 0, "right": 1},
}


def classical_dim(space, functor: str) -> int:
    kind, value = space
    return _CLASSICAL[kind](value)[functor]


def tangent_dim(space, functor: str, test=None):
    """Expected dimension, or None for the undetermined torus/orbit cell."""
    if test is None:
        return classical_dim(space, functor)
    kind, value = space
    tkind, tvalue = test
    if functor == "y-internal":
        if kind == "orbit":
            return 0
        if kind == "R":
            return value if classical_dim(test, "internal") >= 1 else 0
        if tkind == "torus":
            return int(tvalue == value)
        if tkind == "R":
            return 0
        return None
    # y-right
    if kind == "torus" or classical_dim(test, "right") == 0:
        return 0
    if kind == "R":
        return value
    if tkind == "orbit":
        return int(tvalue <= value)
    return 0


# ---------------------------------------------------------------------------
# Polynomial lifts R^m -> R^n
# ---------------------------------------------------------------------------
#
# A polynomial is a dict {exponent tuple: Fraction}.


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def radial(profile: list[Fraction], m: int) -> dict:
    """profile(|x|^2) expanded in x1..xm; profile[i] multiplies t^i."""
    norm = {tuple(2 if j == k else 0 for j in range(m)): Fraction(1) for k in range(m)}
    power = {(0,) * m: Fraction(1)}
    out: dict = {}
    for coeff in profile:
        if coeff:
            out = poly_add(out, {e: c * coeff for e, c in power.items()})
        power = poly_mul(power, norm)
    return out


def poly_text(poly: dict) -> str:
    """Text in the lift format, e.g. "3/2*x1^2*x2^2-x1"."""
    if not poly:
        return "0"
    pieces = []
    for exps, coeff in sorted(poly.items(), reverse=True):
        mag = abs(coeff)
        factors = [f"x{j + 1}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(exps) if e]
        body = "*".join(factors)
        if mag != 1 or not factors:
            num = f"{mag.numerator}" + (f"/{mag.denominator}" if mag.denominator != 1 else "")
            body = f"{num}*{body}" if factors else num
        pieces.append(("-" if coeff < 0 else "+") + body)
    text = "".join(pieces)
    return text[1:] if text.startswith("+") else text


def poly_eval(poly: dict, point) -> Fraction:
    total = Fraction(0)
    for exps, coeff in poly.items():
        term = coeff
        for v, e in zip(point, exps):
            term *= Fraction(v) ** e
        total += term
    return total


def norm_square_at(components, point) -> Fraction:
    return sum((poly_eval(c, point) ** 2 for c in components), Fraction(0))


def equal_radius_pairs(m: int):
    """Pairs of distinct rational points of R^m with equal |x|^2."""
    pad = (0,) * (m - 2)
    pairs = [((1, 2) + pad, (-1, 2) + pad), ((3, 4) + pad, (5, 0) + pad),
             ((1, 2) + pad, (2, 1) + pad), ((2, 3) + pad, (-3, 2) + pad)]
    if m >= 3:
        pairs.append(((1, 2, 2) + pad[1:], (3, 0, 0) + pad[1:]))
    return pairs


def is_radial_at_samples(components, m: int) -> bool:
    """|F|^2 agrees on every sampled pair of equal-radius points."""
    return all(
        norm_square_at(components, p) == norm_square_at(components, q)
        for p, q in equal_radius_pairs(m)
    )
