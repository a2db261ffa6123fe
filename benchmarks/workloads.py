"""Seeded query streams for the three workloads.

A workload is an endless stream of cycles.  Every cycle holds the same
fixed list of slots (input class x command), so each class keeps an exact
share of the queries and each percentile stays inside one class; the seed
picks the concrete inputs inside tight size bands and the order of the
slots.  Each query carries its own check, built from how its input was
made (see oracle.py), never from difftan's answer.

Queries run against `mods`, a namespace of freshly imported difftan
modules; they look functions up on the modules at call time so that the
traced run sees the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle
from oracle import Surd

OK, FAILED = "ok", "failed"


@dataclass
class Query:
    """One closed-loop request.

    run(mods) performs the request and returns its raw outcome; check(value,
    exc) returns OK, FAILED (raised, or exited 2, although a result was
    expected) or a message describing a wrong answer.
    """

    cls: str
    label: str
    run: Callable
    check: Callable


def cli_call(mods, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_query(cls: str, argv: list[str], check_output: Callable) -> Query:
    """A main(argv) call; exit 2 or an exception counts as a failure."""

    def check(value, exc):
        if exc is not None:
            return FAILED
        code, out, _ = value
        if code == 2:
            return FAILED
        return check_output(code, out)

    return Query(cls, " ".join(argv), lambda mods: cli_call(mods, argv), check)


def _expect(cond: bool, message: str):
    return OK if cond else message


# ---------------------------------------------------------------------------
# Output readers (text and --json forms)
# ---------------------------------------------------------------------------

_WITNESS_RE = re.compile(r"^witness: \(a,b,c,d\) = \((-?\d+),(-?\d+),(-?\d+),(-?\d+)\)", re.M)


def read_witness(out: str, as_json: bool):
    """(a, b, c, d) or None."""
    if as_json:
        w = json.loads(out)["witness"]
        return None if w is None else (w["a"], w["b"], w["c"], w["d"])
    match = _WITNESS_RE.search(out)
    if match:
        return tuple(int(g) for g in match.groups())
    if re.search(r"^witness: none$", out, re.M):
        return None
    raise ValueError("no witness line in output")


def read_dimension(out: str, as_json: bool):
    if as_json:
        return json.loads(out)["dimension"]
    value = re.search(r"^dimension: (\S+)$", out, re.M).group(1)
    return value if value == "undetermined" else int(value)


def read_matrix(out: str, as_json: bool, size: int) -> list[list[int]]:
    """Rows of a square table; JSON records are row-major."""
    if as_json:
        dims = [r["dimension"] for r in json.loads(out)]
    else:
        rows = [line.split()[1:] for line in out.splitlines() if re.match(r"^\[?\d+\]?\s", line)]
        dims = [int(x) for row in rows[-size:] for x in row]
    if len(dims) != size * size:
        raise ValueError(f"expected {size * size} cells, read {len(dims)}")
    return [dims[i * size : (i + 1) * size] for i in range(size)]


def _safe(reader) -> Callable:
    """Turn a reader's parse error into a wrong-answer message."""

    def wrapped(code, out):
        try:
            return reader(code, out)
        except (ValueError, KeyError, AttributeError, IndexError, TypeError) as exc:
            return f"unreadable output ({exc!r}): {out[:200]!r}"

    return wrapped


# ---------------------------------------------------------------------------
# torus-cf: continued fractions and GL(2,Z) equivalence
# ---------------------------------------------------------------------------


def _squarefree_below(rng, low: int, high: int) -> int:
    while True:
        d = rng.randrange(low, high)
        if math.isqrt(d) ** 2 != d and oracle.is_squarefree(d):
            return d


def _small_surd(rng, d: int) -> Surd:
    p = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
    q = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
    return Surd(p, q, d)


def _shifted_root(rng, d: int) -> Surd:
    """k +- sqrt(d): a unimodular image of sqrt(d), so same period."""
    return Surd(Fraction(rng.randint(-9, 9)), Fraction(rng.choice((-1, 1))), d)


def _band_radicand(rng, low, high, band):
    """Square-free d in [low, high) whose sqrt(d) period lies in band."""
    lo, hi = band
    while True:
        d = _squarefree_below(rng, low, high)
        period = oracle.sqrt_period(d, hi)
        if period is not None and period >= lo:
            return d


def _big_prime_radicand(rng) -> int:
    """Prime d = n^2 + r near 1e9 with r | 2n, so sqrt(d) has period <= 2.

    Each square-free check of a prime this size trial-divides up to
    sqrt(d), the same length for every d in the band; that keeps the
    class's cost tight (composite radicands vary with their factors).
    """
    while True:
        n = rng.randrange(30_000, 33_000)
        r = rng.choice([k for k in range(1, 40) if (2 * n) % k == 0])
        d = n * n + r
        if oracle.is_prime(d):
            return d


def _witness_check(alpha: Surd, beta: Surd, as_json: bool, unimodular: bool):
    def read(code, out):
        w = read_witness(out, as_json)
        if code != 0 or w is None:
            return f"expected a witness, got exit {code}"
        if unimodular and abs(w[0] * w[3] - w[1] * w[2]) != 1:
            return f"witness {w} is not unimodular"
        if not unimodular and (w[3] != 0 or w[2] == 0):
            return f"witness {w} is not of the form (a + b*y) / c"
        return _expect(oracle.witness_relates(w, alpha, beta), f"witness {w} does not map beta to alpha")

    return _safe(read)


def _none_check(as_json: bool):
    def read(code, out):
        w = read_witness(out, as_json)
        return _expect(code == 1 and w is None, f"expected no witness (exit 1), got exit {code}, {w}")

    return _safe(read)


def _dim_check(expected, as_json: bool):
    def read(code, out):
        dim = read_dimension(out, as_json)
        want_code = 3 if expected is None else 0
        want = "undetermined" if expected is None else expected
        return _expect(code == want_code and dim == want, f"expected dimension {want}, got {dim} (exit {code})")

    return _safe(read)


def _json_flag(as_json: bool) -> list[str]:
    return ["--json"] if as_json else []


def pair_query(cls: str, command: str, alpha: Surd, beta: Surd, as_json: bool) -> Query:
    """witness diffeo / witness mobius / tangent y-internal on one slope pair."""
    same_field = alpha.d == beta.d
    equivalent = same_field and alpha.discriminant() == beta.discriminant()
    if command == "tangent":
        argv = ["tangent", "--space", f"torus:{alpha.text()}", "--functor", "y-internal",
                "--test", f"torus:{beta.text()}"]
        return cli_query(cls, argv + _json_flag(as_json), _dim_check(int(same_field), as_json))
    argv = ["witness", command, "--alpha", alpha.text(), "--beta", beta.text()] + _json_flag(as_json)
    if command == "mobius":
        check = _witness_check(alpha, beta, as_json, False) if same_field else _none_check(as_json)
    elif equivalent:
        # Every diffeo pair built here is either a unimodular image or has
        # a different discriminant, so equal discriminants mean equivalent.
        check = _witness_check(alpha, beta, as_json, True)
    else:
        check = _none_check(as_json)
    return cli_query(cls, argv, check)


def _image(rng, alpha: Surd, steps=2, bound=3) -> Surd:
    """A random unimodular image of alpha."""
    return oracle.mobius_image(oracle.unimodular(rng, steps, bound), alpha)


def _reflected_shift(rng, alpha: Surd) -> Surd:
    """+-alpha + k, the unimodular images without a denominator.

    A general image (a*alpha + b) / (c*alpha + d) makes difftan factor
    radicands scaled by the squared denominator, whose cost swings with
    that denominator's prime factors; the classes whose cost must stay
    tight use these images instead.
    """
    return alpha.mul(rng.choice((-1, 1))).add(rng.randint(-9, 9))


class TorusCF:
    """Slope pairs through witness diffeo / witness mobius / tangent."""

    name = "torus-cf"
    cold_argv = ["witness", "mobius", "--alpha", "sqrt(2)", "--beta", "1+sqrt(2)"]
    commands = ("diffeo", "mobius", "tangent")

    # Size bands; each keeps its class's cost tight so that seeds agree.
    LONG_RADICANDS = (500_000, 1_000_000)
    LONG_PERIOD = (400, 460)
    INEQ_RADICANDS = (100_000, 1_000_000)
    INEQ_PERIOD = (150, 200)

    def __init__(self, seed: int):
        self.rng = random.Random(f"torus-cf:{seed}")

    def _small(self, command):
        rng = self.rng
        alpha = _small_surd(rng, _squarefree_below(rng, 2, 1000))
        return pair_query("small", command, alpha, _image(rng, alpha), rng.random() < 0.5)

    def _cross(self, command):
        rng = self.rng
        d1 = _squarefree_below(rng, 2, 1000)
        d2 = d1
        while d2 == d1:
            d2 = _squarefree_below(rng, 2, 1000)
        return pair_query("cross-field", command, _small_surd(rng, d1), _small_surd(rng, d2),
                          rng.random() < 0.5)

    def _big(self, command):
        rng = self.rng
        alpha = _shifted_root(rng, _big_prime_radicand(rng))
        return pair_query("big-radicand", command, alpha, _reflected_shift(rng, alpha), rng.random() < 0.5)

    def _long(self):
        rng = self.rng
        d = _band_radicand(rng, *self.LONG_RADICANDS, self.LONG_PERIOD)
        alpha = _shifted_root(rng, d)
        return pair_query("long-period", "diffeo", alpha, _reflected_shift(rng, alpha), rng.random() < 0.5)

    def _ineq(self):
        rng = self.rng
        lo, hi = self.INEQ_PERIOD
        while True:
            d = _band_radicand(rng, *self.INEQ_RADICANDS, self.INEQ_PERIOD)
            period4 = oracle.sqrt_period(4 * d, hi)
            if period4 is not None and period4 >= lo:
                break
        alpha = _shifted_root(rng, d)
        doubled = Surd(Fraction(rng.randint(-9, 9)), Fraction(rng.choice((-2, 2))), d)
        return pair_query("inequivalent", "diffeo", alpha, doubled, rng.random() < 0.5)

    def cycle(self) -> list[Query]:
        slots = [self._small(c) for c in self.commands for _ in range(3)]
        slots += [self._cross(c) for c in self.commands]
        slots += [self._big(c) for c in self.commands]
        slots += [self._long() for _ in range(2)]
        slots.append(self._ineq())
        self.rng.shuffle(slots)
        return slots

    def warmup(self) -> list[Query]:
        return [self._small(c) for c in self.commands] + [self._cross(c) for c in self.commands]

    def probes(self) -> list[Query]:
        """Known defect: c*sqrt(d) with c^2*d past the factoring bound.

        c is a prime above 1e6 and d = c^2 + 1 is square-free with a prime
        factor above 1e6, so sqrt(c^2 * d) has period 2 and a correct answer
        is cheap, while trial division up to 1e6 leaves c^2 times that prime:
        past 1e12 and not a square, which cf_expand rejects (exit 2).
        """
        rng = self.rng
        out = []
        while len(out) < 2:
            c = rng.randrange(1_000_001, 1_100_000)
            if not oracle.is_prime(c):
                continue
            d = c * c + 1
            squarefree, rest = oracle.strip_small_factors(d, 10**6)
            if not (squarefree and rest > 10**6):
                continue
            alpha = Surd(Fraction(rng.randint(-5, 5)), Fraction(c), d)
            out.append(pair_query("c2d-over-bound", "diffeo", alpha, _reflected_shift(rng, alpha),
                                  len(out) == 1))
        return out


# ---------------------------------------------------------------------------
# orbit-lift: polynomial lifts between orbit spaces
# ---------------------------------------------------------------------------


def _profile(rng, powers, denominators) -> list[Fraction]:
    """Profile with a nonzero coefficient exactly at each power of t."""
    coeffs = [Fraction(0)] * (max(powers, default=0) + 1)
    for k in powers:
        coeffs[k] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice(denominators))
    return coeffs


def _radial_components(rng, m: int, n: int, h_powers, g_powers, denominators=(1, 2, 3)) -> list[dict]:
    """h(|x|^2) e1 + g(|x|^2) e2 (h + g on e1 when n == 1): always valid.

    h and g use disjoint powers, so h + g never cancels and the term count,
    hence the cost, is fixed by (m, powers).
    """
    h, g = _profile(rng, h_powers, denominators), _profile(rng, g_powers, denominators)
    comps = [{} for _ in range(n)]
    if n == 1:
        comps[0] = oracle.poly_add(oracle.radial(h, m), oracle.radial(g, m))
    else:
        comps[0], comps[1] = oracle.radial(h, m), oracle.radial(g, m)
    return comps


def _lift_text(comps: list[dict]) -> str:
    return "(" + "; ".join(oracle.poly_text(c) for c in comps) + ")"


def _chain_check(m: int, n: int, expected_comps=None):
    """m > n: the rank theorem forces pushforward 0 and a zero linear part.

    A parsed lift must equal the one its text was written from; a generated
    one must at least be radial at the sampled point pairs.
    """

    def check(value, exc):
        if exc is not None:
            return FAILED
        lift, push, rank = value
        comps = [dict(c.terms) for c in lift.components]
        if expected_comps is not None and comps != expected_comps:
            return f"parsed lift {lift.to_text()[:120]} differs from its text"
        if (lift.m, lift.n) != (m, n) or not oracle.is_radial_at_samples(comps, m):
            return f"lift {lift.to_text()[:120]} is not a radial map R^{m} -> R^{n}"
        if push.coeff != 0:
            return f"pushforward {push.coeff} != 0 for m={m} > n={n}"
        zero_linear = all(v == 0 for row in rank.matrix for v in row)
        return _expect(rank.scalar == 0 and zero_linear, f"rank obstruction scalar {rank.scalar} != 0")

    return check


def _push_and_rank(mods, lift):
    orbit = mods.orbit_space
    push = orbit.pushforward(lift, orbit.Derivation(Fraction(1)))
    return lift, push, orbit.rank_obstruction(lift)


def rvl_chain_query(m: int, n: int, degree: int, lift_seed: int) -> Query:
    def run(mods):
        return _push_and_rank(mods, mods.orbit_space.random_valid_lift(m, n, degree, lift_seed))

    return Query("chain-random", f"random_valid_lift{(m, n, degree, lift_seed)}", run, _chain_check(m, n))


def text_chain_query(m: int, comps: list[dict]) -> Query:
    text = _lift_text(comps)

    def run(mods):
        return _push_and_rank(mods, mods.orbit_space.PolyLift.from_text(m, text))

    return Query("chain-parsed", f"R^{m}->R^{len(comps)} {text}", run, _chain_check(m, len(comps), comps))


def invalid_lift_query(m: int, comps: list[dict]) -> Query:
    """A lift perturbed off the radial family, so validate_lift must reject it."""
    text = _lift_text(comps)

    def run(mods):
        return mods.orbit_space.validate_lift(mods.orbit_space.PolyLift.from_text(m, text))

    def check(value, exc):
        if exc is None:
            return f"validate_lift accepted a non-radial lift: {text[:120]}"
        return OK if type(exc).__name__ == "InvalidLiftError" else FAILED

    return Query("invalid-lift", f"R^{m}->R^{len(comps)} {text}", run, check)


def orbit_table_query(cls: str, size: int, as_json: bool) -> Query:
    expected = [[int(m <= n) for n in range(1, size + 1)] for m in range(1, size + 1)]

    def read(code, out):
        return _expect(code == 0 and read_matrix(out, as_json, size) == expected,
                       f"table orbit --max {size} is not [m <= n]")

    return cli_query(cls, ["table", "orbit", "--max", str(size)] + _json_flag(as_json), _safe(read))


def embed_query(m: int, n: int, as_json: bool) -> Query:
    """m <= n: the standard embedding has profile t and pushforward 1."""

    def read(code, out):
        if as_json:
            w = json.loads(out)["witness"]
            psi, push = w["psi"], w["pushforward"]
        else:
            psi = re.search(r"^psi: (.+)$", out, re.M).group(1)
            push = re.search(r"^pushforward: (.+)$", out, re.M).group(1)
        return _expect(code == 0 and psi == "t" and push == "1", f"embed {m}->{n}: psi={psi}, push={push}")

    argv = ["witness", "embed", "--m", str(m), "--n", str(n)] + _json_flag(as_json)
    return cli_query("embed", argv, _safe(read))


class OrbitLift:
    """random_valid_lift / parsed lifts -> pushforward -> rank_obstruction."""

    name = "orbit-lift"
    cold_argv = ["witness", "embed", "--m", "1", "--n", "2"]

    # random_valid_lift sizes (m, n, degree) whose lifts always take the
    # single radial form (m - n < 2 or degree < 4), so their cost does not
    # swing with the lift seed; then two sizes that may take the composed
    # form, at 4 to 50 ms apart.
    RVL_SIZES = ((2, 1, 4), (2, 1, 8), (3, 2, 6), (4, 3, 4), (5, 4, 4))
    RVL_MIXED_SIZES = ((4, 1, 8), (5, 2, 6))
    # Parsed lifts R^6 -> R^2 of degree 8 with profiles h = a t + b t^4 and
    # g = c t^2, integer a, b, c: sparse enough to cost ~0.3 s, the same
    # for every seed.  Valid and perturbed lifts of this size form one cost
    # class of four slots, which keeps p90 inside it.
    BIG = (6, 2, (1, 4), (2,), (1,))
    FULL_INVALID = (4, 1, (1, 2, 3, 4), ())
    # table orbit --max 12..30, strided so any run spreads across the range;
    # the order is fixed so every seed sees the same sizes.
    TABLE_SIZES = tuple(12 + (7 * k) % 19 for k in range(19))
    # Enough cheap slots that p50 sits well inside the cheap group.
    EMBED_MAX = 14
    EMBEDS_PER_CYCLE = 16

    def __init__(self, seed: int):
        self.rng = random.Random(f"orbit-lift:{seed}")
        self.embeds: list = []
        self.cycles = 0

    def _embed(self):
        if not self.embeds:
            self.embeds = [(m, n, j) for n in range(1, self.EMBED_MAX + 1)
                           for m in range(1, n + 1) for j in (False, True)]
            self.rng.shuffle(self.embeds)
        return embed_query(*self.embeds.pop())

    def _parsed(self, m, n, *profile):
        return text_chain_query(m, _radial_components(self.rng, m, n, *profile))

    def _invalid(self, m, n, *profile):
        """Add b*x1*x2 to the first component: the x1-axis restriction is
        unchanged, so only the full identity check can reject the lift."""
        rng = self.rng
        while True:
            comps = _radial_components(rng, m, n, *profile)
            bump = Fraction(rng.choice((-2, -1, 1, 2)))
            comps[0] = oracle.poly_add(comps[0], {tuple(1 if j < 2 else 0 for j in range(m)): bump})
            if not oracle.is_radial_at_samples(comps, m):
                return invalid_lift_query(m, comps)

    def cycle(self) -> list[Query]:
        rng = self.rng
        slots = [self._embed() for _ in range(self.EMBEDS_PER_CYCLE)]
        slots += [rvl_chain_query(*size, rng.getrandbits(32)) for size in self.RVL_SIZES]
        slots += [rvl_chain_query(*size, rng.getrandbits(32)) for size in self.RVL_MIXED_SIZES]
        slots += [self._parsed(*self.BIG) for _ in range(2)]
        slots += [self._invalid(*self.BIG) for _ in range(2)]
        slots.append(self._invalid(*self.FULL_INVALID))
        size = self.TABLE_SIZES[self.cycles % len(self.TABLE_SIZES)]
        slots.append(orbit_table_query("table-orbit", size, self.cycles % 2 == 1))
        self.cycles += 1
        rng.shuffle(slots)
        return slots

    def warmup(self) -> list[Query]:
        rng = self.rng
        return [self._embed(), rvl_chain_query(3, 1, 4, rng.getrandbits(32)),
                self._invalid(3, 1, (1, 2), ()), orbit_table_query("table-orbit", 4, True)]

    def probes(self) -> list[Query]:
        return []


# ---------------------------------------------------------------------------
# cli-mix: many small main(argv) calls over a reused query set
# ---------------------------------------------------------------------------

_CELLS = (
    ("internal", None), ("vincent", None), ("right", None),
    ("y-internal", "R"), ("y-internal", "torus"), ("y-internal", "orbit"),
    ("y-right", "R"), ("y-right", "torus"), ("y-right", "orbit"),
)

_CLASSICAL_ROWS = [("R", k) for k in range(4)] + [("torus", 2)] + [("orbit", n) for n in range(1, 5)]


def tangent_query(space, functor, test, texts, as_json: bool) -> Query:
    argv = ["tangent", "--space", texts[0], "--functor", functor]
    if test is not None:
        argv += ["--test", texts[1]]
    expected = oracle.tangent_dim(space, functor, test)
    return cli_query("tangent", argv + _json_flag(as_json), _dim_check(expected, as_json))


def classical_table_query(as_json: bool) -> Query:
    functors = ("internal", "vincent", "right")
    expected = [[oracle.classical_dim(s, f) for f in functors] for s in _CLASSICAL_ROWS]

    def read(code, out):
        if as_json:
            dims = [r["dimension"] for r in json.loads(out)]
            got = [dims[i * 3 : i * 3 + 3] for i in range(len(_CLASSICAL_ROWS))]
        else:
            got = [[int(x) for x in line.split()[1:]] for line in out.splitlines()[2:]]
        return _expect(code == 0 and got == expected, "classical table differs from the registered facts")

    return cli_query("table-classical", ["table", "classical"] + _json_flag(as_json), _safe(read))


def torus_table_query(cls: str, slopes: list[Surd], as_json: bool, texts=None) -> Query:
    """Rows and columns share a block exactly when the radicands agree."""
    size = len(slopes)
    expected = [[int(a.d == b.d) for b in slopes] for a in slopes]
    joined = ",".join(texts or [s.text() for s in slopes])

    def read(code, out):
        return _expect(code == 0 and read_matrix(out, as_json, size) == expected,
                       "torus table differs from the same-radicand blocks")

    return cli_query(cls, ["table", "torus", "--slopes", joined] + _json_flag(as_json), _safe(read))


class CliMix:
    """The same small set of CLI queries, reshuffled every cycle."""

    name = "cli-mix"
    cold_argv = ["tangent", "--space", "R^2", "--functor", "internal"]
    RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30)
    ORBIT_SIZES = (2, 4, 6, 8)

    def __init__(self, seed: int):
        self.rng = random.Random(f"cli-mix:{seed}")
        self.queries = self._distinct_set()

    def _space(self, kind):
        rng = self.rng
        if kind == "R":
            k = rng.randrange(4)
            return ("R", k), f"R^{k}"
        if kind == "orbit":
            n = rng.randint(1, 5)
            return ("orbit", n), f"orbit:{n}"
        slope = _small_surd(rng, rng.choice(self.RADICANDS[:4]))
        return ("torus", slope.d), f"torus:{slope.text()}"

    def _slopes(self, count):
        rng = self.rng
        return [_small_surd(rng, rng.choice(self.RADICANDS)) for _ in range(count)]

    def _distinct_set(self) -> list[Query]:
        rng = self.rng
        out = []
        for kind in ("R", "torus", "orbit"):
            for functor, test_kind in _CELLS:
                for _ in range(2):
                    space, space_text = self._space(kind)
                    test, test_text = self._space(test_kind) if test_kind else (None, None)
                    for as_json in (False, True):
                        out.append(tangent_query(space, functor, test, (space_text, test_text), as_json))
        out += [classical_table_query(j) for j in (False, True)]
        seven = self._slopes(7)
        out += [torus_table_query("table-torus-7", seven, j) for j in (False, True)]
        out.append(torus_table_query("table-torus-40", self._slopes(40), False))
        out += [orbit_table_query("table-orbit-small", size, rng.random() < 0.5) for size in self.ORBIT_SIZES]
        return out

    def cycle(self) -> list[Query]:
        slots = list(self.queries)
        self.rng.shuffle(slots)
        return slots

    def warmup(self) -> list[Query]:
        return list(self.queries)

    def probes(self) -> list[Query]:
        """Known defect: a value starting with '-' passed as its own argv word.

        argparse reads "-3+sqrt(2)" as an option and exits 2, although
        "--slopes=-3+sqrt(2),..." works.
        """
        rng = self.rng
        out = []
        for as_json in (False, True):
            d = rng.choice(self.RADICANDS)
            first = f"-{rng.randint(1, 9)}+sqrt({d})"
            slopes = [Surd(Fraction(int(first[: first.index("+")])), Fraction(1), d)] + self._slopes(2)
            texts = [first] + [s.text() for s in slopes[1:]]
            out.append(torus_table_query("negative-slope", slopes, as_json, texts))
            alpha = Surd(Fraction(-rng.randint(1, 9)), Fraction(1), d)
            beta = _image(rng, alpha)
            argv = ["witness", "mobius", "--alpha", f"{int(alpha.p)}+sqrt({d})", "--beta", beta.text()]
            out.append(cli_query("negative-slope", argv + _json_flag(as_json),
                                 _witness_check(alpha, beta, as_json, False)))
        return out


WORKLOADS = {w.name: w for w in (TorusCF, OrbitLift, CliMix)}
