"""Command-line interface.

Subcommands:

  tangent   dimension/generators/witness for one space and construction
  table     dimension matrices (classical, torus y-internal, orbit y-right)
  witness   explicit witnesses (mobius, diffeo, embed)

Exit codes: 0 determined result, 1 no witness exists, 2 input error,
3 undetermined cell.  With --json every command prints a JSON document
(an object for single queries, an array of records for tables); output is
deterministic, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import __version__
from .functor_core import tangent
from .orbit_space import LiftWitness, theorem2_dim
from .quad_field import (
    MobiusWitness,
    cf_expand,
    format_surd,
    mobius_witness,
    parse_quadratic,
)
from .spaces import (
    CLASSICAL_FUNCTORS,
    EuclideanSpace,
    FunctorKind,
    IrrationalTorus,
    OrbitSpace,
    parse_space,
)
from .torus import diffeomorphic

EXIT_OK = 0
EXIT_NO_WITNESS = 1
EXIT_INPUT = 2
EXIT_UNDETERMINED = 3

_FUNCTOR_CHOICES = ("internal", "right", "vincent", "y-internal", "y-right")
# Options whose value may start with '-' (a negative slope).
_SURD_OPTIONS = ("--alpha", "--beta", "--slopes")


def _witness_json(witness):
    if witness is None:
        return None
    if isinstance(witness, MobiusWitness):
        return {
            "kind": "mobius",
            "a": witness.a,
            "b": witness.b,
            "c": witness.c,
            "d": witness.d,
            "det": witness.det,
        }
    if isinstance(witness, LiftWitness):
        return {
            "kind": "lift",
            "source_dim": witness.lift.m,
            "target_dim": witness.lift.n,
            "components": [str(c) for c in witness.lift.components],
            "psi": str(witness.psi),
            "pushforward": str(witness.pushforward),
        }
    raise TypeError(f"unknown witness type {type(witness).__name__}")


def _witness_text(witness) -> str:
    if witness is None:
        return "-"
    if isinstance(witness, MobiusWitness):
        return str(witness)
    if isinstance(witness, LiftWitness):
        return (
            f"lift {witness.lift.to_text()}, psi = {witness.psi}, "
            f"pushforward = {witness.pushforward}"
        )
    raise TypeError(f"unknown witness type {type(witness).__name__}")


def _json_header(raw_input: dict, command: Optional[str] = None) -> dict:
    header = {"tool": "difftan", "version": __version__}
    if command:
        header["command"] = command
    header["input"] = raw_input
    return header


def _record_of(report, raw_input: dict) -> dict:
    return {
        **_json_header(raw_input),
        "space": report.space.label,
        "functor": report.functor.name,
        "test": report.functor.test.label if report.functor.test else None,
        "dimension": report.dimension if report.determined else "undetermined",
        "generators": list(report.generators),
        "witness": _witness_json(report.witness),
        "status": report.status,
        "justification": report.justification,
    }


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, ensure_ascii=False))


def _print_report(report) -> None:
    print(f"space: {report.space.label}")
    print(f"functor: {report.functor.name}")
    print(f"test: {report.functor.test.label if report.functor.test else '-'}")
    dim = report.dimension if report.determined else "undetermined"
    print(f"dimension: {dim}")
    gens = ", ".join(report.generators) if report.generators else "-"
    print(f"generators: {gens}")
    print(f"witness: {_witness_text(report.witness)}")
    print(f"status: {report.status}")
    print(f"justification: {report.justification}")


def _cmd_tangent(args) -> int:
    space = parse_space(args.space)
    if args.functor in CLASSICAL_FUNCTORS:
        if args.test is not None:
            raise ValueError(f"--test is not allowed for {args.functor}")
        functor = FunctorKind(args.functor)
    else:
        if args.test is None:
            raise ValueError(f"--test is required for {args.functor}")
        test = parse_space(args.test)
        functor = FunctorKind(args.functor, test)
    report = tangent(space, functor)
    if args.json:
        _emit_json(
            _record_of(
                report,
                {"space": args.space, "functor": args.functor, "test": args.test},
            )
        )
    else:
        _print_report(report)
    return EXIT_OK if report.determined else EXIT_UNDETERMINED


def _classical_table_rows():
    spaces = [EuclideanSpace(k) for k in range(4)]
    spaces.append(IrrationalTorus(parse_quadratic("sqrt(2)")))
    spaces.extend(OrbitSpace(n) for n in range(1, 5))
    return [
        (space, [tangent(space, FunctorKind(name)) for name in CLASSICAL_FUNCTORS])
        for space in spaces
    ]


def _cmd_table_classical(args) -> int:
    rows = _classical_table_rows()
    if args.json:
        records = [
            _record_of(rep, {"table": "classical"})
            for _, reports in rows
            for rep in reports
        ]
        _emit_json(records)
        return EXIT_OK
    print("classical tangent dimensions (torus row is slope-independent)")
    header = f"{'space':<16}" + "".join(f"{name:>10}" for name in CLASSICAL_FUNCTORS)
    print(header)
    for space, reports in rows:
        cells = "".join(f"{rep.dimension:>10}" for rep in reports)
        print(f"{space.label:<16}{cells}")
    return EXIT_OK


def _cmd_table_torus(args) -> int:
    texts = [piece.strip() for piece in args.slopes.split(",") if piece.strip()]
    if not texts:
        raise ValueError("--slopes needs at least one expression")
    slopes = []
    for idx, text in enumerate(texts, start=1):
        value = parse_quadratic(text)
        if isinstance(value, Fraction):
            raise ValueError(f"slope {idx} ({text!r}): torus slope must be irrational")
        slopes.append(value)
    tori = [IrrationalTorus(slope) for slope in slopes]
    grid = [
        [tangent(space, FunctorKind.y_internal(test)) for space in tori]
        for test in tori
    ]
    if args.json:
        records = [
            _record_of(rep, {"table": "torus", "slopes": texts})
            for row in grid
            for rep in row
        ]
        _emit_json(records)
        return EXIT_OK
    print("y-internal dimensions; rows = test slope, cols = space slope")
    for idx, text in enumerate(texts, start=1):
        print(f"  [{idx}] {format_surd(slopes[idx - 1])}")
    width = max(4, len(str(len(texts))) + 3)
    header = " " * width + "".join(f"[{j + 1}]".rjust(width) for j in range(len(texts)))
    print(header)
    for i, row in enumerate(grid):
        cells = "".join(str(rep.dimension).rjust(width) for rep in row)
        print(f"[{i + 1}]".ljust(width) + cells)
    return EXIT_OK


def _cmd_table_orbit(args) -> int:
    if args.max < 1:
        raise ValueError("--max must be >= 1")
    size = args.max
    grid = [[theorem2_dim(m, n) for n in range(1, size + 1)] for m in range(1, size + 1)]
    if args.json:
        records = [
            _record_of(rep, {"table": "orbit", "max": size})
            for row in grid
            for rep in row
        ]
        _emit_json(records)
        return EXIT_OK
    print("y-right dimensions; rows = test orbit:m, cols = space orbit:n")
    width = max(3, len(str(size)) + 1)
    print("m\\n".ljust(6) + "".join(str(n).rjust(width) for n in range(1, size + 1)))
    for m, row in enumerate(grid, start=1):
        cells = "".join(str(rep.dimension).rjust(width) for rep in row)
        print(str(m).ljust(6) + cells)
    return EXIT_OK


def _parse_slope(label: str, text: str):
    value = parse_quadratic(text)
    if isinstance(value, Fraction):
        raise ValueError(f"--{label} must be irrational (quadratic surd)")
    return value


def _cmd_witness_mobius(args) -> int:
    alpha = _parse_slope("alpha", args.alpha)
    beta = _parse_slope("beta", args.beta)
    witness = mobius_witness(alpha, beta)
    if args.json:
        _emit_json(
            {
                **_json_header(
                    {"alpha": args.alpha, "beta": args.beta}, "witness-mobius"
                ),
                "alpha": format_surd(alpha),
                "beta": format_surd(beta),
                "witness": _witness_json(witness),
            }
        )
    else:
        print(f"alpha: {format_surd(alpha)}")
        print(f"beta: {format_surd(beta)}")
        print(f"witness: {witness if witness else 'none'}")
    return EXIT_OK if witness else EXIT_NO_WITNESS


def _cmd_witness_diffeo(args) -> int:
    alpha = _parse_slope("alpha", args.alpha)
    beta = _parse_slope("beta", args.beta)
    alpha_cf = cf_expand(alpha)
    beta_cf = cf_expand(beta)
    witness = diffeomorphic(IrrationalTorus(alpha), IrrationalTorus(beta))
    if args.json:
        _emit_json(
            {
                **_json_header(
                    {"alpha": args.alpha, "beta": args.beta}, "witness-diffeo"
                ),
                "alpha": format_surd(alpha),
                "beta": format_surd(beta),
                "alpha_cf": str(alpha_cf),
                "beta_cf": str(beta_cf),
                "witness": _witness_json(witness),
            }
        )
    else:
        print(f"alpha: {format_surd(alpha)}")
        print(f"beta: {format_surd(beta)}")
        print(f"alpha cf: {alpha_cf}")
        print(f"beta cf: {beta_cf}")
        print(f"witness: {witness if witness else 'none'}")
    return EXIT_OK if witness else EXIT_NO_WITNESS


def _cmd_witness_embed(args) -> int:
    if args.m < 1 or args.n < 1:
        raise ValueError("--m and --n must be >= 1")
    witness = theorem2_dim(args.m, args.n).witness
    reason = None
    if witness is None:
        reason = (
            "the rank obstruction forces every pushforward to vanish when m > n"
        )
    if args.json:
        payload = {
            **_json_header({"m": args.m, "n": args.n}, "witness-embed"),
            "witness": _witness_json(witness),
        }
        if reason:
            payload["reason"] = reason
        _emit_json(payload)
    else:
        if witness:
            print(f"lift: {witness.lift.to_text()}")
            print(f"psi: {witness.psi}")
            print(f"pushforward: {witness.pushforward}")
        else:
            print("witness: none")
            print(f"reason: {reason}")
    return EXIT_OK if witness else EXIT_NO_WITNESS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="difftan",
        description=(
            "Exact tangent-space dimensions and witnesses for Euclidean "
            "opens, irrational tori, and orbit spaces."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"difftan {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tangent_p = sub.add_parser(
        "tangent", help="dimension and witnesses for one space and construction"
    )
    tangent_p.add_argument("--space", required=True, help="R^k, torus:<expr>, orbit:<n>")
    tangent_p.add_argument("--functor", required=True, choices=_FUNCTOR_CHOICES)
    tangent_p.add_argument("--test", help="test space for y-internal / y-right")
    tangent_p.add_argument("--json", action="store_true")
    tangent_p.set_defaults(handler=_cmd_tangent)

    table_p = sub.add_parser("table", help="dimension matrices")
    table_sub = table_p.add_subparsers(dest="table_kind", required=True)

    classical_p = table_sub.add_parser("classical", help="internal/vincent/right")
    classical_p.add_argument("--json", action="store_true")
    classical_p.set_defaults(handler=_cmd_table_classical)

    torus_p = table_sub.add_parser("torus", help="torus-tested y-internal matrix")
    torus_p.add_argument("--slopes", required=True, help="comma-separated surds")
    torus_p.add_argument("--json", action="store_true")
    torus_p.set_defaults(handler=_cmd_table_torus)

    orbit_p = table_sub.add_parser("orbit", help="orbit-tested y-right matrix")
    orbit_p.add_argument("--max", required=True, type=int)
    orbit_p.add_argument("--json", action="store_true")
    orbit_p.set_defaults(handler=_cmd_table_orbit)

    witness_p = sub.add_parser("witness", help="explicit witnesses")
    witness_sub = witness_p.add_subparsers(dest="witness_kind", required=True)

    mobius_p = witness_sub.add_parser("mobius", help="same-field Moebius witness")
    mobius_p.add_argument("--alpha", required=True)
    mobius_p.add_argument("--beta", required=True)
    mobius_p.add_argument("--json", action="store_true")
    mobius_p.set_defaults(handler=_cmd_witness_mobius)

    diffeo_p = witness_sub.add_parser("diffeo", help="unimodular witness")
    diffeo_p.add_argument("--alpha", required=True)
    diffeo_p.add_argument("--beta", required=True)
    diffeo_p.add_argument("--json", action="store_true")
    diffeo_p.set_defaults(handler=_cmd_witness_diffeo)

    embed_p = witness_sub.add_parser("embed", help="orbit-space embedding witness")
    embed_p.add_argument("--m", required=True, type=int)
    embed_p.add_argument("--n", required=True, type=int)
    embed_p.add_argument("--json", action="store_true")
    embed_p.set_defaults(handler=_cmd_witness_embed)

    return parser


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Join `--alpha -1+sqrt(2)` into `--alpha=-1+sqrt(2)`.

    argparse reads a separate word starting with '-' as an option, so a
    negative slope would be reported as a missing value.  The option may be
    any abbreviation argparse accepts (`--alph`); the three names differ in
    their first letter, so every prefix longer than '--' is unambiguous.
    Words that start with '--', and -h, stay options: `--alpha --json` is
    still an error.
    """
    out: list[str] = []
    for word in argv:
        if (
            out
            and len(out[-1]) > 2
            and any(name.startswith(out[-1]) for name in _SURD_OPTIONS)
            and word.startswith("-")
            and not word.startswith("--")
            and word != "-h"
        ):
            out[-1] = f"{out[-1]}={word}"
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_attach_dash_values(argv))
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return EXIT_OK
        return EXIT_INPUT
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())
