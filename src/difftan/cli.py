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
from .functor_core import catalog_spaces, tangent
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
    MAX_ORBIT_DIM,
    FunctorKind,
    IrrationalTorus,
    parse_space,
)
from .torus import diffeomorphic

EXIT_OK = 0
EXIT_NO_WITNESS = 1
EXIT_INPUT = 2
EXIT_UNDETERMINED = 3

# Largest `table orbit --max`: the table runs theorem2_dim on max^2 cells,
# which takes seconds from about 30 on.
MAX_ORBIT_TABLE = 32


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


def _emit_table_json(grid, raw_input: dict) -> int:
    _emit_json([_record_of(rep, raw_input) for row in grid for rep in row])
    return EXIT_OK


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


def _cmd_table_classical(args) -> int:
    grid = [
        [tangent(space, FunctorKind(name)) for name in CLASSICAL_FUNCTORS]
        for space in catalog_spaces((parse_quadratic("sqrt(2)"),))
    ]
    if args.json:
        return _emit_table_json(grid, {"table": "classical"})
    print("classical tangent dimensions (torus row is slope-independent)")
    header = f"{'space':<16}" + "".join(f"{name:>10}" for name in CLASSICAL_FUNCTORS)
    print(header)
    for row in grid:
        cells = "".join(f"{rep.dimension:>10}" for rep in row)
        print(f"{row[0].space.label:<16}{cells}")
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
        return _emit_table_json(grid, {"table": "torus", "slopes": texts})
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
    if not 1 <= args.max <= MAX_ORBIT_TABLE:
        raise ValueError(f"--max must be >= 1 and <= {MAX_ORBIT_TABLE}")
    size = args.max
    grid = [[theorem2_dim(m, n) for n in range(1, size + 1)] for m in range(1, size + 1)]
    if args.json:
        return _emit_table_json(grid, {"table": "orbit", "max": size})
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


def _cmd_witness_slopes(args) -> int:
    """witness mobius and witness diffeo; diffeo adds the two expansions."""
    alpha = _parse_slope("alpha", args.alpha)
    beta = _parse_slope("beta", args.beta)
    fields = {"alpha": format_surd(alpha), "beta": format_surd(beta)}
    if args.witness_kind == "diffeo":
        fields["alpha_cf"] = str(cf_expand(alpha))
        fields["beta_cf"] = str(cf_expand(beta))
        witness = diffeomorphic(IrrationalTorus(alpha), IrrationalTorus(beta))
    else:
        witness = mobius_witness(alpha, beta)
    if args.json:
        raw_input = {"alpha": args.alpha, "beta": args.beta}
        _emit_json(
            {
                **_json_header(raw_input, f"witness-{args.witness_kind}"),
                **fields,
                "witness": _witness_json(witness),
            }
        )
    else:
        for key, value in fields.items():
            print(f"{key.replace('_', ' ')}: {value}")
        print(f"witness: {witness if witness else 'none'}")
    return EXIT_OK if witness else EXIT_NO_WITNESS


def _cmd_witness_embed(args) -> int:
    if not all(1 <= size <= MAX_ORBIT_DIM for size in (args.m, args.n)):
        raise ValueError(f"--m and --n must be >= 1 and <= {MAX_ORBIT_DIM}")
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


_FUNCTOR_CHOICES = ("internal", "right", "vincent", "y-internal", "y-right")
_SLOPE = {"required": True, "surd": True}
_SLOPES = (("--alpha", _SLOPE), ("--beta", _SLOPE))
_SIZE = {"required": True, "type": int}

# The command tree, one row per command or group: its words, help, options
# and handler.  A row with a handler is a leaf and also takes --json; a row
# without one groups the rows under it.  An option is a flag and its
# add_argument keywords; "surd" marks a value that may start with '-' (a
# negative slope, see _attach_dash_values).
_COMMANDS = (
    ("tangent", "dimension and witnesses for one space and construction", (
        ("--space", {"required": True, "help": "R^k, torus:<expr>, orbit:<n>"}),
        ("--functor", {"required": True, "choices": _FUNCTOR_CHOICES}),
        ("--test", {"help": "test space for y-internal / y-right"}),
    ), _cmd_tangent),
    ("table", "dimension matrices", (), None),
    ("table classical", "internal/vincent/right", (), _cmd_table_classical),
    ("table torus", "torus-tested y-internal matrix",
     (("--slopes", {**_SLOPE, "help": "comma-separated surds"}),), _cmd_table_torus),
    ("table orbit", "orbit-tested y-right matrix", (("--max", _SIZE),), _cmd_table_orbit),
    ("witness", "explicit witnesses", (), None),
    ("witness mobius", "same-field Moebius witness", _SLOPES, _cmd_witness_slopes),
    ("witness diffeo", "unimodular witness", _SLOPES, _cmd_witness_slopes),
    ("witness embed", "orbit-space embedding witness",
     (("--m", _SIZE), ("--n", _SIZE)), _cmd_witness_embed),
)


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
    parsers, subparsers = {"": parser}, {}
    for name, help_text, options, handler in _COMMANDS:
        group, _, leaf = name.rpartition(" ")
        if group not in subparsers:
            dest = f"{group}_kind" if group else "command"
            subparsers[group] = parsers[group].add_subparsers(dest=dest, required=True)
        command = parsers[name] = subparsers[group].add_parser(leaf, help=help_text)
        for flag, keywords in options:
            command.add_argument(
                flag, **{key: value for key, value in keywords.items() if key != "surd"}
            )
        if handler:
            command.add_argument("--json", action="store_true")
            command.set_defaults(handler=handler)
    return parser


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Join `--alpha -1+sqrt(2)` into `--alpha=-1+sqrt(2)`.

    argparse reads a separate word starting with '-' as an option, so a
    negative slope would be reported as a missing value.  The option may be
    any abbreviation argparse accepts (`--alph`); the surd options differ in
    their first letter, so every prefix longer than '--' is unambiguous.
    Words that start with '--', and -h, stay options: `--alpha --json` is
    still an error.
    """
    surd_options = [
        flag
        for *_, options, _ in _COMMANDS
        for flag, keywords in options
        if keywords.get("surd")
    ]
    out: list[str] = []
    for word in argv:
        if (
            out
            and len(out[-1]) > 2
            and any(name.startswith(out[-1]) for name in surd_options)
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
