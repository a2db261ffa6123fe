"""Golden CLI transcript: exact stdout and exit code for every tangent cell.

Each case runs main(argv) and compares stdout and the exit code with the
committed transcript in tests/golden/cli.txt.  The cases cover every
(construction, space family, test family) cell of `tangent` in text and
--json form -- the families are R^0, R^k (k >= 1), irrational tori and
orbit spaces -- plus the three tables, the three witness commands and the
--help text of every command.
Tori include slopes in one field and across fields; orbit pairs include
test index below, equal to and above the space index.  R^0 is a family
of one space, so it has one instance; every other family has at least
two.

argparse wraps help text to the terminal width, so every case runs with
COLUMNS=80.  Regenerate the transcript only when an output change is
intended:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import functools
import io
import os
import shlex
from unittest import mock
from pathlib import Path

import pytest

from difftan.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"

SPACES = (
    "R^0",
    "R^1",
    "R^3",
    "torus:sqrt(2)",
    "torus:1+sqrt(2)",
    "torus:sqrt(3)",
    "orbit:1",
    "orbit:2",
    "orbit:4",
)


def _cases() -> list[list[str]]:
    cases = []
    for space in SPACES:
        for functor in ("internal", "vincent", "right"):
            cases.append(["tangent", "--space", space, "--functor", functor])
    for functor in ("y-internal", "y-right"):
        for space in SPACES:
            for test in SPACES:
                cases.append(
                    ["tangent", "--space", space, "--functor", functor, "--test", test]
                )
    cases = [argv + flag for argv in cases for flag in ([], ["--json"])]
    slopes = "sqrt(2),1+sqrt(2),(1+sqrt(5))/2,sqrt(5),sqrt(3)"
    for argv in (
        ["table", "classical"],
        ["table", "torus", "--slopes", slopes],
        ["table", "orbit", "--max", "3"],
        ["witness", "mobius", "--alpha", "1+sqrt(2)", "--beta", "sqrt(2)"],
        ["witness", "mobius", "--alpha", "sqrt(2)", "--beta", "sqrt(3)"],
        ["witness", "diffeo", "--alpha", "sqrt(2)", "--beta", "1+sqrt(2)"],
        ["witness", "diffeo", "--alpha", "(1+sqrt(5))/2", "--beta", "sqrt(5)"],
        ["witness", "diffeo", "--alpha", "-sqrt(94)", "--beta", "(5-sqrt(94))/3"],
        ["witness", "diffeo", "--alpha", "sqrt(1019)", "--beta", "2*sqrt(1019)"],
        # Period 1798, with a non-empty head before the shared tail on both sides.
        [
            "witness",
            "diffeo",
            "--alpha",
            "sqrt(999979)",
            "--beta",
            "(-3+sqrt(999979))/999970",
        ],
        ["witness", "embed", "--m", "2", "--n", "3"],
        ["witness", "embed", "--m", "2", "--n", "2"],
        ["witness", "embed", "--m", "3", "--n", "1"],
    ):
        cases += [argv, argv + ["--json"]]
    for path in (
        [],
        ["tangent"],
        ["table"],
        ["table", "classical"],
        ["table", "torus"],
        ["table", "orbit"],
        ["witness"],
        ["witness", "mobius"],
        ["witness", "diffeo"],
        ["witness", "embed"],
    ):
        cases.append(path + ["--help"])
    return cases


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.dict(os.environ, {"COLUMNS": "80"}),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main(argv)
    return code, out.getvalue()


def _entry(argv: list[str], code: int, out: str) -> str:
    return f"$ difftan {shlex.join(argv)}\nexit {code}\n{out}"


@functools.cache
def _golden_entries() -> dict[str, str]:
    text = GOLDEN.read_text(encoding="utf-8")
    chunks = text.split("\n$ difftan ")
    chunks = [chunks[0]] + ["$ difftan " + chunk for chunk in chunks[1:]]
    return {chunk.split("\n", 1)[0]: chunk.rstrip("\n") + "\n" for chunk in chunks}


CASES = _cases()


def test_transcript_lists_exactly_the_cases():
    headers = [f"$ difftan {shlex.join(argv)}" for argv in CASES]
    assert list(_golden_entries()) == headers


@pytest.mark.parametrize("argv", CASES, ids=shlex.join)
def test_cli_output_matches_transcript(argv):
    expected = _golden_entries()[f"$ difftan {shlex.join(argv)}"]
    assert _entry(argv, *_run(argv)) == expected


def write_golden() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    entries = [_entry(argv, *_run(argv)) for argv in CASES]
    GOLDEN.write_text("\n".join(entries), encoding="utf-8")


if __name__ == "__main__":
    write_golden()
