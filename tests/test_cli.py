"""End-to-end command-line tests driven through main()."""

import contextlib
import io
import json
import time

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftan import __version__
from difftan.cli import (
    EXIT_INPUT,
    EXIT_NO_WITNESS,
    EXIT_OK,
    EXIT_UNDETERMINED,
    MAX_ORBIT_TABLE,
    main,
)
from difftan.spaces import MAX_EUCLIDEAN_DIM, MAX_ORBIT_DIM

RECORD_SCHEMA = {
    "type": "object",
    "required": [
        "tool",
        "version",
        "input",
        "space",
        "functor",
        "test",
        "dimension",
        "generators",
        "witness",
        "status",
        "justification",
    ],
    "additionalProperties": False,
    "properties": {
        "tool": {"const": "difftan"},
        "version": {"type": "string"},
        "input": {"type": "object"},
        "space": {"type": "string"},
        "functor": {
            "enum": ["internal", "vincent", "right", "y-internal", "y-right"]
        },
        "test": {"type": ["string", "null"]},
        "dimension": {
            "anyOf": [{"type": "integer", "minimum": 0}, {"const": "undetermined"}]
        },
        "generators": {"type": "array", "items": {"type": "string"}},
        "witness": {
            "anyOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["kind", "a", "b", "c", "d", "det"],
                    "properties": {"kind": {"const": "mobius"}},
                },
                {
                    "type": "object",
                    "required": [
                        "kind",
                        "source_dim",
                        "target_dim",
                        "components",
                        "psi",
                        "pushforward",
                    ],
                    "properties": {"kind": {"const": "lift"}},
                },
            ]
        },
        "status": {
            "enum": ["computed", "registered-by-theorem", "undetermined-by-theory"]
        },
        "justification": {"type": "string"},
    },
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- tangent


def test_tangent_torus_same_field(capsys):
    code, out, err = run(
        capsys,
        [
            "tangent",
            "--space",
            "torus:1+sqrt(2)",
            "--functor",
            "y-internal",
            "--test",
            "torus:sqrt(2)",
        ],
    )
    assert code == EXIT_OK
    assert err == ""
    assert out == (
        "space: torus:1+sqrt(2)\n"
        "functor: y-internal\n"
        "test: torus:sqrt(2)\n"
        "dimension: 1\n"
        "generators: [π_α, ∂/∂t]\n"
        "witness: (a,b,c,d) = (1,1,1,0), det = -1\n"
        "status: computed\n"
        "justification: the slopes are related by an integer Moebius "
        "transformation, so the witnessed affine map pushes the generator "
        "forward with nonzero scale and the refining relation identifies "
        "nothing new\n"
    )


def test_tangent_undetermined_cell(capsys):
    code, out, _ = run(
        capsys,
        [
            "tangent",
            "--space",
            "torus:sqrt(2)",
            "--functor",
            "y-internal",
            "--test",
            "orbit:2",
        ],
    )
    assert code == EXIT_UNDETERMINED
    assert "dimension: undetermined\n" in out
    assert "status: undetermined-by-theory\n" in out
    assert "generators: -\n" in out


def test_tangent_classical_euclidean(capsys):
    code, out, _ = run(capsys, ["tangent", "--space", "R^2", "--functor", "right"])
    assert code == EXIT_OK
    assert "dimension: 2\n" in out
    assert "generators: ∂/∂x1, ∂/∂x2\n" in out
    assert "status: registered-by-theorem\n" in out


def test_tangent_classical_rejects_test(capsys):
    code, out, err = run(
        capsys,
        ["tangent", "--space", "R^2", "--functor", "internal", "--test", "R^1"],
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: --test is not allowed for internal\n"


def test_tangent_relative_requires_test(capsys):
    code, _, err = run(capsys, ["tangent", "--space", "R^2", "--functor", "y-right"])
    assert code == EXIT_INPUT
    assert err == "error: --test is required for y-right\n"


def test_tangent_rejects_rational_slope(capsys):
    code, _, err = run(
        capsys, ["tangent", "--space", "torus:(3)/2", "--functor", "internal"]
    )
    assert code == EXIT_INPUT
    assert err == "error: torus slope must be irrational\n"


def test_tangent_rejects_bad_space(capsys):
    code, _, err = run(capsys, ["tangent", "--space", "R^-1", "--functor", "internal"])
    assert code == EXIT_INPUT
    assert "bad Euclidean dimension" in err


def test_tangent_json_record(capsys):
    code, out, _ = run(
        capsys,
        [
            "tangent",
            "--space",
            "torus:1+sqrt(2)",
            "--functor",
            "y-internal",
            "--test",
            "torus:sqrt(2)",
            "--json",
        ],
    )
    assert code == EXIT_OK
    record = json.loads(out)
    jsonschema.validate(record, RECORD_SCHEMA)
    assert record["tool"] == "difftan"
    assert record["version"] == __version__
    assert record["input"] == {
        "space": "torus:1+sqrt(2)",
        "functor": "y-internal",
        "test": "torus:sqrt(2)",
    }
    assert record["dimension"] == 1
    assert record["witness"] == {
        "kind": "mobius",
        "a": 1,
        "b": 1,
        "c": 1,
        "d": 0,
        "det": -1,
    }


def test_tangent_json_undetermined(capsys):
    code, out, _ = run(
        capsys,
        [
            "tangent",
            "--space",
            "torus:sqrt(2)",
            "--functor",
            "y-internal",
            "--test",
            "orbit:1",
            "--json",
        ],
    )
    assert code == EXIT_UNDETERMINED
    record = json.loads(out)
    jsonschema.validate(record, RECORD_SCHEMA)
    assert record["dimension"] == "undetermined"
    assert record["generators"] == []
    assert record["witness"] is None


# ------------------------------------------------------------------ tables


def test_table_classical_text(capsys):
    code, out, _ = run(capsys, ["table", "classical"])
    assert code == EXIT_OK
    assert out == (
        "classical tangent dimensions (torus row is slope-independent)\n"
        "space             internal   vincent     right\n"
        "R^0                      0         0         0\n"
        "R^1                      1         1         1\n"
        "R^2                      2         2         2\n"
        "R^3                      3         3         3\n"
        "torus:sqrt(2)            1         0         0\n"
        "orbit:1                  0         0         1\n"
        "orbit:2                  0         0         1\n"
        "orbit:3                  0         0         1\n"
        "orbit:4                  0         0         1\n"
    )


def test_table_classical_json(capsys):
    code, out, _ = run(capsys, ["table", "classical", "--json"])
    assert code == EXIT_OK
    records = json.loads(out)
    assert len(records) == 27  # 9 spaces x 3 constructions
    for record in records:
        jsonschema.validate(record, RECORD_SCHEMA)
        assert record["input"] == {"table": "classical"}
    by_cell = {(r["space"], r["functor"]): r["dimension"] for r in records}
    assert by_cell[("torus:sqrt(2)", "internal")] == 1
    assert by_cell[("torus:sqrt(2)", "right")] == 0
    assert by_cell[("orbit:4", "right")] == 1


def test_table_torus_text(capsys):
    code, out, _ = run(
        capsys, ["table", "torus", "--slopes", "sqrt(2),1+sqrt(2),sqrt(3)"]
    )
    assert code == EXIT_OK
    assert out == (
        "y-internal dimensions; rows = test slope, cols = space slope\n"
        "  [1] sqrt(2)\n"
        "  [2] 1+sqrt(2)\n"
        "  [3] sqrt(3)\n"
        "     [1] [2] [3]\n"
        "[1]    1   1   0\n"
        "[2]    1   1   0\n"
        "[3]    0   0   1\n"
    )


def test_table_torus_json(capsys):
    code, out, _ = run(
        capsys, ["table", "torus", "--slopes", "sqrt(2),sqrt(3)", "--json"]
    )
    assert code == EXIT_OK
    records = json.loads(out)
    assert len(records) == 4
    for record in records:
        jsonschema.validate(record, RECORD_SCHEMA)
        assert record["input"]["slopes"] == ["sqrt(2)", "sqrt(3)"]
    grid = {(r["test"], r["space"]): r["dimension"] for r in records}
    assert grid == {
        ("torus:sqrt(2)", "torus:sqrt(2)"): 1,
        ("torus:sqrt(2)", "torus:sqrt(3)"): 0,
        ("torus:sqrt(3)", "torus:sqrt(2)"): 0,
        ("torus:sqrt(3)", "torus:sqrt(3)"): 1,
    }


def test_table_torus_flags_offending_slope(capsys):
    code, _, err = run(capsys, ["table", "torus", "--slopes", "sqrt(2),(3)/2"])
    assert code == EXIT_INPUT
    assert err == "error: slope 2 ('(3)/2'): torus slope must be irrational\n"


def test_table_torus_needs_slopes(capsys):
    code, _, err = run(capsys, ["table", "torus", "--slopes", " , "])
    assert code == EXIT_INPUT
    assert "at least one expression" in err


def test_table_orbit_text(capsys):
    code, out, _ = run(capsys, ["table", "orbit", "--max", "3"])
    assert code == EXIT_OK
    assert out == (
        "y-right dimensions; rows = test orbit:m, cols = space orbit:n\n"
        "m\\n     1  2  3\n"
        "1       1  1  1\n"
        "2       0  1  1\n"
        "3       0  0  1\n"
    )


def test_table_orbit_json(capsys):
    code, out, _ = run(capsys, ["table", "orbit", "--max", "4", "--json"])
    assert code == EXIT_OK
    records = json.loads(out)
    assert len(records) == 16
    for record in records:
        jsonschema.validate(record, RECORD_SCHEMA)
    for record in records:
        m = int(record["test"].split(":")[1])
        n = int(record["space"].split(":")[1])
        assert record["dimension"] == int(m <= n)
        if m <= n:
            assert record["witness"]["kind"] == "lift"
            assert record["witness"]["psi"] == "t"


def test_table_orbit_rejects_bad_max(capsys):
    code, _, err = run(capsys, ["table", "orbit", "--max", "0"])
    assert code == EXIT_INPUT
    assert "--max must be >= 1" in err


# --------------------------------------------------------------- witnesses


def test_witness_mobius_found(capsys):
    code, out, _ = run(
        capsys,
        ["witness", "mobius", "--alpha", "(1+sqrt(5))/2", "--beta", "sqrt(5)"],
    )
    assert code == EXIT_OK
    assert out == (
        "alpha: (1+sqrt(5))/2\n"
        "beta: sqrt(5)\n"
        "witness: (a,b,c,d) = (1,1,2,0), det = -2\n"
    )


def test_witness_mobius_absent(capsys):
    code, out, _ = run(
        capsys, ["witness", "mobius", "--alpha", "sqrt(2)", "--beta", "sqrt(3)"]
    )
    assert code == EXIT_NO_WITNESS
    assert out.endswith("witness: none\n")


def test_witness_mobius_requires_irrational(capsys):
    code, _, err = run(
        capsys, ["witness", "mobius", "--alpha", "(3)/2", "--beta", "sqrt(2)"]
    )
    assert code == EXIT_INPUT
    assert "--alpha must be irrational" in err


def test_witness_diffeo_found(capsys):
    code, out, _ = run(
        capsys, ["witness", "diffeo", "--alpha", "sqrt(2)", "--beta", "1+sqrt(2)"]
    )
    assert code == EXIT_OK
    assert out == (
        "alpha: sqrt(2)\n"
        "beta: 1+sqrt(2)\n"
        "alpha cf: [1; (2)]\n"
        "beta cf: [2; (2)]\n"
        "witness: (a,b,c,d) = (1,1,0,1), det = 1\n"
    )


def test_witness_diffeo_absent_within_field(capsys):
    code, out, _ = run(
        capsys,
        ["witness", "diffeo", "--alpha", "(1+sqrt(5))/2", "--beta", "sqrt(5)"],
    )
    assert code == EXIT_NO_WITNESS
    assert out == (
        "alpha: (1+sqrt(5))/2\n"
        "beta: sqrt(5)\n"
        "alpha cf: [1; (1)]\n"
        "beta cf: [2; (4)]\n"
        "witness: none\n"
    )


def test_witness_embed_exists(capsys):
    code, out, _ = run(capsys, ["witness", "embed", "--m", "2", "--n", "3"])
    assert code == EXIT_OK
    assert out == "lift: (x1; x2; 0)\npsi: t\npushforward: 1\n"


def test_witness_embed_obstructed(capsys):
    code, out, _ = run(capsys, ["witness", "embed", "--m", "3", "--n", "2"])
    assert code == EXIT_NO_WITNESS
    assert out == (
        "witness: none\n"
        "reason: the rank obstruction forces every pushforward to vanish "
        "when m > n\n"
    )


def test_witness_embed_json(capsys):
    code, out, _ = run(
        capsys, ["witness", "embed", "--m", "1", "--n", "2", "--json"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["witness"] == {
        "kind": "lift",
        "source_dim": 1,
        "target_dim": 2,
        "components": ["x1", "0"],
        "psi": "t",
        "pushforward": "1",
    }
    assert "reason" not in payload

    code, out, _ = run(capsys, ["witness", "embed", "--m", "2", "--n", "1", "--json"])
    assert code == EXIT_NO_WITNESS
    payload = json.loads(out)
    assert payload["witness"] is None
    assert "rank obstruction" in payload["reason"]


def test_witness_embed_rejects_nonpositive(capsys):
    code, _, err = run(capsys, ["witness", "embed", "--m", "0", "--n", "1"])
    assert code == EXIT_INPUT
    assert "--m and --n must be >= 1" in err


# ------------------------------------------------- values starting with '-'


@pytest.mark.parametrize(
    "split, joined",
    [
        (
            ["witness", "mobius", "--alpha", "-1+sqrt(2)", "--beta", "sqrt(2)"],
            ["witness", "mobius", "--alpha=-1+sqrt(2)", "--beta", "sqrt(2)"],
        ),
        (
            ["witness", "diffeo", "--alpha", "sqrt(2)", "--beta", "-sqrt(2)", "--json"],
            ["witness", "diffeo", "--alpha", "sqrt(2)", "--beta=-sqrt(2)", "--json"],
        ),
        (
            ["table", "torus", "--slopes", "-3+sqrt(2),sqrt(2)"],
            ["table", "torus", "--slopes=-3+sqrt(2),sqrt(2)"],
        ),
        (
            ["witness", "mobius", "--alph", "-1+sqrt(2)", "--beta", "sqrt(2)"],
            ["witness", "mobius", "--alpha=-1+sqrt(2)", "--beta", "sqrt(2)"],
        ),
        (
            ["table", "torus", "--sl", "-3+sqrt(2),sqrt(2)"],
            ["table", "torus", "--slopes=-3+sqrt(2),sqrt(2)"],
        ),
    ],
)
def test_value_starting_with_dash_may_be_its_own_word(capsys, split, joined):
    expected = run(capsys, joined)
    assert expected[0] == EXIT_OK
    assert run(capsys, split) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "mobius", "--alpha", "--json", "--beta", "sqrt(2)"],
        ["witness", "mobius", "--alph", "--json", "--beta", "sqrt(2)"],
        ["witness", "diffeo", "--alpha", "sqrt(2)", "--beta"],
        ["table", "torus", "--slopes", "--json"],
        ["table", "torus", "--slopes", "-h"],
    ],
)
def test_missing_value_is_still_an_input_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert "expected one argument" in err


# ------------------------------------------------------ continued fractions


def test_witness_diffeo_past_the_factoring_bound(capsys):
    code, out, _ = run(
        capsys,
        [
            "witness",
            "diffeo",
            "--alpha",
            "1000033*sqrt(1000066001090)",
            "--beta",
            "1+1000033*sqrt(1000066001090)",
        ],
    )
    assert code == EXIT_OK
    assert "witness: (a,b,c,d) = (-1,1,1,0), det = -1" in out


def test_witness_diffeo_state_bound_is_an_input_error(capsys):
    started = time.perf_counter()
    code, out, err = run(
        capsys,
        ["witness", "diffeo", "--alpha", "1000003*sqrt(1000037)", "--beta", "sqrt(2)"],
    )
    assert time.perf_counter() - started < 20
    assert code == EXIT_INPUT
    assert out == ""
    assert err.count("\n") == 1 and "state bound" in err
    assert "Traceback" not in err


def test_deeply_nested_slope_is_an_input_error(capsys):
    space = "torus:" + "(" * 3000 + "sqrt(2)" + ")" * 3000
    code, out, err = run(capsys, ["tangent", "--space", space, "--functor", "internal"])
    assert code == EXIT_INPUT
    assert out == ""
    assert err.count("\n") == 1 and "nested too deeply" in err


# ------------------------------------------------------------- size bounds


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table", "orbit", "--max", str(MAX_ORBIT_TABLE + 1)], "--max must be"),
        (["witness", "embed", "--m", str(MAX_ORBIT_DIM + 1), "--n", "1"], "--m and --n"),
        (["witness", "embed", "--m", "1", "--n", str(MAX_ORBIT_DIM + 1)], "--m and --n"),
        (
            ["tangent", "--space", f"R^{MAX_EUCLIDEAN_DIM + 1}", "--functor", "right"],
            f"exceeds {MAX_EUCLIDEAN_DIM}",
        ),
        (
            [
                "tangent",
                "--space",
                "orbit:1",
                "--functor",
                "y-right",
                "--test",
                f"orbit:{MAX_ORBIT_DIM + 1}",
            ],
            f"exceeds {MAX_ORBIT_DIM}",
        ),
        (
            ["tangent", "--space", f"orbit:{MAX_ORBIT_DIM + 1}", "--functor", "right"],
            f"exceeds {MAX_ORBIT_DIM}",
        ),
    ],
)
def test_size_past_its_bound_is_an_input_error(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.count("\n") == 1 and message in err


# ------------------------------------------------------------ argv fuzzing

_SURDS = (
    "sqrt(2)", "1+sqrt(2)", "-sqrt(3)", "(1+sqrt(5))/2", "-1+sqrt(2)", "2*sqrt(8)",
    "3/2", "sqrt(4)", "sqrt(-2)", "sqrt(", "1/0", "(sqrt(2)", "sqrt(2)/0", "",
    "sqrt(2),-sqrt(5)", "sqrt(2),,3", " , ",
)
_SPACES = (
    "R^0", "R^2", "R^", "R^x", "R^-1", "torus:sqrt(3)", "torus:-1+sqrt(2)",
    "torus:2", "torus:", "orbit:0", "orbit:3", "orbit:x", "klein",
)
_FUNCTORS = ("internal", "right", "vincent", "y-internal", "y-right", "sideways")
_SMALL_INTS = st.integers(-2, 6).map(str)
_SLOPE_PAIR = {"--alpha": st.sampled_from(_SURDS), "--beta": st.sampled_from(_SURDS)}
_WORD = st.one_of(
    st.sampled_from(
        ("--space", "--functor", "--test", "--slopes", "--max", "--alpha", "--beta",
         "--m", "--n", "--json", "--alph", "--sl", "--version", "-h", "--bogus", "--")
    ),
    st.sampled_from(_SURDS + _SPACES + _FUNCTORS),
    _SMALL_INTS,
)
# The options of each command, each with the values it is meant to take;
# any other word may stand in for a value.
_COMMANDS = {
    ("tangent",): {
        "--space": st.sampled_from(_SPACES),
        "--functor": st.sampled_from(_FUNCTORS),
        "--test": st.sampled_from(_SPACES),
    },
    ("table",): {},
    ("table", "classical"): {},
    ("table", "torus"): {"--slopes": st.sampled_from(_SURDS)},
    ("table", "orbit"): {"--max": _SMALL_INTS},
    ("witness",): {},
    ("witness", "mobius"): _SLOPE_PAIR,
    ("witness", "diffeo"): _SLOPE_PAIR,
    ("witness", "embed"): {"--m": _SMALL_INTS, "--n": _SMALL_INTS},
    (): {},
    ("summon",): {},
}


def _one_in(draw, n: int) -> bool:
    return draw(st.integers(0, n - 1)) == n - 1


@st.composite
def _argv(draw):
    """A command path, most of its options, and now and then a stray word."""
    path = draw(st.sampled_from(list(_COMMANDS)))
    words = []
    for option, values in _COMMANDS[path].items():
        if not _one_in(draw, 10):
            words += [option, draw(_WORD if _one_in(draw, 5) else values)]
    if draw(st.booleans()):
        words.append("--json")
    if _one_in(draw, 4):
        words.insert(draw(st.integers(0, len(words))), draw(_WORD))
    return list(path) + words


@settings(max_examples=400, deadline=None)
@given(_argv())
def test_any_argv_gets_an_exit_code_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_NO_WITNESS, EXIT_INPUT, EXIT_UNDETERMINED)
    assert "Traceback" not in err.getvalue()


# ------------------------------------------------------------ shell basics


def test_version_flag(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == EXIT_OK
    assert out == f"difftan {__version__}\n"


def test_missing_subcommand_is_input_error(capsys):
    assert run(capsys, [])[0] == EXIT_INPUT


def test_unknown_subcommand_is_input_error(capsys):
    assert run(capsys, ["summon"])[0] == EXIT_INPUT


def test_unknown_functor_is_input_error(capsys):
    code, _, err = run(
        capsys, ["tangent", "--space", "R^1", "--functor", "sideways"]
    )
    assert code == EXIT_INPUT
    assert "invalid choice" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "orbit", "--max", "4", "--json"],
        ["table", "classical", "--json"],
        [
            "tangent",
            "--space",
            "torus:sqrt(2)",
            "--functor",
            "y-internal",
            "--test",
            "torus:1+sqrt(2)",
            "--json",
        ],
        ["witness", "diffeo", "--alpha", "sqrt(7)", "--beta", "2+sqrt(3)", "--json"],
    ],
)
def test_output_is_byte_identical_across_runs(capsys, argv):
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second
