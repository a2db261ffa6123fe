"""Tests for tangent dispatch, axiom checks, and the separation search."""

import pytest

from difftan import (
    COMPUTED,
    REGISTERED,
    UNDETERMINED,
    AxiomCheckReport,
    EuclideanSpace,
    FunctorKind,
    HypothesisNotMetError,
    IrrationalTorus,
    MobiusWitness,
    OrbitSpace,
    catalog_spaces,
    distinguish,
    functor_axiom_check,
    parse_quadratic,
    parse_space,
    tangent,
)
from difftan.functor_core import _RULE_ROWS, _RULES

R = EuclideanSpace
T_SQRT2 = IrrationalTorus(parse_quadratic("sqrt(2)"))
T_SILVER = IrrationalTorus(parse_quadratic("1+sqrt(2)"))
T_SQRT3 = IrrationalTorus(parse_quadratic("sqrt(3)"))

INTERNAL = FunctorKind.internal()
VINCENT = FunctorKind.vincent()
RIGHT = FunctorKind.right()


def y_int(test):
    return FunctorKind.y_internal(test)


def y_rt(test):
    return FunctorKind.y_right(test)


# ----------------------------------------------------------- space parsing


@pytest.mark.parametrize(
    "text, expected",
    [
        ("R^0", R(0)),
        ("R^3", R(3)),
        ("orbit:2", OrbitSpace(2)),
        ("torus:sqrt(2)", T_SQRT2),
        ("R^\u0663", R(3)),  # an Arabic-Indic three, which int() reads
        # Leading zeros past Python's 4300-digit int conversion limit.
        pytest.param("R^" + "0" * 5000 + "3", R(3), id="R^0*5000+3"),
        pytest.param("R^" + "\u0660" * 5000 + "3", R(3), id="R^arabic-0*5000+3"),
    ],
)
def test_parse_space(text, expected):
    assert parse_space(text) == expected


@pytest.mark.parametrize(
    "text, message",
    [
        ("R^-1", "dimension"),
        ("orbit:0", "orbit-space index"),
        ("torus:(3)/2", "torus slope must be irrational"),
        ("plane", "unrecognized space"),
        ("R^\u00b2", "bad Euclidean dimension"),
        ("orbit:\u00b2", "bad orbit-space index"),
        pytest.param("R^" + "1" * 5000, "exceeds 1000", id="R^1*5000"),
        pytest.param("orbit:" + "1" * 5000, "exceeds 64", id="orbit:1*5000"),
    ],
)
def test_parse_space_errors(text, message):
    with pytest.raises(ValueError, match=message):
        parse_space(text)


def test_labels():
    assert R(2).label == "R^2"
    assert OrbitSpace(3).label == "orbit:3"
    assert T_SILVER.label == "torus:1+sqrt(2)"
    assert y_int(OrbitSpace(2)).label == "y-internal(orbit:2)"
    assert y_rt(T_SQRT2).label == "y-right(torus:sqrt(2))"
    assert INTERNAL.label == "internal"


# --------------------------------------------------------- classical cells


@pytest.mark.parametrize("k", range(4))
def test_classical_on_euclidean(k):
    for functor in (INTERNAL, VINCENT, RIGHT):
        report = tangent(R(k), functor)
        assert report.dimension == k
        assert len(report.generators) == k
        assert report.status == REGISTERED
    assert tangent(R(2), INTERNAL).generators == ("∂/∂x1", "∂/∂x2")


def test_classical_on_torus():
    dims = {f.name: tangent(T_SQRT2, f).dimension for f in (INTERNAL, VINCENT, RIGHT)}
    assert dims == {"internal": 1, "vincent": 0, "right": 0}


def test_classical_on_orbit():
    dims = {f.name: tangent(OrbitSpace(3), f).dimension for f in (INTERNAL, VINCENT, RIGHT)}
    assert dims == {"internal": 0, "vincent": 0, "right": 1}


def test_vincent_never_exceeds_right_on_catalog():
    for space in catalog_spaces():
        v = tangent(space, VINCENT).dimension
        r = tangent(space, RIGHT).dimension
        assert v <= r


# -------------------------------------------------------- y-internal cells


def test_y_internal_euclidean_with_live_test():
    assert tangent(R(2), y_int(T_SQRT2)).dimension == 2
    assert tangent(R(3), y_int(R(1))).dimension == 3
    report = tangent(R(2), y_int(T_SQRT2))
    assert report.status == REGISTERED
    assert report.generators == ("∂/∂x1", "∂/∂x2")


def test_y_internal_euclidean_with_dead_test():
    point = tangent(R(2), y_int(R(0)))
    assert point.dimension == 0
    assert point.status == COMPUTED
    orbit_test = tangent(R(2), y_int(OrbitSpace(2)))
    assert orbit_test.dimension == 0
    assert orbit_test.status == COMPUTED


def test_y_internal_orbit_space_is_zero():
    for test in (R(1), T_SQRT2, OrbitSpace(1)):
        report = tangent(OrbitSpace(2), y_int(test))
        assert report.dimension == 0
        assert report.status == COMPUTED


def test_y_internal_torus_dichotomy():
    same = tangent(T_SILVER, y_int(T_SQRT2))
    assert same.dimension == 1
    assert same.witness == MobiusWitness(1, 1, 1, 0)
    other = tangent(T_SQRT2, y_int(T_SQRT3))
    assert other.dimension == 0
    assert other.witness is None


def test_y_internal_torus_against_euclidean():
    for k in range(3):
        report = tangent(T_SQRT2, y_int(R(k)))
        assert report.dimension == 0
        assert report.status == COMPUTED


def test_y_internal_torus_against_orbit_is_undetermined():
    report = tangent(T_SQRT2, y_int(OrbitSpace(2)))
    assert report.dimension is None
    assert not report.determined
    assert report.status == UNDETERMINED
    assert report.generators == ()


def test_undetermined_is_the_only_gap():
    tests = list(catalog_spaces())
    for space in catalog_spaces():
        for test in tests:
            for functor in (y_int(test), y_rt(test)):
                report = tangent(space, functor)
                gap = (
                    functor.name == "y-internal"
                    and isinstance(space, IrrationalTorus)
                    and isinstance(test, OrbitSpace)
                )
                assert report.determined == (not gap)
                if report.determined:
                    assert len(report.generators) == report.dimension


# -------------------------------------------------------------- rule table

# One instance per space family.
FAMILY_INSTANCES = {"R^0": R(0), "R^k": R(2), "torus": T_SQRT2, "orbit": OrbitSpace(2)}
RULE_KEYS = [
    (name, family, None)
    for name in ("internal", "vincent", "right")
    for family in FAMILY_INSTANCES
] + [
    (name, family, test)
    for name in ("y-internal", "y-right")
    for family in FAMILY_INSTANCES
    for test in FAMILY_INSTANCES
]


def test_every_key_matches_exactly_one_rule_row():
    for construction, space, test in RULE_KEYS:
        matches = [
            rule_id
            for rule_id, constructions, spaces, tests, _ in _RULE_ROWS
            if construction in constructions and space in spaces and test in tests
        ]
        assert len(matches) == 1, (construction, space, test, matches)
    assert sorted(_RULES, key=str) == sorted(RULE_KEYS, key=str)
    rule_ids = [row[0] for row in _RULE_ROWS]
    assert len(set(rule_ids)) == len(rule_ids)


def test_only_the_torus_orbit_row_is_undetermined():
    undetermined = [
        (construction, space, test)
        for construction, space, test in RULE_KEYS
        if tangent(
            FAMILY_INSTANCES[space],
            FunctorKind(construction, FAMILY_INSTANCES.get(test)),
        ).status
        == UNDETERMINED
    ]
    assert undetermined == [("y-internal", "torus", "orbit")]
    assert _RULES[undetermined[0]][0] == "y-internal-torus-orbit-gap"


# ----------------------------------------------------------- y-right cells


def test_y_right_torus_space_is_zero():
    for test in (R(2), T_SQRT2, OrbitSpace(3)):
        report = tangent(T_SQRT2, y_rt(test))
        assert report.dimension == 0
        assert report.status == COMPUTED


def test_y_right_dead_test_kills_everything():
    for space in (R(2), OrbitSpace(2)):
        assert tangent(space, y_rt(T_SQRT2)).dimension == 0
        assert tangent(space, y_rt(R(0))).dimension == 0


def test_y_right_euclidean_with_live_test():
    assert tangent(R(3), y_rt(R(2))).dimension == 3
    assert tangent(R(3), y_rt(OrbitSpace(2))).dimension == 3


def test_y_right_orbit_vs_orbit_follows_embedding_rule():
    for m in range(1, 5):
        for n in range(1, 5):
            report = tangent(OrbitSpace(n), y_rt(OrbitSpace(m)))
            assert report.dimension == int(m <= n)


def test_y_right_orbit_against_euclidean_test():
    report = tangent(OrbitSpace(2), y_rt(R(1)))
    assert report.dimension == 0
    assert report.status == COMPUTED


def test_all_five_coincide_on_euclidean():
    functors = (INTERNAL, VINCENT, RIGHT, y_int(T_SQRT2), y_rt(OrbitSpace(2)))
    for k in range(4):
        dims = {f.label: tangent(R(k), f).dimension for f in functors}
        assert set(dims.values()) == {k}


# ------------------------------------------------------------ axiom checks


@pytest.mark.parametrize(
    "functor",
    [
        INTERNAL,
        VINCENT,
        RIGHT,
        y_int(T_SQRT2),
        y_int(R(1)),
        y_rt(OrbitSpace(1)),
        y_rt(OrbitSpace(2)),
        y_rt(OrbitSpace(3)),
        y_rt(R(2)),
    ],
    ids=lambda f: f.label,
)
def test_axiom_checks_pass(functor):
    report = functor_axiom_check(functor)
    assert isinstance(report, AxiomCheckReport)
    assert report.passed
    assert [c.name for c in report.checks] == [
        "euclidean-dimensions",
        "identity-law",
        "composition-law",
    ]
    assert all(c.passed for c in report.checks)


def test_axiom_check_counts_composable_pairs():
    report = functor_axiom_check(INTERNAL)
    comp = report.checks[-1]
    assert comp.detail.startswith("3 composable")


@pytest.mark.parametrize(
    "functor, fragment",
    [
        (y_rt(T_SQRT2), "right tangent space of torus:sqrt(2)"),
        (y_rt(R(0)), "right tangent space of R^0"),
        (y_int(R(0)), "internal tangent space of R^0"),
        (y_int(OrbitSpace(2)), "internal tangent space of orbit:2"),
    ],
    ids=lambda v: v if isinstance(v, str) else v.label,
)
def test_axiom_checks_refuse_degenerate_tests(functor, fragment):
    with pytest.raises(HypothesisNotMetError, match="hypothesis not met") as info:
        functor_axiom_check(functor)
    assert fragment in str(info.value)


# ------------------------------------------------------- separation search


def test_catalog_shape():
    spaces = catalog_spaces()
    assert len(spaces) == 15
    assert spaces[0] == R(0)
    assert isinstance(spaces[4], IrrationalTorus)
    assert spaces[-1] == OrbitSpace(4)
    assert catalog_spaces(slopes=[parse_quadratic("sqrt(2)")]) == (
        R(0),
        R(1),
        R(2),
        R(3),
        T_SQRT2,
        OrbitSpace(1),
        OrbitSpace(2),
        OrbitSpace(3),
        OrbitSpace(4),
    )


def test_distinguish_internal_from_right_at_torus():
    assert distinguish(INTERNAL, RIGHT) == T_SQRT2


def test_distinguish_right_from_vincent_at_orbit():
    assert distinguish(RIGHT, VINCENT) == OrbitSpace(1)


def test_distinguish_same_functor_is_none():
    assert distinguish(INTERNAL, INTERNAL) is None
    assert distinguish(y_rt(OrbitSpace(2)), y_rt(OrbitSpace(2))) is None


def test_distinguish_y_internal_tests_by_field():
    assert distinguish(y_int(T_SQRT2), y_int(T_SQRT3)) == T_SQRT2


def test_distinguish_y_right_orbit_tests():
    assert distinguish(y_rt(OrbitSpace(1)), y_rt(OrbitSpace(2))) == OrbitSpace(1)


def test_undetermined_cells_never_separate():
    # Both functors are undetermined on every torus; all determined cells
    # agree, so the search must come back empty rather than guessing.
    assert distinguish(y_int(OrbitSpace(1)), y_int(OrbitSpace(2))) is None


def test_distinguish_respects_slope_argument():
    golden = parse_quadratic("(1+sqrt(5))/2")
    found = distinguish(y_int(T_SQRT2), y_int(T_SQRT3), slopes=[golden])
    assert found is None  # golden meets neither test field
