"""Tests of the benchmark itself: seeding, the oracle, and a smoke run.

    python3 -m pytest -q benchmarks/tests
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracle import Surd  # noqa: E402
from workloads import FAILED, OK, WORKLOADS  # noqa: E402


def _stream(name, seed, cycles=2):
    workload = WORKLOADS[name](seed)
    labels = [q.label for _ in range(cycles) for q in workload.cycle()]
    return labels + [q.label for q in workload.probes()]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert _stream(name, 7) == _stream(name, 7)
    assert _stream(name, 7) != _stream(name, 8)


def test_orbit_lift_lifts_follow_the_seed():
    def lifts(seed):
        return [q.label for q in WORKLOADS["orbit-lift"](seed).cycle()
                if q.cls in ("chain-random", "chain-parsed", "invalid-lift")]

    assert lifts(3) == lifts(3)
    assert lifts(3) != lifts(4)


def _pair():
    alpha = Surd(Fraction(3), Fraction(1), 7)
    matrix = oracle.unimodular(random.Random(1), 3, 3)
    (m00, m01), (m10, m11) = matrix
    beta = oracle.mobius_image(matrix, alpha)
    # alpha = M^-1 beta, written as (a + b*beta) / (c + d*beta).
    return alpha, beta, (-m01, m11, m00, -m10)


def _witness_text(w):
    return f"alpha: x\nbeta: y\nwitness: (a,b,c,d) = ({w[0]},{w[1]},{w[2]},{w[3]}), det = 1\n"


def test_oracle_accepts_the_constructed_witness_and_flags_a_corrupted_one():
    alpha, beta, w = _pair()
    query = workloads.pair_query("small", "diffeo", alpha, beta, as_json=False)
    assert query.check((0, _witness_text(w), ""), None) == OK
    corrupted = (w[0] + 1,) + w[1:]
    assert query.check((0, _witness_text(corrupted), ""), None) not in (OK, FAILED)
    assert query.check((1, "witness: none\n", ""), None) not in (OK, FAILED)
    assert query.check((2, "", "error: radicand exceeds"), None) == FAILED


def test_oracle_flags_a_wrong_dimension():
    query = workloads.tangent_query(("orbit", 3), "y-right", ("orbit", 2), ("orbit:3", "orbit:2"), False)
    assert query.check((0, "dimension: 1\n", ""), None) == OK
    assert query.check((0, "dimension: 0\n", ""), None) not in (OK, FAILED)
    undetermined = workloads.tangent_query(("torus", 2), "y-internal", ("orbit", 1),
                                           ("torus:sqrt(2)", "orbit:1"), True)
    assert undetermined.check((3, json.dumps({"dimension": "undetermined"}), ""), None) == OK


def test_oracle_flags_an_accepted_invalid_lift():
    lift = WORKLOADS["orbit-lift"](1)._invalid(3, 1, (1, 2), ())

    class InvalidLiftError(ValueError):
        pass

    assert lift.check(None, InvalidLiftError("x1*x2")) == OK
    assert lift.check("a germ", None) not in (OK, FAILED)
    assert lift.check(None, RecursionError()) == FAILED


def test_invalid_lifts_are_not_radial_and_radial_lifts_are():
    rng = random.Random(5)
    comps = workloads._radial_components(rng, 4, 2, (1, 3), (2,))
    assert oracle.is_radial_at_samples(comps, 4)
    comps[0] = oracle.poly_add(comps[0], {(1, 1, 0, 0): Fraction(1)})
    assert not oracle.is_radial_at_samples(comps, 4)


def test_discriminant_separates_sqrt_d_from_twice_sqrt_d():
    d = 1234567
    one, two = Surd(Fraction(0), Fraction(1), d), Surd(Fraction(0), Fraction(2), d)
    assert one.discriminant() == 4 * d
    assert two.discriminant() == 16 * d
    image = oracle.mobius_image(oracle.unimodular(random.Random(2), 3, 3), one)
    assert image.discriminant() == one.discriminant()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", "1", "--seconds", "0.01", "--trace", trace])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) >= ({"ops_per_s", "setup_s"} if trace == "0" else {"trace.overhead_ratio"})


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "cli-mix", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
