"""Frontier DP against brute-force enumeration, and mixture envelopes."""

import random
from fractions import Fraction

import pytest

from dtlab.errors import GuardExceeded, Infeasible, InvalidValue
from dtlab.functions import (
    BooleanFunction,
    constant_measure,
    dictator,
    direct_product,
    parity,
    product_power,
    uniform,
)
from dtlab.instances import random_distribution, random_function, random_measure
from dtlab.synth import (
    ADVANTAGE,
    ERROR,
    enumerate_all_trees,
    frontier_to_json,
    mixture_optimum,
    opt_depth,
    opt_objective,
    opt_objective_witness,
    pareto_frontier,
)
from dtlab.trees import error, evaluate, expected_depth


def _pareto_reduce(pairs, bigger_is_better):
    best = []
    cur = None
    for d, v in sorted(set(pairs), key=lambda c: (c[0], -c[1] if bigger_is_better else c[1])):
        if cur is None or (v > cur if bigger_is_better else v < cur):
            best.append((d, v))
            cur = v
    return best


def test_error_frontier_matches_enumeration():
    rng = random.Random(123)
    trees = enumerate_all_trees(2, 1)
    for _ in range(12):
        f = random_function(rng, 2)
        mu = random_distribution(rng, 2)
        dp = [(p.depth, p.value) for p in pareto_frontier(f, mu).points]
        brute = _pareto_reduce(
            ((expected_depth(t, mu), error(t, f, mu)) for t in trees),
            bigger_is_better=False)
        assert dp == brute


def test_advantage_frontier_matches_enumeration():
    rng = random.Random(321)
    trees = enumerate_all_trees(2, 1)
    for _ in range(8):
        f = random_function(rng, 2)
        mu = random_distribution(rng, 2)
        h = random_measure(rng, 2)
        dp = [(p.depth, p.value)
              for p in pareto_frontier(f, mu, ADVANTAGE, h).points]

        def signed(t):
            return sum(mu.weight(x) * f.value(x) * h.value(x) * evaluate(t, x)[0]
                       for x in range(4))

        brute = _pareto_reduce(
            ((expected_depth(t, mu), signed(t)) for t in trees),
            bigger_is_better=True)
        assert dp == brute


def test_frontier_witnesses_reproduce_their_points():
    rng = random.Random(77)
    for _ in range(8):
        f = random_function(rng, 3)
        mu = random_distribution(rng, 3)
        front = pareto_frontier(f, mu)
        prev_d = prev_v = None
        for p in front.points:
            assert expected_depth(p.tree, mu) == p.depth
            assert error(p.tree, f, mu) == p.value
            if prev_d is not None:
                assert p.depth > prev_d and p.value < prev_v
            prev_d, prev_v = p.depth, p.value


def test_vector_frontier_counts_any_block_mistake():
    g = direct_product(dictator(1, 0), 2)
    mu = product_power(uniform(1), 2)
    front = pareto_frontier(g, mu)
    assert front.points[0].depth == 0
    assert front.points[0].value == Fraction(3, 4)
    assert front.points[-1].value == 0
    assert front.points[-1].depth == 2


def test_parity_frontier_and_opt_depth():
    front = pareto_frontier(parity(2), uniform(2))
    # the middle point is the lopsided tree: full path on one half-cube only
    assert [(p.depth, p.value) for p in front.points] == [
        (Fraction(0), Fraction(1, 2)),
        (Fraction(3, 2), Fraction(1, 4)),
        (Fraction(2), Fraction(0))]
    # mixing (0, 1/2) with (2, 0) beats the deterministic middle point
    assert opt_depth(front, Fraction(1, 4)) == 1
    assert opt_depth(front, Fraction(1, 2)) == 0
    assert opt_depth(front, Fraction(0)) == 2
    assert opt_depth(front, Fraction(-1)) is None


def test_mixture_optimum_interpolates_two_points():
    pairs = [(Fraction(1, 2), Fraction(0), "a"), (Fraction(0), Fraction(2), "b")]
    best, witness = mixture_optimum(pairs, Fraction(1, 4), minimize=True)
    assert best == 1
    weights = sorted(w for w, _ in witness)
    assert weights == [Fraction(1, 2), Fraction(1, 2)]


def test_opt_objective_witness_is_faithful():
    f = parity(2)
    mu = uniform(2)
    front = pareto_frontier(f, mu)
    val, witness = opt_objective_witness(front, Fraction(1))
    assert val == Fraction(1, 4)
    assert sum(w for w, _ in witness) == 1
    mixed = sum(w * error(t, f, mu) for w, t in witness)
    depth = sum(w * expected_depth(t, mu) for w, t in witness)
    assert mixed == val and depth <= 1
    assert opt_objective(front, Fraction(10)) == 0
    with pytest.raises(Infeasible):
        opt_objective_witness(front, Fraction(-1))


def test_advantage_envelope_concavity_in_budget():
    # the optimal advantage as a function of the budget is a concave
    # piecewise-linear envelope, so midpoints never beat the average
    f = parity(2)
    mu = uniform(2)
    h = constant_measure(2, Fraction(1, 2))
    front = pareto_frontier(f, mu, ADVANTAGE, h)
    vals = [opt_objective(front, Fraction(i, 2)) for i in range(5)]
    for i in range(1, 4):
        assert 2 * vals[i] >= vals[i - 1] + vals[i + 1]
        assert vals[i] >= vals[i - 1]


def test_enumeration_counts_and_validity():
    trees = enumerate_all_trees(1, 1)
    assert len(trees) == 6
    trees2 = enumerate_all_trees(2, 1)
    assert len(trees2) == 74
    assert len(set(trees2)) == 74


def test_enumeration_guard():
    with pytest.raises(GuardExceeded):
        enumerate_all_trees(4, 1)


def test_sense_validation():
    f = parity(2)
    mu = uniform(2)
    with pytest.raises(InvalidValue):
        pareto_frontier(f, mu, "weird")
    with pytest.raises(InvalidValue):
        pareto_frontier(f, mu, ADVANTAGE)  # missing measure
    with pytest.raises(InvalidValue):
        pareto_frontier(f, mu, ERROR, constant_measure(2, Fraction(1, 2)))


def test_frontier_serialization_shapes():
    front = pareto_frontier(parity(2), uniform(2))
    blob = frontier_to_json(front)
    assert blob["sense"] == ERROR
    assert len(blob["points"]) == 3
    assert blob["points"][0]["depth"] == "0/1"
