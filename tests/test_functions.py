"""Point encodings, named functions, distributions, and their serialization."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtlab import functions
from dtlab.errors import DimensionMismatch, GuardExceeded, InvalidValue
from dtlab.functions import (
    BooleanFunction,
    Distribution,
    Measure,
    VectorFunction,
    constant_function,
    constant_measure,
    density,
    dictator,
    direct_product,
    distribution_from_json,
    distribution_to_json,
    function_from_json,
    function_to_json,
    measure_from_json,
    measure_to_json,
    no_error_reduction_function,
    output_rows,
    parity,
    point_value,
    product_power,
    uniform,
    xor_power,
    _scale,
)
from dtlab.instances import random_distribution


def test_point_encoding_bit_set_means_plus_one():
    assert point_value(0b101, 0) == 1
    assert point_value(0b101, 1) == -1
    assert point_value(0b101, 2) == 1


def test_parity_is_the_product_of_inputs():
    f = parity(3)
    for x in range(8):
        prod = point_value(x, 0) * point_value(x, 1) * point_value(x, 2)
        assert f.table[x] == prod


def test_dictator_reads_one_coordinate():
    f = dictator(3, 1)
    assert all(f.table[x] == point_value(x, 1) for x in range(8))


def test_no_error_reduction_structure():
    f = no_error_reduction_function(4)
    rest = parity(3)
    for x in range(16):
        if x & 1:
            assert f.table[x] == 1
        else:
            assert f.table[x] == rest.table[x >> 1]
    # majority value +1 has mass exactly 3/4 under uniform
    plus = sum(1 for x in range(16) if f.table[x] == 1)
    assert Fraction(plus, 16) == Fraction(3, 4)


def test_function_table_must_be_signs():
    with pytest.raises(InvalidValue):
        BooleanFunction(1, (1, 0))
    with pytest.raises(DimensionMismatch):
        BooleanFunction(2, (1, 1, 1))


def test_distribution_must_sum_to_one():
    with pytest.raises(InvalidValue):
        Distribution(1, (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(InvalidValue):
        Distribution(1, (Fraction(3, 2), Fraction(-1, 2)))


def test_measure_values_must_lie_in_unit_interval():
    with pytest.raises(InvalidValue):
        Measure(1, (Fraction(1, 2), Fraction(3, 2)))


def test_xor_power_multiplies_blocks():
    f = parity(2)
    g = xor_power(f, 2)
    assert g.n == 4
    for x in range(16):
        assert g.table[x] == f.table[x & 3] * f.table[x >> 2]


def test_direct_product_splits_blocks():
    f = dictator(1, 0)
    g = direct_product(f, 3)
    assert (g.n, g.k) == (1, 3)
    assert g.table[0b101] == (1, -1, 1)


def test_xor_power_agrees_with_product_of_direct_product():
    f = parity(2)
    g, xp = direct_product(f, 2), xor_power(f, 2)
    for x in range(16):
        prod = 1
        for v in g.table[x]:
            prod *= v
        assert prod == xp.table[x]


@given(st.integers(1, 3), st.integers(1, 3))
@settings(deadline=None, max_examples=20)
def test_product_power_weights_factor(n, k):
    base = uniform(n)
    mu = product_power(base, k)
    assert mu.n == n * k
    mask = (1 << n) - 1
    for x in range(1 << (n * k)):
        w = Fraction(1)
        for i in range(k):
            w *= base.weights[(x >> (i * n)) & mask]
        assert mu.weights[x] == w
    assert sum(mu.weights) == 1


def test_product_power_is_the_pointwise_block_product():
    rng = random.Random(77)
    for n in (1, 2, 3):
        mu = random_distribution(rng, n)  # zero weights allowed
        mask = (1 << n) - 1
        for k in range(1, 5):
            got = product_power(mu, k)
            for x in range(1 << (n * k)):
                want = Fraction(1)
                for i in range(k):
                    want *= mu.weights[(x >> (i * n)) & mask]
                assert got.weights[x] == want, (n, k, x)


def test_density_is_expected_measure():
    mu = Distribution(1, (Fraction(1, 4), Fraction(3, 4)))
    h = Measure(1, (Fraction(1), Fraction(1, 3)))
    assert density(h, mu) == Fraction(1, 4) + Fraction(3, 4) * Fraction(1, 3)
    with pytest.raises(DimensionMismatch):
        density(constant_measure(2, Fraction(1, 2)), mu)


def test_constant_constructors():
    assert constant_function(2, -1).table == (-1,) * 4
    with pytest.raises(InvalidValue):
        constant_function(2, 0)
    assert density(constant_measure(3, Fraction(2, 5)), uniform(3)) == Fraction(2, 5)


def test_var_count_guard():
    with pytest.raises(GuardExceeded):
        uniform(40)
    with pytest.raises(GuardExceeded):
        product_power(uniform(3), 9)


@given(st.integers(1, 4), st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=25)
def test_function_json_round_trip(n, rng):
    table = tuple(rng.choice((1, -1)) for _ in range(1 << n))
    f = BooleanFunction(n, table)
    assert function_from_json(function_to_json(f)) == f


def test_distribution_and_measure_json_round_trip():
    mu = Distribution(2, (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(0)))
    assert distribution_from_json(distribution_to_json(mu)) == mu
    h = Measure(2, (Fraction(0), Fraction(1), Fraction(1, 7), Fraction(2, 7)))
    assert measure_from_json(measure_to_json(h)) == h


def test_int_built_laws_equal_the_fraction_built_ones(monkeypatch):
    rng = random.Random(2202)
    for _ in range(300):
        n = rng.randint(0, 3)
        nums = [rng.choice((0, rng.randint(1, 50))) for _ in range(1 << n)]
        nums[rng.randrange(1 << n)] += 1
        g = rng.choice((1, 2, 6, 35))  # a scale with common factors, reduced once
        law = Distribution._of_ints(n, sum(nums) * g, [m * g for m in nums])
        want = Distribution(n, tuple(Fraction(m, sum(nums)) for m in nums))
        assert (law.n, law.weights) == (want.n, want.weights)
        assert all(type(w) is Fraction for w in law.weights)
        assert law == want and hash(law) == hash(want)
        assert law.scaled == want.scaled == _scale(want.weights)
    # the int path keeps its scaled form instead of rescaling its weights
    monkeypatch.setattr(functions, "_scale", None)
    assert product_power(want, 3).scaled[0] == want.scaled[0] ** 3


@pytest.mark.parametrize("n, nums, scale, error", [
    (1, (2, -1), 1, InvalidValue),
    (2, (0, 0, 0, 0), 1, InvalidValue),
    (1, (1, 1), 3, InvalidValue),
    (1, (1, 1, 1), 3, DimensionMismatch),
    (2, (1, 2), 3, DimensionMismatch),
    (25, (1,), 1, GuardExceeded),
])
def test_int_built_laws_refuse_what_the_fraction_path_refuses(n, nums, scale, error):
    with pytest.raises(error) as got:
        Distribution._of_ints(n, scale, nums)
    with pytest.raises(error) as want:
        Distribution(n, tuple(Fraction(m, scale) for m in nums))
    assert str(got.value) == str(want.value)


def _former_function_check(n, table):
    """BooleanFunction's checks as the generic record __init__ ran them."""
    functions._check_var_count(n, "BooleanFunction")
    if len(table) != 1 << n:
        raise DimensionMismatch(f"table length {len(table)} != 2**{n}")
    if any(v not in (-1, 1) for v in table):
        raise InvalidValue("function outputs must be +-1")


def _former_vector_check(n, k, table):
    """VectorFunction's checks as the generic record __init__ ran them."""
    if k < 1:
        raise InvalidValue(f"k must be >= 1, got {k}")
    functions._check_var_count(n * k, "VectorFunction")
    if len(table) != 1 << (n * k):
        raise DimensionMismatch(f"table length {len(table)} != 2**{n * k}")
    for row in table:
        if len(row) != k or any(v not in (-1, 1) for v in row):
            raise InvalidValue("vector outputs must be +-1 tuples of width k")


def _former_law_check(n, weights):
    """Distribution's checks as the generic record __init__ ran them, on Fractions."""
    functions._check_var_count(n, "Distribution")
    if len(weights) != 1 << n:
        raise DimensionMismatch(f"weight count {len(weights)} != 2**{n}")
    if any(w < 0 for w in weights):
        raise InvalidValue("distribution weights must be nonnegative")
    if sum(weights) != 1:
        raise InvalidValue("distribution weights must sum to exactly 1")


def test_function_and_law_constructors_refuse_as_the_former_checks():
    """Seeded argument lists with one or several faults at once: each
    constructor raises the first fault in the former order, with its message."""
    rng = random.Random(3001)
    signs, values = (1, -1), (1, -1, 1, -1, 0, 2)
    weights = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(-1, 4), Fraction(1))
    seen = set()
    for _ in range(1500):
        n = rng.choice((-1, 0, 1, 2, 3, 25))
        size = (1 << n if 0 <= n <= 3 else 2) + rng.choice((0, 0, 0, -1, 1))
        table = tuple(rng.choice(signs if rng.random() < 0.7 else values)
                      for _ in range(max(size, 0)))
        law = tuple(rng.choice(weights) for _ in range(max(size, 0)))
        k = rng.choice((-1, 0, 1, 2, 3, 13))
        width = max(k, 0) + rng.choice((0, 0, 0, 0, -1, 1))
        rows = tuple(tuple(rng.choice(signs if rng.random() < 0.9 else values)
                           for _ in range(max(width, 0)))
                     for _ in range(1 << n * k if 0 <= n * k <= 3 else 2))
        for build, check, args in ((BooleanFunction, _former_function_check, (n, table)),
                                   (VectorFunction, _former_vector_check, (n, k, rows)),
                                   (Distribution, _former_law_check, (n, law))):
            want = _outcome(check, *args)
            assert _outcome(build, *args) == want, (build, args)
            seen.add((build.__name__, want and re.sub(r"-?\d+", "#", want[1])))
    # every refusal of each type (two guard messages among them) and a success
    assert len(seen) == 5 + 6 + 6, sorted(seen, key=str)


def _fraction_measure_check(n, values):
    """Measure's former validation, comparing each Fraction with 0 and 1."""
    functions._check_var_count(n, "Measure")
    if len(values) != 1 << n:
        raise DimensionMismatch(f"value count {len(values)} != 2**{n}")
    if any(v < 0 or v > 1 for v in values):
        raise InvalidValue("measure values must lie in [0,1]")


def _outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


def test_measure_checks_on_ints_as_on_fractions():
    rng = random.Random(2402)
    pool = [Fraction(0), Fraction(1), 0, 1, True, Fraction(1, 3), Fraction(5, 12),
            Fraction(-1, 3), Fraction(-1, 10 ** 12), -1, Fraction(4, 3), 2,
            Fraction(10 ** 12 + 1, 10 ** 12), Fraction(10 ** 12 - 1, 10 ** 12)]
    seen = {"ok": 0, "negative": 0, "above one": 0, "length": 0}
    for _ in range(600):
        n = rng.randrange(0, 4)
        length = (1 << n) + rng.choice((0, 0, 0, -1, 1)) if n else 1 + rng.choice((0, 1))
        values = tuple(rng.choice(pool) if rng.random() < 0.3 else rng.choice(pool[:6])
                       for _ in range(length))
        want = _outcome(_fraction_measure_check, n, values)
        assert _outcome(Measure, n, values) == want
        if want is None:
            seen["ok"] += 1
            assert Measure(n, values).scaled == _scale(values)
        elif want[0] is DimensionMismatch:
            seen["length"] += 1
        else:
            seen["negative" if min(values) < 0 else "above one"] += 1
    assert min(seen.values()) >= 50, seen
    for n in (-1, 25):
        assert _outcome(Measure, n, (0,)) == _outcome(_fraction_measure_check, n, (0,))
    # the scaled form needs rationals: a float has no denominator
    with pytest.raises(AttributeError):
        Measure(1, (0.5, 0.25))


@pytest.mark.parametrize("call, message", [
    (lambda: parity(0), "parity needs n >= 1, got 0"),
    (lambda: dictator(2, 2), "dictator index 2 out of range for n=2"),
    (lambda: no_error_reduction_function(0), "need n >= 1, got 0"),
    (lambda: direct_product(parity(2), 0), "k must be >= 1, got 0"),
    (lambda: output_rows("f"), "not a function: 'f'"),
    (lambda: product_power(uniform(2), 0), "k must be >= 1, got 0"),
], ids=["parity-n0", "dictator-index", "no-error-reduction-n0", "direct-product-k0",
        "output-rows-not-a-function", "product-power-k0"])
def test_constructor_refusals_name_their_fault(call, message):
    with pytest.raises(InvalidValue) as got:
        call()
    assert str(got.value) == message
