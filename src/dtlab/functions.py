"""Boolean functions, input distributions, and [0,1] measures on the hypercube.

Domain points live in {-1,+1}^n and are packed into integers: bit j of the
code is 1 exactly when x_j = +1.  Statements written over {0,1} translate by
0 -> +1 and 1 -> -1 (so a {0,1} bit b becomes (-1)**b), for inputs and outputs
alike; parity is then the plain product of the +-1 inputs.  All weights are
exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm, prod
from operator import mul

from .errors import DimensionMismatch, GuardExceeded, InvalidValue
from .exactexp import _int, fraction_from_str, fraction_to_str
from .records import Record

# Hard cap on variables for any op that materializes a 2**m table.
MAX_TABLE_VARS = 24

_ZERO = Fraction(0)


def _scale(values) -> tuple[int, tuple[int, ...]]:
    """(D, values * D) for D the least common denominator of the values."""
    scale = lcm(*(v.denominator for v in values))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


def point_value(point: int, j: int) -> int:
    """The +-1 value of variable j in a packed point."""
    return 1 if (point >> j) & 1 else -1


def _check_var_count(n: int, what: str) -> None:
    if n < 0:
        raise InvalidValue(f"{what}: variable count must be nonnegative, got {n}")
    if n > MAX_TABLE_VARS:
        raise GuardExceeded(f"{what}: {n} variables exceeds the table guard {MAX_TABLE_VARS}")


class BooleanFunction(Record):
    """Dense truth table over {-1,+1}^n, outputs in {-1,+1}."""

    n: int
    table: tuple[int, ...]

    def __init__(self, n: int, table: tuple[int, ...]):
        _check_var_count(n, "BooleanFunction")
        if len(table) != 1 << n:
            raise DimensionMismatch(f"table length {len(table)} != 2**{n}")
        if any(v not in (-1, 1) for v in table):
            raise InvalidValue("function outputs must be +-1")
        fields = self.__dict__
        fields["n"], fields["table"] = n, table


class VectorFunction(Record):
    """k-tuple of +-1 outputs over {-1,+1}^(n*k); block i owns variables [i*n, (i+1)*n)."""

    n: int
    k: int
    table: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, k: int, table: tuple[tuple[int, ...], ...]):
        if k < 1:
            raise InvalidValue(f"k must be >= 1, got {k}")
        _check_var_count(n * k, "VectorFunction")
        if len(table) != 1 << (n * k):
            raise DimensionMismatch(f"table length {len(table)} != 2**{n * k}")
        for row in table:
            if len(row) != k or any(v not in (-1, 1) for v in row):
                raise InvalidValue("vector outputs must be +-1 tuples of width k")
        fields = self.__dict__
        fields["n"], fields["k"], fields["table"] = n, k, table

    @staticmethod
    def _make(n: int, k: int, table: tuple[tuple[int, ...], ...]) -> "VectorFunction":
        """A VectorFunction on a table that is valid by construction, unchecked."""
        g = object.__new__(VectorFunction)
        g.__dict__.update(n=n, k=k, table=table)
        return g


class Distribution(Record):
    """Probability weights over packed points of {-1,+1}^n; sums to exactly 1."""

    n: int
    weights: tuple[Fraction, ...]

    def __init__(self, n: int, weights: tuple[Fraction, ...]):
        self.__dict__["weights"] = weights
        self._check(n, weights)

    @staticmethod
    def _of_ints(n: int, scale: int, nums) -> "Distribution":
        """The law nums/scale, checked as Distribution.__init__ checks; its
        scaled form is the ints reduced by their gcd, and its weights are
        built from that form on first read."""
        g = gcd(scale, *nums)
        law = object.__new__(Distribution)
        law.__dict__["scaled"] = scale // g, tuple(m // g for m in nums)
        law._check(n, nums)
        return law

    def _check(self, n: int, weights) -> None:
        _check_var_count(n, "Distribution")
        if len(weights) != 1 << n:
            raise DimensionMismatch(f"weight count {len(weights)} != 2**{n}")
        self.__dict__["n"] = n
        # on ints: over D, the signs are the numerators' and the sum is D
        scale, nums = self.scaled
        if any(w < 0 for w in nums):
            raise InvalidValue("distribution weights must be nonnegative")
        if sum(nums) != scale:
            raise InvalidValue("distribution weights must sum to exactly 1")

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...]]:
        """_scale(weights), computed by validation and read by int kernels."""
        return _scale(self.weights)

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        """An int-built law's weights, from its scaled form."""
        scale, nums = self.scaled
        return tuple(Fraction(m, scale) if m else _ZERO for m in nums)

    def support(self) -> list[int]:
        return [x for x, w in enumerate(self.weights) if w > 0]


class Measure(Record):
    """Pointwise values in [0,1] over {-1,+1}^n (a fractional subset)."""

    n: int
    values: tuple[Fraction, ...]

    def __init__(self, n: int, values: tuple[Fraction, ...]):
        _check_var_count(n, "Measure")
        if len(values) != 1 << n:
            raise DimensionMismatch(f"value count {len(values)} != 2**{n}")
        fields = self.__dict__
        fields["n"], fields["values"] = n, values
        # on ints: over E, a value lies in [0,1] iff its numerator lies in [0,E]
        scale, nums = self.scaled
        if any(v < 0 or v > scale for v in nums):
            raise InvalidValue("measure values must lie in [0,1]")

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...]]:
        """_scale(values): (E, values * E) for E the values' least common
        denominator, computed by validation and read by the int kernels."""
        return _scale(self.values)


# ---------------------------------------------------------------------------
# constructors


def _parity_sign(x: int, n: int) -> int:
    """Product of the +-1 values of the n low bits of x (a bit 0 is -1)."""
    return 1 if (n - bin(x).count("1")) % 2 == 0 else -1


def parity(n: int) -> BooleanFunction:
    """Product of all +-1 inputs."""
    if n < 1:
        raise InvalidValue(f"parity needs n >= 1, got {n}")
    _check_var_count(n, "parity")
    return BooleanFunction(n, tuple(_parity_sign(x, n) for x in range(1 << n)))


def dictator(n: int, j: int) -> BooleanFunction:
    if not 0 <= j < n:
        raise InvalidValue(f"dictator index {j} out of range for n={n}")
    _check_var_count(n, "dictator")
    return BooleanFunction(n, tuple(point_value(x, j) for x in range(1 << n)))


def no_error_reduction_function(n: int) -> BooleanFunction:
    """The boosting counterexample: +1 when x_0 = +1, else the parity of the rest.

    The majority output +1 carries mass 3/4 under the uniform distribution, so
    a constant guess already achieves error 1/4 at depth 0, yet pushing the
    error to 1/8 forces expected depth at least (n-1)/4.
    """
    if n < 1:
        raise InvalidValue(f"need n >= 1, got {n}")
    _check_var_count(n, "no_error_reduction_function")
    return BooleanFunction(n, tuple(1 if x & 1 else _parity_sign(x >> 1, n - 1)
                                    for x in range(1 << n)))


def constant_function(n: int, value: int) -> BooleanFunction:
    if value not in (-1, 1):
        raise InvalidValue("constant value must be +-1")
    _check_var_count(n, "constant_function")
    return BooleanFunction(n, tuple([value] * (1 << n)))


def direct_product(f: BooleanFunction, k: int) -> VectorFunction:
    """k independent copies; output i is f on block i."""
    if k < 1:
        raise InvalidValue(f"k must be >= 1, got {k}")
    _check_var_count(f.n * k, "direct_product")
    # product() varies its last place fastest, and block 0 is the low bits
    return VectorFunction._make(f.n, k, tuple(row[::-1] for row in product(f.table, repeat=k)))


def xor_power(f: BooleanFunction, k: int) -> BooleanFunction:
    """Product of f over k blocks (the +-1 form of the k-fold XOR)."""
    return BooleanFunction(f.n * k, tuple(map(prod, direct_product(f, k).table)))


def output_rows(target) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """(n, k, rows) of a scalar or vector target: k blocks of n variables and
    each point's output tuple.  A scalar function is the k=1 case."""
    if isinstance(target, BooleanFunction):
        return target.n, 1, tuple((v,) for v in target.table)
    if isinstance(target, VectorFunction):
        return target.n, target.k, target.table
    raise InvalidValue(f"not a function: {target!r}")


def uniform(n: int) -> Distribution:
    _check_var_count(n, "uniform")
    w = Fraction(1, 1 << n)
    return Distribution(n, tuple([w] * (1 << n)))


def product_power(mu: Distribution, k: int) -> Distribution:
    """k-fold product distribution over block-structured points.

    Built as an iterated Kronecker product on mu's scaled ints: each step
    puts a new block in the high bits, one multiplication per point.  With D
    mu's least denominator, no prime of D divides every int, so D**k is the
    least denominator of the product, and the law is built from its ints.
    """
    if k < 1:
        raise InvalidValue(f"k must be >= 1, got {k}")
    _check_var_count(mu.n * k, "product_power")
    scale, base = mu.scaled
    weights = base
    for _ in range(k - 1):
        weights = [b * a for b in base for a in weights]
    return Distribution._of_ints(mu.n * k, scale ** k, weights)


def density(h: Measure, mu: Distribution) -> Fraction:
    """E_mu[H], the mass of the fractional set."""
    if h.n != mu.n:
        raise DimensionMismatch(f"measure on {h.n} vars vs distribution on {mu.n}")
    (d, weights), (e, values) = mu.scaled, h.scaled
    return Fraction(sum(map(mul, weights, values)), d * e)


def constant_measure(n: int, value: Fraction) -> Measure:
    value = Fraction(value)
    return Measure(n, tuple([value] * (1 << n)))


# ---------------------------------------------------------------------------
# serialization

def _hex_width(n: int) -> int:
    return max(1, ((1 << n) + 3) // 4)


def function_to_json(f: BooleanFunction) -> dict:
    mask = sum(1 << x for x, v in enumerate(f.table) if v == 1)
    return {"n": f.n, "table_hex": format(mask, f"0{_hex_width(f.n)}x")}


def function_from_json(obj: dict) -> BooleanFunction:
    n = _int(obj["n"], "n")
    _check_var_count(n, "function_from_json")
    hexes = obj["table_hex"]
    if (not isinstance(hexes, str) or not hexes
            or any(c not in "0123456789abcdefABCDEF" for c in hexes)):
        raise InvalidValue(f"table_hex must be a string of hex digits, got {hexes!r}")
    mask = int(hexes, 16)
    if mask >> (1 << n):
        raise InvalidValue(f"table_hex has bits at or above 2**{n}")
    table = tuple(1 if (mask >> x) & 1 else -1 for x in range(1 << n))
    return BooleanFunction(n, table)


def weights_to_json(values) -> list[str]:
    return [fraction_to_str(v) for v in values]


def distribution_to_json(mu: Distribution) -> list[str]:
    return weights_to_json(mu.weights)


def _weights_from_json(items, cls):
    if not isinstance(items, list):
        raise InvalidValue(f"weights must be a JSON list, got {type(items).__name__}")
    values = tuple(fraction_from_str(s) for s in items)
    return cls(len(values).bit_length() - 1, values)


def distribution_from_json(items) -> Distribution:
    return _weights_from_json(items, Distribution)


def measure_to_json(h: Measure) -> list[str]:
    return weights_to_json(h.values)


def measure_from_json(items) -> Measure:
    return _weights_from_json(items, Measure)
