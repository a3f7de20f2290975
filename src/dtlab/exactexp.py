"""Certified arithmetic for values of the form sum_i a_i * exp(b_i).

Every bound that the verifiers compare is either an exact rational or a finite
rational combination of exponentials with rational exponents.  ExpSum keeps
such values symbolically and decides comparisons through guaranteed rational
enclosures of exp, refined until the sign of a difference is certain.  A
comparison is never decided while zero still lies inside the enclosure; if the
maximum precision is reached first, UndecidedComparison is raised.

A nonzero canonical combination (distinct rational exponents, nonzero rational
coefficients, not purely rational) is never equal to zero, so refinement
terminates for every comparison that is not an exact rational tie; rational
ties are decided exactly without any enclosure.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidValue, UndecidedComparison

DEFAULT_PRECISION_BITS = 128

# Escalation: comparisons retry at doubled precision until prec * 2**_MAX_DOUBLINGS.
_MAX_DOUBLINGS = 6

_ZERO = Fraction(0)
_ONE = Fraction(1)


def fraction_to_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def fraction_from_str(s: str | int) -> Fraction:
    """Exact rational from "p/q", an integer or decimal string, or an int."""
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise InvalidValue(f"expected a rational string like 'p/q', got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise InvalidValue(f"not a rational: {s!r}") from None


def _int(value, what: str) -> int:
    """A JSON integer; floats, bools and strings are refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidValue(f"{what} must be an integer, got {value!r}")
    return value


@lru_cache(maxsize=None)
def exp_bounds(x: Fraction, prec_bits: int = DEFAULT_PRECISION_BITS) -> tuple[Fraction, Fraction]:
    """Rational lo <= exp(x) <= hi with relative width at most 2**-prec_bits.

    Taylor series with an explicit geometric remainder bound; negative
    arguments go through exact interval inversion of exp(-x) so every endpoint
    stays a directed bound.
    """
    if prec_bits < 1:
        raise InvalidValue(f"prec_bits must be positive, got {prec_bits}")
    if x == 0:
        return _ONE, _ONE
    if x < 0:
        lo, hi = exp_bounds(-x, prec_bits + 1)
        return 1 / hi, 1 / lo

    tol = Fraction(1, 2 ** prec_bits)
    term = _ONE
    total = _ONE
    i = 0
    while True:
        i += 1
        term *= x / i
        total += term
        # Remainder after term i is < term * (x/(i+1)) / (1 - x/(i+2)) once the
        # ratio x/(i+2) drops below 1.
        if i + 2 > x:
            ratio = x / (i + 2)
            tail = term * (x / (i + 1)) / (1 - ratio)
            if tail <= total * tol:
                return total, total + tail


def _canon(terms) -> tuple[tuple[Fraction, Fraction], ...]:
    acc: dict[Fraction, Fraction] = {}
    for coeff, expo in terms:
        coeff = Fraction(coeff)
        expo = Fraction(expo)
        acc[expo] = acc.get(expo, _ZERO) + coeff
    return tuple(sorted((a, b) for b, a in acc.items() if a != 0))


@dataclass(frozen=True)
class ExpSum:
    """Exact value sum_i a_i * exp(b_i); closed under +, -, and rational scaling."""

    terms: tuple[tuple[Fraction, Fraction], ...]

    @staticmethod
    def of(value) -> "ExpSum":
        if isinstance(value, ExpSum):
            return value
        return ExpSum(_canon([(Fraction(value), _ZERO)]))

    @staticmethod
    def exp(exponent, coeff=1) -> "ExpSum":
        """coeff * e**exponent."""
        return ExpSum(_canon([(Fraction(coeff), Fraction(exponent))]))

    @property
    def is_rational(self) -> bool:
        return all(b == 0 for _, b in self.terms)

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise InvalidValue(f"not an exact rational: {self}")
        return self.terms[0][0] if self.terms else _ZERO

    def __add__(self, other) -> "ExpSum":
        other = ExpSum.of(other)
        return ExpSum(_canon(self.terms + other.terms))

    __radd__ = __add__

    def __neg__(self) -> "ExpSum":
        return ExpSum(tuple((-a, b) for a, b in self.terms))

    def __sub__(self, other) -> "ExpSum":
        return self + (-ExpSum.of(other))

    def __rsub__(self, other) -> "ExpSum":
        return ExpSum.of(other) + (-self)

    def scale(self, factor) -> "ExpSum":
        factor = Fraction(factor)
        if factor == 0:
            return ExpSum(())
        return ExpSum(tuple((a * factor, b) for a, b in self.terms))

    def enclosure(self, prec_bits: int = DEFAULT_PRECISION_BITS) -> tuple[Fraction, Fraction]:
        """Guaranteed rational interval containing the exact value."""
        # Extra bits absorb the summation of several term intervals.
        pad = prec_bits + 8 + max(1, len(self.terms)).bit_length()
        lo = hi = _ZERO
        for a, b in self.terms:
            if b == 0:
                lo += a
                hi += a
                continue
            elo, ehi = exp_bounds(b, pad)
            if a >= 0:
                lo += a * elo
                hi += a * ehi
            else:
                lo += a * ehi
                hi += a * elo
        return lo, hi

    def sign(self, prec_bits: int = DEFAULT_PRECISION_BITS) -> int:
        """Certified sign in {-1, 0, +1}; 0 only for exact rational zero."""
        if self.is_rational:
            v = self.as_rational()
            return (v > 0) - (v < 0)
        prec = prec_bits
        for _ in range(_MAX_DOUBLINGS + 1):
            lo, hi = self.enclosure(prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2
        raise UndecidedComparison(
            f"sign of {self} undecided at {prec // 2} bits (started at {prec_bits})"
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for a, b in self.terms:
            if b == 0:
                parts.append(fraction_to_str(a))
            else:
                parts.append(f"{fraction_to_str(a)}*exp({fraction_to_str(b)})")
        return " + ".join(parts)


def _decimal_directed(q: Fraction, rounding) -> str:
    with localcontext() as ctx:
        ctx.prec = 30
        ctx.rounding = rounding
        return str(Decimal(q.numerator) / Decimal(q.denominator))


def decimal_interval(value: ExpSum, prec_bits: int = DEFAULT_PRECISION_BITS) -> tuple[str, str]:
    """30-digit decimal strings [lo, hi] with outward rounding, still a true
    enclosure."""
    lo, hi = value.enclosure(prec_bits)
    return (_decimal_directed(lo, ROUND_FLOOR), _decimal_directed(hi, ROUND_CEILING))


def value_json(value: ExpSum, prec_bits: int = DEFAULT_PRECISION_BITS):
    """Serialize: exact rationals as 'p/q', anything else as a [lo, hi] pair."""
    if value.is_rational:
        return fraction_to_str(value.as_rational())
    return list(decimal_interval(value, prec_bits))
