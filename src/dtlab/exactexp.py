"""Certified arithmetic for values of the form sum_i a_i * exp(b_i).

Every bound that the verifiers compare is either an exact rational or a finite
rational combination of exponentials with rational exponents.  ExpSum keeps
such values symbolically and decides comparisons through guaranteed rational
enclosures of exp, refined until the sign of a difference is certain.  A
comparison is never decided while zero still lies inside the enclosure; if the
maximum precision is reached first, UndecidedComparison is raised.

Every ExpSum is canonical: its terms have distinct rational exponents in
decreasing order and nonzero rational coefficients.  The public constructor
ExpSum(terms) enforces this through _canon, so a hand-built value equals,
hashes and signs as its canonical form; the kernel's own operations (of, exp,
+, -, total) build through ExpSum._make, which skips the check because
their results are canonical already: a sum merges two sorted term lists in
one pass.  A nonzero canonical combination that is not purely rational is
never equal to zero, so refinement terminates for every comparison that is
not an exact rational tie; rational ties are decided exactly without any
enclosure.

The enclosures of exp come from one fixed-point integer kernel, exp_bounds:
halve the argument below 1/2 (and about sqrt(precision)/2 times more), sum
its Taylor series on integers scaled by 2**w, then square back (Brent, J. ACM
1976).  Directed rounding keeps each side a bound: the lower side floors every
step, the upper side ceils every step and adds a bound on the series tail.
The working width w is the precision asked for plus one bit per squaring plus
guard bits for the series' rounding; exp_bounds's docstring gives the budget.

ExpSum.enclosure sums on one such scale 2**w (Brent and Zimmermann, Modern
Computer Arithmetic, 2010): each e**b from exp_bounds at prec + GUARD_BITS
whatever the term count, each a*e**b floored onto the scale for the low side
and ceiled for the high.  With 2**top a bound on the largest term (within
about a factor 16), w = prec + 2*GUARD_BITS - top, so each side lies within
#terms * 2**-w, under #terms * 2**-(prec+28) of the largest term, of the
exact sum of the term intervals: below the error of the terms themselves.
"""

from __future__ import annotations

from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt

from .errors import InvalidValue, UndecidedComparison
from .records import Record

DEFAULT_PRECISION_BITS = 128

# Escalation: ExpSum.sign starts at DEFAULT_PRECISION_BITS and doubles up to this.
MAX_PRECISION_BITS = DEFAULT_PRECISION_BITS << 6
GUARD_BITS = 16  # ExpSum.enclosure's extra bits, twice over; see above
MAX_DIGITS = 4300  # int()'s default limit on the digits of a decimal string

_ZERO = Fraction(0)
_ONE = Fraction(1)


def fraction_to_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def fraction_from_str(s: str | int) -> Fraction:
    """Exact rational from "p/q", an integer or decimal string, or an int.
    A decimal string that could need over MAX_DIGITS digits, the limit int()
    puts on p and q, is refused before any power of 10 is computed."""
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise InvalidValue(f"expected a rational string like 'p/q', got {s!r}")
    mantissa, _, exp = s.lower().partition("e")
    whole, _, point = mantissa.partition(".")
    try:
        e = int(exp or 0)
        if "/" in s or max(len(whole) + max(len(point), e), 1 + len(point) - e) <= MAX_DIGITS:
            return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise InvalidValue(f"not a rational: {s[:40]!r}") from None
    raise InvalidValue(f"not a rational of at most {MAX_DIGITS} digits: {s[:40]!r}")


def _int(value, what: str) -> int:
    """A JSON integer; floats, bools and strings are refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidValue(f"{what} must be an integer, got {value!r}")
    return value


@lru_cache(maxsize=None)
def exp_bounds(x: Fraction, prec_bits: int = DEFAULT_PRECISION_BITS) -> tuple[Fraction, Fraction]:
    """Dyadic lo <= exp(x) <= hi with hi - lo <= lo * 2**-prec_bits.

    For x > 0, y = x / 2**r < 2**-(1 + m) and exp(x) = exp(y)**(2**r); the
    m = isqrt(prec_bits) // 2 halvings past 1/2 trade series terms for
    squarings.  Both bounds live on integers scaled by S = 2**w.  The series
    for S*exp(y) is summed twice: from floor(y*S) flooring every step, which
    only loses mass, and from ceil(y*S) ceiling every step, plus 1 for the
    tail (the last upper term is 1 and the term ratio y/(k+1) is at most 1/4,
    so the tail is under 1/3).  Then each side is squared r times,
    L -> floor(L*L/S) and H -> ceil(H*H/S).  Negative x inverts the bounds
    for -x, computed one bit tighter.

    Error budget, in units of 1/S.  Term k of either series is within 4 of
    S*y**k/k!: the step rounds by under 1, the rounded y adds at most
    y**(k-1)/(k-1)! <= 1, and the error carried from term k-1 is at least
    halved.  The series stops by term N <= w/2 + 2, so the width after it is
    under 8(N+1) with lo >= S, a relative width eps0 < 8(N+1)/S.  A squaring
    maps ln(hi/lo) to at most twice itself plus 3/S, so after r squarings
    ln(hi/lo) < 2**r * (8N + 11)/S.  With w = prec_bits + r + 8 +
    bitlen(prec_bits + r) that is under 2**-(prec_bits+1), hence
    hi/lo - 1 <= 2**-prec_bits.  The final check retries with a wider w
    should the budget ever fall short.
    """
    if prec_bits < 1:
        raise InvalidValue(f"prec_bits must be positive, got {prec_bits}")
    if x == 0:
        return _ONE, _ONE
    if x < 0:
        lo, hi = exp_bounds(-x, prec_bits + 1)
        return 1 / hi, 1 / lo

    p, q = x.numerator, x.denominator
    # x < 2**(bitlen(p) - bitlen(q) + 1), so y < 2**-(1 + m)
    r = max(0, p.bit_length() - q.bit_length() + 2 + isqrt(prec_bits) // 2)
    w = prec_bits + r + 8 + (prec_bits + r).bit_length()
    while True:
        scale = 1 << w
        y_lo, rem = divmod(p << w, q << r)
        y_hi = y_lo + (rem > 0)
        lo = hi = t_lo = t_hi = scale
        k = 0
        while t_hi > 1:
            k += 1
            t_lo = (t_lo * y_lo >> w) // k
            t_hi = -((-t_hi * y_hi >> w) // k)
            lo += t_lo
            hi += t_hi
        hi += 1
        for _ in range(r):
            lo = lo * lo >> w
            hi = -(-hi * hi >> w)
        if (hi - lo) << prec_bits <= lo:
            return Fraction(lo, scale), Fraction(hi, scale)
        w += 32


def _canon(terms) -> tuple[tuple[Fraction, Fraction], ...]:
    """Like terms merged, zeros dropped, ordered by decreasing exponent (an
    order that negation and scaling keep)."""
    acc: dict[Fraction, Fraction] = {}
    for coeff, expo in terms:
        if type(coeff) is not Fraction:
            coeff = Fraction(coeff)
        if type(expo) is not Fraction:
            expo = Fraction(expo)
        acc[expo] = acc.get(expo, _ZERO) + coeff
    return tuple((acc[b], b) for b in sorted(acc, reverse=True) if acc[b] != 0)


def _frac(value) -> Fraction:
    return value if type(value) is Fraction else Fraction(value)


class ExpSum(Record):
    """Exact value sum_i a_i * exp(b_i); closed under + and -.  Canonical
    always; see the module docstring."""

    terms: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, terms) -> None:
        self.__dict__["terms"] = _canon(terms)

    @staticmethod
    def _make(terms: tuple[tuple[Fraction, Fraction], ...]) -> "ExpSum":
        """An ExpSum on terms that are canonical already, unchecked."""
        value = object.__new__(ExpSum)
        value.__dict__["terms"] = terms
        return value

    @staticmethod
    def of(value) -> "ExpSum":
        return value if isinstance(value, ExpSum) else ExpSum.exp(_ZERO, value)

    @staticmethod
    def total(values) -> "ExpSum":
        """Sum of ExpSums and rationals, canonicalized once."""
        return ExpSum._make(_canon(t for v in values for t in ExpSum.of(v).terms))

    @staticmethod
    def exp(exponent, coeff=1) -> "ExpSum":
        """coeff * e**exponent."""
        coeff = _frac(coeff)
        exponent = _frac(exponent)
        return ExpSum._make(((coeff, exponent),) if coeff else ())

    @property
    def is_rational(self) -> bool:
        return all(b == 0 for _, b in self.terms)

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise InvalidValue(f"not an exact rational: {self}")
        return self.terms[0][0] if self.terms else _ZERO

    def __add__(self, other) -> "ExpSum":
        """One merge of the two term lists, both sorted by decreasing exponent."""
        other = ExpSum.of(other)
        mine, theirs = self.terms, other.terms
        if not theirs:
            return self
        if not mine:
            return other
        out = []
        i = j = 0
        while i < len(mine) and j < len(theirs):
            (a, b), (c, d) = mine[i], theirs[j]
            if b > d:
                out.append(mine[i])
                i += 1
            elif d > b:
                out.append(theirs[j])
                j += 1
            else:
                coeff = a + c
                if coeff:
                    out.append((coeff, b))
                i += 1
                j += 1
        return ExpSum._make((*out, *mine[i:], *theirs[j:]))

    __radd__ = __add__

    def __neg__(self) -> "ExpSum":
        return ExpSum._make(tuple((-a, b) for a, b in self.terms))

    def __sub__(self, other) -> "ExpSum":
        return self + (-ExpSum.of(other))

    def __rsub__(self, other) -> "ExpSum":
        return ExpSum.of(other) + (-self)

    def enclosure(self, prec_bits: int = DEFAULT_PRECISION_BITS) -> tuple[Fraction, Fraction]:
        """Guaranteed rational interval containing the exact value, summed on
        one fixed-point int scale; the module docstring bounds its width."""
        pad = prec_bits + GUARD_BITS
        terms = [(a, *(exp_bounds(b, pad) if b else (_ONE, _ONE))) for a, b in self.terms]
        # |a| * ehi < 2**top for every term
        top = max((a.numerator.bit_length() - a.denominator.bit_length()
                   + ehi.numerator.bit_length() - ehi.denominator.bit_length() + 2
                   for a, _, ehi in terms), default=0)
        w = max(0, pad + GUARD_BITS - top)
        lo = hi = 0
        for a, elo, ehi in terms:
            if a < 0:
                elo, ehi = ehi, elo
            p, q = a.numerator << w, a.denominator
            lo += p * elo.numerator // (q * elo.denominator)
            hi -= -p * ehi.numerator // (q * ehi.denominator)
        scale = 1 << w
        return Fraction(lo, scale), Fraction(hi, scale)

    @cached_property
    def _default_enclosure(self) -> tuple[Fraction, Fraction]:
        """enclosure() at the default width, kept: sign() starts from it, and
        it is the one interval that decimal_interval prints."""
        return self.enclosure()

    def sign(self) -> int:
        """Certified sign in {-1, 0, +1}; 0 only for exact rational zero."""
        if self.is_rational:
            v = self.as_rational()
            return (v > 0) - (v < 0)
        lo, hi = self._default_enclosure
        prec = DEFAULT_PRECISION_BITS
        while lo <= 0 <= hi:
            if prec >= MAX_PRECISION_BITS:
                raise UndecidedComparison(
                    f"sign of a {len(self.terms)}-term sum undecided at {MAX_PRECISION_BITS} bits")
            prec *= 2
            lo, hi = self.enclosure(prec)
        return 1 if lo > 0 else -1

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


def decimal_interval(value: ExpSum) -> tuple[str, str]:
    """The kept enclosure at DEFAULT_PRECISION_BITS as 30-digit decimal
    strings [lo, hi], rounded outward: still a true enclosure."""
    lo, hi = value._default_enclosure
    return (_decimal_directed(lo, ROUND_FLOOR), _decimal_directed(hi, ROUND_CEILING))


def value_json(value: ExpSum):
    """Serialize: exact rationals as 'p/q', anything else as decimal_interval's
    [lo, hi] pair."""
    if value.is_rational:
        return fraction_to_str(value.as_rational())
    return list(decimal_interval(value))
