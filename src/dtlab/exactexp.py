"""Certified arithmetic for values of the form sum_i a_i * exp(b_i).

Every bound that the verifiers compare is either an exact rational or a finite
rational combination of exponentials with rational exponents.  ExpSum keeps
such values symbolically and decides comparisons through guaranteed rational
enclosures of exp, refined until the sign of a difference is certain.  A
comparison is never decided while zero still lies inside the enclosure; if the
maximum precision is reached first, UndecidedComparison is raised.

Every ExpSum is canonical: its terms are int quadruples (p, q, r, s), each
the term (p/q)*e**(r/s) with q, s > 0, p != 0 and both pairs gcd-reduced,
their exponents distinct and decreasing.  The public constructor
ExpSum(terms) takes (coeff, exponent) rationals, or such quadruples, and
canonicalizes them through _canon, so a hand-built value equals, hashes and
signs as its canonical form.  The kernel's own operations build through
ExpSum._make, which takes quadruples that are canonical already, unchecked,
and they run on ints with no Fraction built: of, exp, +, - and negation,
is_rational (and as_rational's test of it), sign (a rational's is p's),
enclosure, str and value_json.  A sum merges the two sorted term lists in
one pass: it orders exponents r/s and x/y by r*y against x*s, and adds the
coefficients of one exponent as p*v + u*q over q*v, reduced by one gcd.  A
nonzero canonical combination that is not purely rational is never equal to
zero, so refinement terminates for every comparison that is not an exact
rational tie; rational ties are decided exactly without any enclosure.

The enclosures of exp come from one cached int kernel, _exp_ints(p, q,
prec_bits) for e**(p/q) (Brent, J. ACM 1976): halve the argument below 1/2
(and about sqrt(precision)/2 times more), sum its Taylor series on ints scaled
by 2**w, flooring every step for the lower side and ceiling every step plus a
tail bound for the upper, then square back and reduce each dyadic end to an
int pair by a shift.  A negative exponent swaps and inverts the pairs of its
negation, built one bit tighter.  An exponent whose bounds would need over
MAX_EXP_BITS bits is refused before any squaring.  exp_bounds reads the
kernel as Fractions.

ExpSum.enclosure sums on one scale 2**w (Brent and Zimmermann, Modern
Computer Arithmetic, 2010): each e**b from the kernel at prec + GUARD_BITS
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
from math import gcd, isqrt

from .errors import GuardExceeded, InvalidValue, UndecidedComparison
from .records import Record

DEFAULT_PRECISION_BITS = 128

MAX_PRECISION_BITS = DEFAULT_PRECISION_BITS << 6  # ExpSum.sign doubles up to this
GUARD_BITS = 16  # ExpSum.enclosure's extra bits, twice over; see above
MAX_DIGITS = 4300  # int()'s default limit on the digits of a decimal string
MAX_EXP_BITS = 1 << 16  # |x|*log2(e) + prec_bits; committee_size's e**(65535/8) fits

_ZERO = Fraction(0)


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
def _exp_ints(p: int, q: int, prec_bits: int) -> tuple[int, int, int, int]:
    """Reduced ints a/b <= exp(p/q) <= c/d (q > 0) with c/d - a/b <= a/b *
    2**-prec_bits, by the module docstring's method: for x = p/q > 0, the
    series of S*exp(y), S = 2**w, y = x/2**r < 2**-(1 + isqrt(prec_bits)//2),
    squared r times.  Its upper side adds 1 for the tail: the last upper term
    is 1 and the term ratio y/(k+1) is at most 1/4, so the tail is under 1/3.

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
    if p == 0:
        return 1, 1, 1, 1
    if p < 0:
        a, b, c, d = _exp_ints(-p, q, prec_bits + 1)
        return d, c, b, a
    bits = (p * 47275 // q >> 15) + prec_bits  # 47275 / 2**15 just over log2(e)
    if bits > MAX_EXP_BITS:
        raise GuardExceeded(f"exp(x), |x| ~ {p // q}, needs ~{bits} bits, over {MAX_EXP_BITS}")
    # x < 2**(bitlen(p) - bitlen(q) + 1), so y < 2**-(1 + m)
    r = max(0, p.bit_length() - q.bit_length() + 2 + isqrt(prec_bits) // 2)
    w = prec_bits + r + 8 + (prec_bits + r).bit_length()
    while True:
        y_lo, rem = divmod(p << w, q << r)
        y_hi = y_lo + (rem > 0)
        lo = hi = t_lo = t_hi = 1 << w
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
            s, t = min(w, (lo & -lo).bit_length() - 1), min(w, (hi & -hi).bit_length() - 1)
            return lo >> s, 1 << w - s, hi >> t, 1 << w - t
        w += 32


def exp_bounds(x, prec_bits: int = DEFAULT_PRECISION_BITS) -> tuple[Fraction, Fraction]:
    """_exp_ints as Fractions lo <= exp(x) <= hi, hi - lo <= lo * 2**-prec_bits;
    x is anything ExpSum.exp accepts, and cache_info is the kernel's."""
    a, b, c, d = _exp_ints(*_ratio(x), prec_bits)
    return Fraction(a, b), Fraction(c, d)


exp_bounds.cache_info = _exp_ints.cache_info


def _frac(value) -> Fraction:
    """value read exactly as a Fraction (ints, floats, "p/q"), or InvalidValue."""
    if type(value) is Fraction:
        return value
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise InvalidValue(f"not a rational: {value!r:.40}") from None


def _ratio(value) -> tuple[int, int]:
    """value read exactly as a reduced int pair (p, q), q > 0, or InvalidValue;
    an int builds no Fraction."""
    if type(value) is int:
        return value, 1
    value = _frac(value)
    return value.numerator, value.denominator


def _reduce(p: int, q: int) -> tuple[int, int]:
    """p/q, q > 0, reduced by one gcd."""
    g = gcd(p, q)
    return p // g, q // g


def _add(p: int, q: int, u: int, v: int) -> tuple[int, int]:
    """p/q + u/v as p*v + u*q over q*v, reduced by one gcd."""
    return _reduce(p * v + u * q, q * v)


def _canon(terms) -> tuple[tuple[int, int, int, int], ...]:
    """Like terms merged, zeros dropped, ordered by decreasing exponent (an
    order that negation and scaling keep), each term as its int quadruple.
    A term is a (coeff, exponent) pair of rationals, or a quadruple (p, q,
    r, s) read as (p/q, r/s), so that ExpSum(v.terms) == v."""
    acc: dict[Fraction, Fraction] = {}
    for term in terms:
        if len(term) == 4:
            p, q, r, s = map(_frac, term)
            if not q or not s:
                raise InvalidValue(f"not a rational: a zero denominator in {term!r:.40}")
            term = p / q, r / s
        coeff, expo = map(_frac, term)
        acc[expo] = acc.get(expo, _ZERO) + coeff
    return tuple((a.numerator, a.denominator, b.numerator, b.denominator)
                 for b in sorted(acc, reverse=True) if (a := acc[b]))


class ExpSum(Record):
    """Exact value sum_i (p_i/q_i) * exp(r_i/s_i), closed under + and -;
    always canonical (see the module docstring)."""

    terms: tuple[tuple[int, int, int, int], ...]

    def __init__(self, terms) -> None:
        self.__dict__["terms"] = _canon(terms)

    @staticmethod
    def _make(terms: tuple[tuple[int, int, int, int], ...]) -> "ExpSum":
        """An ExpSum on quadruples that are canonical already, unchecked."""
        value = object.__new__(ExpSum)
        value.__dict__["terms"] = terms
        return value

    @staticmethod
    def of(value) -> "ExpSum":
        return value if isinstance(value, ExpSum) else ExpSum.exp(0, value)

    @staticmethod
    def exp(exponent, coeff=1) -> "ExpSum":
        """coeff * e**exponent."""
        p, q = _ratio(coeff)
        r, s = _ratio(exponent)
        return ExpSum._make(((p, q, r, s),) if p else ())

    @property
    def is_rational(self) -> bool:
        """Canonical exponents are distinct: no term, or one at exponent 0."""
        return not self.terms or (len(self.terms) == 1 and not self.terms[0][2])

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise InvalidValue(f"not an exact rational: {self}")
        return Fraction(*self.terms[0][:2]) if self.terms else _ZERO

    def __add__(self, other, negate: bool = False) -> "ExpSum":
        """self + other, or self - other if negate: one merge of the two term
        lists, both sorted by decreasing exponent, negating other's as it goes."""
        other = ExpSum.of(other)
        mine, theirs = self.terms, other.terms
        if not theirs:
            return self
        if not mine:
            return -other if negate else other
        out = []
        i = j = 0
        while i < len(mine) and j < len(theirs):
            (p, q, r, s), (u, v, x, y) = mine[i], theirs[j]
            order = r * y - x * s  # the sign of r/s - x/y
            if order > 0:
                out.append(mine[i])
                i += 1
            elif order < 0:
                out.append((-u, v, x, y) if negate else theirs[j])
                j += 1
            else:
                p, q = _add(p, q, -u if negate else u, v)
                if p:
                    out.append((p, q, r, s))
                i += 1
                j += 1
        tail = [(-u, v, x, y) for u, v, x, y in theirs[j:]] if negate else theirs[j:]
        return ExpSum._make((*out, *mine[i:], *tail))

    __radd__ = __add__

    def __neg__(self) -> "ExpSum":
        return ExpSum._make(tuple((-p, q, r, s) for p, q, r, s in self.terms))

    def __sub__(self, other) -> "ExpSum":
        return self.__add__(other, True)

    def __rsub__(self, other) -> "ExpSum":
        return ExpSum.of(other).__add__(self, True)

    def enclosure(self, prec_bits: int = DEFAULT_PRECISION_BITS) -> tuple[Fraction, Fraction]:
        """Guaranteed rational interval containing the exact value, summed on
        one fixed-point int scale; the module docstring bounds its width."""
        pad = prec_bits + GUARD_BITS
        # (p, q, a, b, c, d): coefficient p/q, e**exponent within [a/b, c/d]
        terms = [(p, q, *(_exp_ints(r, s, pad) if r else (1, 1, 1, 1)))
                 for p, q, r, s in self.terms]
        # |p/q| * c/d < 2**top for every term
        top = max((p.bit_length() - q.bit_length() + c.bit_length() - d.bit_length() + 2
                   for p, q, _, _, c, d in terms), default=0)
        w = max(0, pad + GUARD_BITS - top)
        lo = hi = 0
        for p, q, a, b, c, d in terms:
            if p < 0:
                a, b, c, d = c, d, a, b
            p <<= w
            lo += p * a // (q * b)
            hi -= -p * c // (q * d)
        return Fraction(lo, 1 << w), Fraction(hi, 1 << w)

    @cached_property
    def _default_enclosure(self) -> tuple[Fraction, Fraction]:
        """enclosure() at the default width, kept: sign() starts from it, and
        it is the one interval that decimal_interval prints."""
        return self.enclosure()

    def sign(self) -> int:
        """Certified sign in {-1, 0, +1}; 0 only for exact rational zero."""
        if self.is_rational:
            p = self.terms[0][0] if self.terms else 0
            return (p > 0) - (p < 0)
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
        return " + ".join(f"{p}/{q}" + (f"*exp({r}/{s})" if r else "")
                          for p, q, r, s in self.terms) or "0"


def decimal_interval(value: ExpSum) -> tuple[str, str]:
    """The kept enclosure at DEFAULT_PRECISION_BITS as 30-digit decimal
    strings [lo, hi], rounded outward: still a true enclosure."""
    lo, hi = value._default_enclosure
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 30, ROUND_FLOOR
        low = str(Decimal(lo.numerator) / lo.denominator)
        ctx.rounding = ROUND_CEILING
        return low, str(Decimal(hi.numerator) / hi.denominator)


def value_json(value: ExpSum):
    """Serialize: exact rationals as 'p/q', others as decimal_interval's pair."""
    if not value.is_rational:
        return list(decimal_interval(value))
    p, q = value.terms[0][:2] if value.terms else (0, 1)
    return f"{p}/{q}"
