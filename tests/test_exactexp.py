"""Certified exponential arithmetic, checked against an mpmath oracle."""

import random
import time
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtlab.errors import GuardExceeded, InvalidValue, UndecidedComparison
from dtlab.exactexp import (
    GUARD_BITS,
    MAX_EXP_BITS,
    MAX_PRECISION_BITS,
    ExpSum,
    _canon,
    decimal_interval,
    exp_bounds,
    fraction_from_str,
    fraction_to_str,
    value_json,
)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=64)


def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)


@given(rationals)
@settings(deadline=None, max_examples=60)
def test_exp_bounds_bracket_the_true_value(x):
    lo, hi = exp_bounds(x, 96)
    with mpmath.workprec(320):
        truth = mpmath.exp(_mpf(x))
        assert _mpf(lo) <= truth <= _mpf(hi)
    assert hi - lo <= hi * Fraction(1, 2**96)


@lru_cache(maxsize=None)
def _taylor_bounds(x: Fraction, prec_bits: int) -> tuple[Fraction, Fraction]:
    """Oracle: the plain Fraction Taylor series of e^x with a geometric tail
    bound and no argument reduction; negative x inverts e^-x."""
    if x == 0:
        return Fraction(1), Fraction(1)
    if x < 0:
        lo, hi = _taylor_bounds(-x, prec_bits + 1)
        return 1 / hi, 1 / lo
    tol = Fraction(1, 2**prec_bits)
    term = total = Fraction(1)
    i = 0
    while True:
        i += 1
        term *= x / i
        total += term
        # The remainder after term i is below term * (x/(i+1)) / (1 - x/(i+2))
        # once x/(i+2) < 1.
        if i + 2 > x:
            tail = term * (x / (i + 1)) / (1 - x / (i + 2))
            if tail <= total * tol:
                return total, total + tail


def _truth(x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """e^x from mpmath at bits + 64 working bits, widened outward by a
    relative 2**-bits into an exact rational interval."""
    with mpmath.workprec(bits + 64):
        man, exp = mpmath.exp(_mpf(x)).man_exp
    t = man * Fraction(2) ** exp
    return t - t / 2**bits, t + t / 2**bits


_SWEEP_PRECISIONS = (1, 8, 96, 128, 137, 142, 1024, 8192)


def _sweep_points() -> list[Fraction]:
    rng = random.Random(20261)
    xs = [Fraction(29473, 32), Fraction(-29473, 32), Fraction(1000), Fraction(-1000),
          Fraction(1, 2**300), Fraction(1, 2), Fraction(-1, 2)]
    for _ in range(9):
        den = rng.choice((1, 3, 32, 10**6, rng.getrandbits(1100) | 1 << 1099 | 1))
        xs.append(Fraction(rng.randint(-1000 * den, 1000 * den), den))
    for _ in range(3):  # 1,000+-bit denominators near zero
        den = rng.getrandbits(1200) | 1 << 1199 | 1
        xs.append(Fraction(rng.randint(-8 * den, 8 * den), den))
    return xs


@pytest.mark.parametrize("prec", _SWEEP_PRECISIONS)
def test_exp_bounds_seeded_sweep_against_mpmath_and_the_series(prec):
    for x in _sweep_points():
        lo, hi = exp_bounds(x, prec)
        # the denominator's bits keep the truth's slack below e^x - 1 for tiny x
        a, b = _truth(x, 2 * prec + 64 + x.denominator.bit_length())
        assert lo <= a and b <= hi, (x, prec)
        assert hi - lo <= lo / 2**prec, (x, prec)
        # The series gets slow as |x| times the bits of x grows; where it is
        # cheap, its own enclosure must meet this one.
        if abs(x) * x.denominator.bit_length() <= 20000:
            olo, ohi = _taylor_bounds(x, 8)
            assert max(lo, olo) <= min(hi, ohi), (x, prec)


def test_exp_bounds_endpoints_are_dyadic_for_positive_x():
    for x in (Fraction(29473, 32), Fraction(1, 3), Fraction(7)):
        for end in exp_bounds(x, 128):
            assert end.denominator & (end.denominator - 1) == 0


def test_exp_bounds_exact_at_zero():
    assert exp_bounds(Fraction(0)) == (1, 1)


def test_exp_bounds_rejects_nonpositive_precision():
    with pytest.raises(InvalidValue):
        exp_bounds(Fraction(1), 0)


def test_exp_bounds_reads_what_expsum_exp_reads():
    for same, exact in ((0.5, Fraction(1, 2)), ("1/2", Fraction(1, 2)), (-2, Fraction(-2)),
                        (True, Fraction(1)), (-0.125, Fraction(-1, 8)), ("0", Fraction(0))):
        assert exp_bounds(same, 96) == exp_bounds(exact, 96)
        assert ExpSum.exp(same) == ExpSum.exp(exact)
    for bad in (None, "half", "1/0", float("nan"), float("inf"), [1], 1j):
        with pytest.raises(InvalidValue):
            exp_bounds(bad)
        with pytest.raises(InvalidValue):
            ExpSum.exp(bad)


def test_huge_exponents_are_refused_before_any_squaring():
    # e**(10**9) would need about 1.44e9 bits, and squaring toward them takes
    # minutes and gigabytes: both signs are refused at once.
    for x in (Fraction(10**9), Fraction(-10**9), Fraction(-(10**30) - 1, 7)):
        start = time.process_time()
        estimate = r"14427\d{5}" if abs(x) == 10**9 else r"\d+"
        with pytest.raises(GuardExceeded, match=rf"needs ~{estimate} bits, over {MAX_EXP_BITS}"):
            ExpSum.exp(x).sign()
        with pytest.raises(GuardExceeded, match=rf"needs ~{estimate} bits, over {MAX_EXP_BITS}"):
            exp_bounds(x)
        assert time.process_time() - start < 0.5
    # the estimate |x|*log2(e) + prec_bits is refused just past the limit
    # and computed just below it ...
    for margin, refused in ((2, True), (-4, False)):
        x = Fraction(MAX_EXP_BITS - 128 + margin) / Fraction(1442695, 10**6)
        if refused:
            with pytest.raises(GuardExceeded):
                exp_bounds(x, 128)
        else:
            lo, hi = exp_bounds(x, 128)
            assert lo.numerator.bit_length() - lo.denominator.bit_length() > MAX_EXP_BITS - 200
    # ... while committee_size's largest exponent, 65535/8, passes at the
    # widest enclosure that sign() asks for, on both sides
    widest = MAX_PRECISION_BITS + GUARD_BITS
    for y in (Fraction(65535, 8), Fraction(-65535, 8), Fraction(65536, 8)):
        lo, hi = exp_bounds(y, widest)
        assert 0 < hi - lo <= lo / 2**widest


def _former_exp_bounds(x: Fraction, prec_bits: int) -> tuple[Fraction, Fraction]:
    """Oracle: the Fraction body that exp_bounds had before the int kernel,
    kept verbatim but for the cache and the argument checks."""
    if x == 0:
        return Fraction(1), Fraction(1)
    if x < 0:
        lo, hi = _former_exp_bounds(-x, prec_bits + 1)
        return 1 / hi, 1 / lo
    p, q = x.numerator, x.denominator
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


@given(st.fractions(max_denominator=10**6))
@settings(deadline=None, max_examples=80)
def test_fraction_string_round_trip(q):
    assert fraction_from_str(fraction_to_str(q)) == q


def test_fraction_from_str_forms_and_refusals():
    assert fraction_from_str("2/4") == Fraction(1, 2)
    assert fraction_from_str("-3") == -3
    assert fraction_from_str("0.125") == Fraction(1, 8)
    assert fraction_from_str(7) == 7
    for bad in ("1/0", "-2/0", "", "1/2/3", "half", 0.5, True, None):
        with pytest.raises(InvalidValue):
            fraction_from_str(bad)


def test_like_terms_cancel_to_exact_rational():
    v = ExpSum.exp(2, 3) - ExpSum.exp(2, 2) - ExpSum.exp(2)
    assert v.is_rational
    assert v.as_rational() == 0
    assert v.sign() == 0


def test_as_rational_refuses_transcendental_values():
    with pytest.raises(InvalidValue):
        ExpSum.exp(1).as_rational()


def test_sign_decides_both_directions_around_e():
    assert (ExpSum.exp(1) - Fraction(2718, 1000)).sign() == 1
    assert (ExpSum.exp(1) - Fraction(2719, 1000)).sign() == -1


def test_le_is_certified_not_float():
    # e**(1/100) exceeds 1 + 1/100 by about 5e-5; floats agree, but the
    # comparison must come from the enclosure machinery.
    assert (ExpSum.exp(Fraction(1, 100)) - (1 + Fraction(1, 100))).sign() == 1
    assert (ExpSum.of(1 + Fraction(1, 100)) - ExpSum.exp(Fraction(1, 100))).sign() == -1


def test_tiny_positive_value_decided_at_default_precision():
    x = Fraction(1, 2**80)
    v = ExpSum.exp(x) - 1 - x  # about x**2 / 2, positive
    assert v.sign() == 1


def test_sign_raises_once_doubling_budget_is_exhausted():
    # e^x - 1 - x is about x**2 / 2: 2**-8001 is still seen at the 8,192-bit
    # ceiling, 2**-10001 is not
    for bits, decided in ((4000, True), (5000, False)):
        x = Fraction(1, 2**bits)
        v = ExpSum.exp(x) - 1 - x
        if decided:
            assert v.sign() == 1
        else:
            with pytest.raises(UndecidedComparison, match="undecided at 8192 bits") as exc:
                v.sign()
            # the message names the term count, not the 4,000-digit terms
            assert "2-term" in str(exc.value) and len(str(exc.value)) < 100


def test_arithmetic_matches_oracle():
    v = ExpSum.exp(Fraction(3, 2), 2) - ExpSum.exp(Fraction(-1, 3), 5) + Fraction(7, 4)
    lo, hi = _interval(v, 128)
    with mpmath.workprec(400):
        truth = (2 * mpmath.exp(mpmath.mpf(3) / 2)
                 - 5 * mpmath.exp(-mpmath.mpf(1) / 3) + mpmath.mpf(7) / 4)
        assert _mpf(lo) <= truth <= _mpf(hi)
    assert hi - lo < Fraction(1, 2**100)


def test_scale_and_negation():
    v = ExpSum.exp(1, Fraction(1, 2))
    assert (v + v - ExpSum.exp(1)).sign() == 0
    assert (-v + v).terms == ()


def test_negation_and_scaling_keep_the_canonical_order():
    a = ExpSum.exp(1, 2) + ExpSum.exp(2, 3)
    assert -a == ExpSum.of(0) - a
    assert hash(-a) == hash(ExpSum.of(0) - a)
    assert [b for _, b in _pairs(a - 4)] == [2, 1, 0]


def test_hand_built_sums_are_canonicalized():
    # left unmerged, the first would read 1 and the others spin to the
    # precision ceiling
    for terms in (((1, 0), (-1, 0)), ((1, 1), (-1, 1)), ((0, 1),)):
        v = ExpSum(terms)
        assert v.terms == ()
        assert v == ExpSum.of(0) and hash(v) == hash(ExpSum.of(0))
        assert v.as_rational() == 0 and v.sign() == 0
    mixed = ExpSum(((1, 0), (2, 1), (Fraction(1, 2), -1), (3, 1), (True, 0)))
    built = ExpSum.exp(1, 5) + 2 + ExpSum.exp(-1, Fraction(1, 2))
    assert mixed == built and hash(mixed) == hash(built)
    assert _pairs(mixed) == ((5, 1), (2, 0), (Fraction(1, 2), -1))
    assert mixed.terms == ((5, 1, 1, 1), (2, 1, 0, 1), (1, 2, -1, 1))
    assert (mixed - built).sign() == 0


def _random_terms(rng):
    """A term list with repeated exponents, zero coefficients, terms that
    cancel, and int, bool and Fraction entries; a third are rational only."""
    rational_only = rng.random() < 1 / 3
    pool = [0] if rational_only else [0, 1, -1, Fraction(1, 2), Fraction(-2, 3), 2]

    def number(lo, hi):
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randint(lo, hi)
        if kind == 1:
            return rng.random() < 0.5
        return Fraction(rng.randint(lo, hi), rng.randint(1, 3))

    terms = [(number(-3, 3), rng.choice(pool)) for _ in range(rng.randint(0, 6))]
    if terms and rng.random() < 0.3:
        a, b = rng.choice(terms)
        terms.append((-a, b))
    rng.shuffle(terms)
    return terms


def _pairs(v: ExpSum) -> tuple[tuple[Fraction, Fraction], ...]:
    """v's terms as (coefficient, exponent) Fraction pairs, after checking
    their int form: quadruples (p, q, r, s) of ints, p/q and r/s reduced,
    q, s > 0 and p != 0, with strictly decreasing exponents."""
    for term in v.terms:
        p, q, r, s = term
        assert all(type(x) is int for x in term), term
        assert p and q > 0 and s > 0 and gcd(p, q) == gcd(r, s) == 1, term
    pairs = tuple((Fraction(p, q), Fraction(r, s)) for p, q, r, s in v.terms)
    assert all(b > d for (_, b), (_, d) in zip(pairs, pairs[1:])), pairs
    return pairs


def _canonical_form(v: ExpSum) -> tuple:
    return _pairs(v), v.terms, hash(v)


def test_kernel_operations_match_the_canonicalizing_constructor():
    rng = random.Random(2020)
    for _ in range(1000):
        ta, tb = _random_terms(rng), _random_terms(rng)
        a, b = ExpSum(ta), ExpSum(tb)
        q = rng.choice([0, 1, -2, True, Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
        c, e = rng.choice(ta + tb + [(0, 1), (True, False)])

        def expect(terms):
            return _canonical_form(ExpSum(tuple(terms)))

        assert a.terms == _canon(ta)
        pa, pb = _pairs(a), _pairs(b)
        assert _canonical_form(a + b) == expect(pa + pb)
        assert _canonical_form(a - b) == expect(pa + tuple((-x, y) for x, y in pb))
        assert _canonical_form(-a) == expect((-x, y) for x, y in pa)
        assert _canonical_form(a + q) == expect(pa + ((q, 0),))
        assert _canonical_form(q - a) == expect([(q, 0)] + [(-x, y) for x, y in pa])
        assert _canonical_form(ExpSum.of(c)) == expect([(c, 0)])
        assert _canonical_form(ExpSum.exp(e, c)) == expect([(c, e)])


def test_total_matches_repeated_addition():
    rng = random.Random(77)
    for _ in range(20):
        values = [ExpSum.exp(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                             Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                  for _ in range(rng.randint(0, 12))]
        values += [Fraction(rng.randint(-2, 2), 3), rng.randint(-1, 1)]
        rng.shuffle(values)
        total = ExpSum(t for v in values for t in _pairs(ExpSum.of(v)))
        assert ExpSum(t for v in values for t in ExpSum.of(v).terms) == total
        assert _canonical_form(total) == _canonical_form(sum(values, ExpSum.of(0)))


def _interval(v: ExpSum, prec_bits: int) -> tuple[Fraction, Fraction]:
    """v.enclosure(prec_bits), the ints (lo, hi, w), read as the Fractions
    lo/2**w and hi/2**w that it bounds the value by."""
    lo, hi, w = v.enclosure(prec_bits)
    assert type(lo) is type(hi) is type(w) is int and w >= 0
    return Fraction(lo, 1 << w), Fraction(hi, 1 << w)


def _fraction_sum_enclosure(v: ExpSum, prec_bits: int) -> tuple[Fraction, Fraction]:
    """Oracle: the enclosure as an exact Fraction sum of the term intervals,
    each e**b at a width that grows with the term count, as the kernel
    summed before it moved onto one fixed-point scale."""
    pad = prec_bits + 8 + max(1, len(v.terms)).bit_length()
    lo = hi = Fraction(0)
    for a, b in _pairs(v):
        if b == 0:
            lo += a
            hi += a
            continue
        elo, ehi = exp_bounds(b, pad)
        if a < 0:
            elo, ehi = ehi, elo
        lo += a * elo
        hi += a * ehi
    return lo, hi


_ORACLE_EXPONENTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 4), Fraction(-3, 4),
                     Fraction(5, 3), Fraction(-7, 2), Fraction(8), Fraction(-8), Fraction(1, 1000))


def _oracle_sum(rng) -> ExpSum:
    """0 to 12 terms over a few shared exponents, with negative coefficients
    and magnitudes from 2**-200 to 2**60.  In a third of the sums a rational
    term nearly cancels the rest, matching it to 20..180 bits of the scale."""
    base = rng.randint(-200, 60)
    terms = []
    for _ in range(rng.randint(0, 12)):
        mag = Fraction(2) ** max(-200, base - rng.randint(0, 24))
        coeff = Fraction(rng.randint(1, 2**30), rng.choice((1, 3, 7, 1000))) / 2**30 * mag
        terms.append((coeff if rng.random() < 0.5 else -coeff, rng.choice(_ORACLE_EXPONENTS)))
    if terms and rng.random() < 1 / 3:
        scale = Fraction(2) ** base
        value = _fraction_sum_enclosure(ExpSum(tuple(terms)), 400)[0] / scale
        bits = rng.randint(20, 180)
        terms.append((-Fraction(round(value * 2**bits), 2**bits) * scale, 0))
    return ExpSum(tuple(terms))


def _decided(lo, hi) -> int:
    return 1 if lo > 0 else -1 if hi < 0 else 0


def test_fixed_point_enclosure_against_the_fraction_sum_and_mpmath():
    rng = random.Random(2201)
    decided = near_zero = 0
    for _ in range(2000):
        v = _oracle_sum(rng)
        lo, hi = _interval(v, 128)
        olo, ohi = _fraction_sum_enclosure(v, 128)
        with mpmath.workprec(600):
            neg, man, exp, _ = mpmath.fsum(_mpf(a) * mpmath.exp(_mpf(b))
                                           for a, b in _pairs(v))._mpf_
        assert lo <= (-1) ** neg * man * Fraction(2) ** exp <= hi
        # a rounding unit 2**-w is under 2**-156 times the largest term
        largest = max((abs(a) * exp_bounds(b, 64)[1] for a, b in _pairs(v)), default=0)
        assert hi - lo <= (ohi - olo) + len(v.terms) * largest / 2**156
        # where the Fraction sum signs at 128 bits, the fixed-point sum signs alike
        if _decided(olo, ohi):
            assert _decided(lo, hi) == _decided(olo, ohi) == v.sign()
            decided += 1
        elif v.terms:
            near_zero += 1
    assert decided >= 1500 and near_zero >= 50


def _former_enclosure(pairs, prec_bits: int) -> tuple[Fraction, Fraction]:
    """Oracle: the fixed-point enclosure of a sum of (coefficient, exponent)
    Fraction pairs as it read Fraction bounds of e**b before the int kernel."""
    pad = prec_bits + GUARD_BITS
    terms = [(a, *(_former_exp_bounds(b, pad) if b else (Fraction(1), Fraction(1))))
             for a, b in pairs]
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
    return Fraction(lo, 1 << w), Fraction(hi, 1 << w)


def _former_print(q: Fraction, rounding) -> str:
    """Oracle: one end as decimal_interval printed it, in a context of its own."""
    with localcontext() as ctx:
        ctx.prec = 30
        ctx.rounding = rounding
        return str(Decimal(q.numerator) / Decimal(q.denominator))


def test_int_kernel_is_bit_identical_to_the_fraction_body():
    """A one-ulp shift in a bound keeps every containment test green but
    moves printed digits, so the kernel must equal the former body exactly."""
    rng = random.Random(3838)
    for _ in range(200):
        den = rng.choice((1, 2, 3, 32, 1000, 10**6 + 3, rng.getrandbits(80) | 1))
        x = Fraction(rng.randint(-rng.choice((1, 40, 1000)) * den, 1000 * den), den)
        for prec in (64, 128, 129, 144, 145, 256):
            assert exp_bounds(x, prec) == _former_exp_bounds(x, prec), (x, prec)
    rng = random.Random(3839)
    for _ in range(300):
        v = _oracle_sum(rng)
        for prec in (128, 256):
            assert _interval(v, prec) == _former_enclosure(_pairs(v), prec)
        lo, hi = _former_enclosure(_pairs(v), 128)
        assert decimal_interval(v) == (_former_print(lo, ROUND_FLOOR),
                                       _former_print(hi, ROUND_CEILING))


def test_is_rational_reads_the_canonical_form():
    """The O(1) test against the walk over every term that it replaced."""
    rng = random.Random(3840)
    for _ in range(1000):
        v = ExpSum(_random_terms(rng)) + ExpSum(_random_terms(rng))
        assert v.is_rational == all(b == 0 for _, b in _pairs(v))
    for v in (ExpSum.exp(-1) + 1, 1 - ExpSum.exp(1), ExpSum.exp(2) - ExpSum.exp(2) + 3):
        assert v.is_rational == (v == ExpSum.of(3))


class _FormerExpSum:
    """Oracle: ExpSum as it was on (coefficient, exponent) Fraction pairs,
    kept but for the record base, the kept default enclosure and the
    precision ceiling's message; every result, a merge's too, goes through
    the Fraction canonicalization."""

    def __init__(self, terms):
        acc = {}
        for coeff, expo in terms:
            coeff, expo = Fraction(coeff), Fraction(expo)
            acc[expo] = acc.get(expo, Fraction(0)) + coeff
        self.terms = tuple((acc[b], b) for b in sorted(acc, reverse=True) if acc[b] != 0)

    @staticmethod
    def of(value):
        return value if isinstance(value, _FormerExpSum) else _FormerExpSum.exp(0, value)

    @staticmethod
    def exp(exponent, coeff=1):
        return _FormerExpSum([(coeff, exponent)])

    @property
    def is_rational(self):
        return not self.terms or (len(self.terms) == 1 and not self.terms[0][1])

    def as_rational(self):
        if not self.is_rational:
            raise InvalidValue("not an exact rational")
        return self.terms[0][0] if self.terms else Fraction(0)

    def __add__(self, other, negate=False):
        other = _FormerExpSum.of(other)
        mine, theirs = self.terms, other.terms
        out = []
        i = j = 0
        while i < len(mine) and j < len(theirs):
            (a, b), (c, d) = mine[i], theirs[j]
            if b > d:
                out.append(mine[i])
                i += 1
            elif d > b:
                out.append((-c, d) if negate else theirs[j])
                j += 1
            else:
                coeff = a - c if negate else a + c
                if coeff:
                    out.append((coeff, b))
                i += 1
                j += 1
        tail = [(-c, d) for c, d in theirs[j:]] if negate else theirs[j:]
        return _FormerExpSum((*out, *mine[i:], *tail))

    __radd__ = __add__

    def __neg__(self):
        return _FormerExpSum((-a, b) for a, b in self.terms)

    def __sub__(self, other):
        return self.__add__(other, True)

    def __rsub__(self, other):
        return _FormerExpSum.of(other).__add__(self, True)

    def enclosure(self, prec_bits=128):
        return _former_enclosure(self.terms, prec_bits)

    def sign(self):
        if self.is_rational:
            v = self.as_rational()
            return (v > 0) - (v < 0)
        prec = 128
        lo, hi = self.enclosure(prec)
        while lo <= 0 <= hi:
            if prec >= MAX_PRECISION_BITS:
                raise UndecidedComparison("undecided")
            prec *= 2
            lo, hi = self.enclosure(prec)
        return 1 if lo > 0 else -1

    def __str__(self):
        return " + ".join(fraction_to_str(a) + (f"*exp({fraction_to_str(b)})" if b else "")
                          for a, b in self.terms) or "0"

    def value_json(self):
        if self.is_rational:
            return fraction_to_str(self.as_rational())
        lo, hi = self.enclosure(128)
        return [_former_print(lo, ROUND_FLOOR), _former_print(hi, ROUND_CEILING)]


def _same_as_former(got: ExpSum, want: _FormerExpSum) -> None:
    """got, built on ints, reads as the former Fraction-pair value."""
    assert _pairs(got) == want.terms
    assert got.is_rational == want.is_rational
    if want.is_rational:
        assert got.as_rational() == want.as_rational()
    else:
        with pytest.raises(InvalidValue):
            got.as_rational()
    assert got.sign() == want.sign()
    assert str(got) == str(want)
    assert value_json(got) == want.value_json()
    for prec in (128, 256):
        assert _interval(got, prec) == want.enclosure(prec)


def test_int_kernel_matches_the_former_fraction_pair_expsum():
    """Every operation on the int quadruples against the Fraction-pair
    ExpSum they replaced, on 300 seeded sums with cancelling exponents and
    rational-only sums."""
    rng = random.Random(4040)
    cancelled = rational = 0
    for _ in range(300):
        ta, tb = _random_terms(rng), _random_terms(rng)
        if ta and rng.random() < 0.3:  # b cancels part or all of a
            tb += [(-c, e) for c, e in ta[:rng.randint(1, len(ta))]]
        a, b = ExpSum(ta), ExpSum(tb)
        fa, fb = _FormerExpSum(ta), _FormerExpSum(tb)
        q = rng.choice([0, 1, -2, True, Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
        c, e = rng.choice(ta + tb + [(0, 1), (True, False), (Fraction(-3, 2), Fraction(1, 3))])
        for got, want in ((a, fa), (a + b, fa + fb), (a - b, fa - fb), (b - a, fb - fa),
                          (-a, -fa), (a + q, fa + q), (q - a, q - fa), (a - a, fa - fa),
                          (ExpSum.of(c), _FormerExpSum.of(c)),
                          (ExpSum.exp(e, c), _FormerExpSum.exp(e, c))):
            _same_as_former(got, want)
            rational += got.is_rational
        cancelled += len((a + b).terms) < len({y for _, y in _pairs(a) + _pairs(b)})
    assert cancelled >= 30 and rational >= 300


def test_a_quadruple_term_reads_as_its_pair():
    """ExpSum(v.terms) == v, and a quadruple with a zero denominator is
    refused as a pair with one is."""
    v = ExpSum(((Fraction(4, 6), Fraction(-2, 4)), (3, 0)))
    assert v.terms == ((3, 1, 0, 1), (2, 3, -1, 2))
    assert ExpSum(v.terms) == v and ExpSum(((2, 3, -1, 2), (-2, 3, -1, 2))) == ExpSum.of(0)
    for bad in (((1, 0, 1, 1),), ((1, 1, 1, 0),), ((1, "1/0"),)):
        with pytest.raises(InvalidValue):
            ExpSum(bad)


def test_decimal_interval_brackets_e():
    lo, hi = decimal_interval(ExpSum.exp(1))
    e_ref = Decimal("2.718281828459045235360287471352")
    assert Decimal(lo) <= e_ref <= Decimal(hi)
    assert Decimal(hi) - Decimal(lo) < Decimal("1e-25")


def test_value_json_forms():
    assert value_json(ExpSum.of(Fraction(-3, 4))) == "-3/4"
    pair = value_json(ExpSum.exp(-1))
    assert isinstance(pair, list) and len(pair) == 2
    inv_e_ref = Decimal("0.3678794411714423215955237701614")
    assert Decimal(pair[0]) <= inv_e_ref <= Decimal(pair[1])


def test_str_is_readable():
    assert str(ExpSum.of(0)) == "0"
    assert str(ExpSum.exp(Fraction(-1, 2), 3) + 1) == "1/1 + 3/1*exp(-1/2)"
