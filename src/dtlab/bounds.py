"""Instance-level certification of the leaf-statistics inequalities.

Every verifier returns a BoundReport whose slack (rhs - lhs) must be
nonnegative; a negative slack is a hard failure, never measurement noise,
because each side is computed exactly.  All rational quantities are exact;
whenever e^x enters, the comparison is decided by ExpSum.sign, whose certified
enclosures are refined until they leave zero, so no verdict depends on a
precision setting.  bound_report_to_json prints every interval at the one
width sign() starts from, DEFAULT_PRECISION_BITS.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from itertools import accumulate
from math import floor, lcm, prod

from .errors import DimensionMismatch, InvalidValue
from .exactexp import ExpSum, _add, _frac, _ratio, _reduce, value_json
from .functions import (
    BooleanFunction,
    Distribution,
    Measure,
    constant_function,
    density,
    direct_product,
    parity,
    product_power,
    uniform,
    xor_power,
)
from .hardcore import HardcoreCertificate
from .records import Record
from .synth import opt_depth, pareto_frontier
from .trees import (
    DecisionTree,
    RandomizedTree,
    block_error_law,
    conditional_blocks_at_leaf,
    correlation,
    cube_points,
    error,
    expected_depth,
    leaf_stats,
    leaves,
)
from .transforms import embed_block_reduction, parity_mixture, product_tree

_ZERO = Fraction(0)

PHI_IDS = ("exp-neg-z4", "exp-pos-z", "square-dev", "tail-low", "tail-high")


class BoundReport(Record):
    """One checked inequality: holds iff slack = rhs - lhs is nonnegative.

    hypothesis_ok distinguishes instances outside a statement's hypotheses
    (where holds says nothing) from genuine bound violations.  related keeps
    side values worth reporting without widening the lhs/rhs contract.
    The slack is built once per report and kept, with the enclosure that
    signed it, so that printing it, always at that first width, encloses
    nothing again.
    """

    context: str
    lhs: ExpSum
    rhs: ExpSum
    holds: bool
    hypothesis_ok: bool
    related: tuple[tuple[str, object], ...]

    def __init__(self, context: str, lhs: ExpSum, rhs: ExpSum, holds: bool,
                 hypothesis_ok: bool = True, related: tuple[tuple[str, object], ...] = ()):
        fields = self.__dict__
        fields["context"], fields["lhs"], fields["rhs"] = context, lhs, rhs
        fields["holds"], fields["hypothesis_ok"], fields["related"] = holds, hypothesis_ok, related

    @cached_property
    def slack(self) -> ExpSum:
        return self.rhs - self.lhs


def _report(context: str, lhs, rhs, *, hypothesis_ok: bool = True,
            related=()) -> BoundReport:
    lhs, rhs = ExpSum.of(lhs), ExpSum.of(rhs)
    slack = rhs - lhs
    report = BoundReport(context, lhs, rhs, slack.sign() >= 0,
                         hypothesis_ok, tuple(related))
    report.__dict__["slack"] = slack  # the cached slack is the one just signed
    return report


def _equality_report(context: str, lhs: Fraction, rhs: Fraction,
                     related=()) -> BoundReport:
    return BoundReport(context, ExpSum.of(lhs), ExpSum.of(rhs), lhs == rhs,
                       True, tuple(related))


def bound_report_to_json(report: BoundReport) -> dict:
    def val(v):
        if isinstance(v, bool) or not isinstance(v, (ExpSum, Fraction, int)):
            return v
        return value_json(ExpSum.of(v))

    return {
        "context": report.context,
        "lhs": val(report.lhs),
        "rhs": val(report.rhs),
        "slack": val(report.slack),
        "holds": report.holds,
        "hypothesis_ok": report.hypothesis_ok,
        "related": {k: val(v) for k, v in report.related},
    }


# ---------------------------------------------------------------------------
# Bernoulli sums and closed-form tail bounds


def _ber_poly(p) -> tuple[int, list[int]]:
    """(B, c) with c[z]/B the probability that a sum of independent
    Bernoulli(a_i/b_i) variables is z, p being the int pairs (a_i, b_i),
    b_i > 0: c holds the int coefficients of prod((b_i - a_i) + a_i*x) and
    B = prod b_i, so the convolution runs on ints."""
    den, coeffs = 1, [1]
    for a, b in p:
        if not 0 <= a <= b:
            raise InvalidValue("Bernoulli parameters must lie in [0,1]")
        nxt = [c * (b - a) for c in coeffs] + [0]
        for z, c in enumerate(coeffs):
            nxt[z + 1] += c * a
        den, coeffs = den * b, nxt
    return den, coeffs


def ber_sum(p) -> tuple[Fraction, ...]:
    """pmf of a sum of independent Bernoulli(p_i) variables, indexed by the
    sum: _ber_poly's int coefficients over their common denominator B."""
    den, coeffs = _ber_poly((v.numerator, v.denominator) for v in map(_frac, p))
    return tuple(Fraction(c, den) for c in coeffs)


def binomial(k: int, delta) -> tuple[Fraction, ...]:
    return ber_sum((Fraction(delta),) * k)


def ber_sum_cdf(pmf: tuple[Fraction, ...], t) -> Fraction:
    """Pr[z <= t] for z with the given pmf; t may be any rational."""
    t = _frac(t)
    if t < 0:
        return _ZERO
    return sum(pmf[: min(len(pmf), floor(t) + 1)], _ZERO)


def chernoff_lower(mu_sum, t) -> ExpSum:
    """Closed-form bound exp(-(mu-t)^2/(2 mu)) on the lower tail Pr[z <= t].

    Reported as the vacuous 1 when t exceeds the mean (or the mean is 0).
    """
    mu_sum, t = _frac(mu_sum), _frac(t)
    if mu_sum < 0 or t < 0:
        raise InvalidValue("chernoff_lower needs nonnegative mean and threshold")
    if t > mu_sum or mu_sum == 0:
        return ExpSum.of(1)
    return ExpSum.exp(-((mu_sum - t) ** 2) / (2 * mu_sum))


def chernoff_upper2x(mu_sum) -> ExpSum:
    """Closed-form bound exp(-mu/3) on the upper tail Pr[z >= 2 mu]."""
    mu_sum = _frac(mu_sum)
    if mu_sum < 0:
        raise InvalidValue("chernoff_upper2x needs a nonnegative mean")
    return ExpSum.exp(-mu_sum / 3)


def _groups(pairs) -> list[tuple[int, int, int, int]]:
    """(p, q, n, d) per distinct z = n/d of (weight, z) pairs (ints or
    Fractions), p/q their total weight, z increasing.  Each is also the
    ExpSum term (p/q)*e**z, so the sums built from them are canonical by
    construction.  Leaves are keyed by z's reduced int pair."""
    acc: dict[tuple[int, int], tuple[int, int]] = {}
    for w, z in pairs:
        key = z.numerator, z.denominator
        acc[key] = _add(*acc.get(key, (0, 1)), w.numerator, w.denominator)
    den = lcm(*(d for _, d in acc))
    return [(p, q, n, d) for (n, d), (p, q) in
            sorted(acc.items(), key=lambda item: item[0][0] * (den // item[0][1]))]


def _g_exponent(a: int, b: int, n: int, d: int) -> tuple[int, int]:
    """min(t - z/4, 0) for t = a/b and z = n/d (b, d > 0) as a reduced int
    pair: g_t(z) = min(1, e^{t - z/4}) is e to this power."""
    num = 4 * a * d - b * n
    return (0, 1) if num >= 0 else _reduce(num, 4 * b * d)


def _g_sum(groups, a: int, b: int) -> ExpSum:
    """sum_z w_z * g_t(z) for t = a/b (b > 0) over _groups of positive
    weights.  The z <= 4t merge into one rational term; the others keep the
    distinct exponents t - z/4, which decrease as z grows."""
    flat, terms = (0, 1), []
    for p, q, n, d in groups:
        r, s = _g_exponent(a, b, n, d)
        if r:
            terms.append((p, q, r, s))
        else:
            flat = _add(*flat, p, q)
    return ExpSum._make(((*flat, 0, 1), *terms) if flat[0] else tuple(terms))


def g_func(t, z) -> ExpSum:
    """min(1, e^{t - z/4}), decided exactly: the min picks 1 iff t >= z/4."""
    return _g_sum([(1, 1, *_ratio(z))], *_ratio(t))


def lipschitz_check(t, z, delta, form: str = "plain") -> BoundReport:
    """g_t(z - delta) <= g_t(z) + delta/4 (plain) or + delta/t (scaled).

    The scaled form is only claimed for z >= 5t with t > 0; asking for it
    outside that range is an error, not a failed bound.  t = a/b, z = n/d
    and delta = e/f are read as reduced int pairs, and both sides built on ints.
    """
    (a, b), (n, d), (e, f) = _ratio(t), _ratio(z), _ratio(delta)
    if a < 0 or n < 0 or e < 0:
        raise InvalidValue("lipschitz_check needs nonnegative t, z, delta")
    if form == "plain":
        step = _reduce(e, 4 * f)
    elif form == "scaled":
        if a == 0 or n * b < 5 * a * d:
            raise InvalidValue(f"scaled form needs z >= 5t with t > 0, "
                               f"got t={Fraction(a, b)}, z={Fraction(n, d)}")
        step = _reduce(e * b, f * a)
    else:
        raise InvalidValue(f"unknown form {form!r}")
    rhs = _g_sum([(1, 1, n, d)], a, b) + ExpSum._make(((*step, 0, 1),) if e else ())
    return _report(f"lipschitz-{form}", _g_sum([(1, 1, n * f - e * d, d * f)], a, b), rhs)


# ---------------------------------------------------------------------------
# leaf-statistics inequalities


def _reachable_density_stats(tree: DecisionTree, h: Measure,
                             mu: Distribution) -> list[tuple[Fraction, Fraction]]:
    """(reach, total density) for every leaf with positive mass.  leaf_stats
    refuses an h or mu that does not live on the tree's n variables."""
    return [(s.reach, s.dens_total)
            for s in leaf_stats(tree, constant_function(h.n, 1), h, mu)]


def verify_density_conservation(tree: DecisionTree, h: Measure,
                                mu: Distribution) -> BoundReport:
    """Reach-weighted total leaf density equals delta*k exactly."""
    total = sum((reach * dens for reach, dens
                 in _reachable_density_stats(tree, h, mu)), _ZERO)
    return _equality_report("density-conservation", total,
                            density(h, mu) * tree.k)


def verify_resilience(tree: DecisionTree, h: Measure,
                      mu: Distribution) -> list[BoundReport]:
    """Leaf-averaged Phi of the total density against its binomial ceiling,
    one report per Phi in PHI_IDS order, all from one pass over the leaves.

    For convex Phi the leaf average is dominated by the Binomial(k, delta)
    average with delta the density of h under mu.  The two tail variants
    check the closed-form Chernoff bounds at mean delta*k instead:
    tail-low against chernoff_lower(mean, mean/2) = e^{-mean/8}, tail-high
    against chernoff_upper2x(mean) = e^{-mean/3}.
    """
    k = tree.k
    delta = density(h, mu)
    mean = delta * k
    pairs = _reachable_density_stats(tree, h, mu)
    den, coeffs = _ber_poly([(delta.numerator, delta.denominator)] * k)
    leaf = _groups(pairs)
    bino = [(*_reduce(c, den), z, 1) for z, c in enumerate(coeffs) if c]
    sides = {
        "exp-neg-z4": (_g_sum(leaf, 0, 1), _g_sum(bino, 0, 1)),  # g_0(z) = e**(-z/4)
        "exp-pos-z": tuple(ExpSum._make(tuple(reversed(g)))
                           for g in (leaf, bino)),  # largest z first
        "square-dev": (
            sum((reach * (dens - mean) ** 2 for reach, dens in pairs), _ZERO),
            k * delta * (1 - delta)),
        "tail-low": (
            sum((reach for reach, dens in pairs if dens <= mean / 2), _ZERO),
            chernoff_lower(mean, mean / 2)),
        "tail-high": (
            sum((reach for reach, dens in pairs if dens >= 2 * mean), _ZERO),
            chernoff_upper2x(mean)),
    }
    return [_report(f"resilience-{phi}", *sides[phi],
                    related=(("delta", delta), ("k", k)))
            for phi in PHI_IDS]


def verify_accuracy_bound(tree: DecisionTree, f: BooleanFunction, h: Measure,
                          mu: Distribution) -> list[BoundReport]:
    """Probability of at most t wrong blocks against the leaf Bernoulli-sum
    form, one report per threshold t = 0..k.

    Both sides read every t off one law each: the lhs off the tree's
    block_error_law with ber_sum_cdf, by direct point enumeration and never
    from the leaf statistics; the rhs off each leaf's Bernoulli-sum law,
    built once from each leaf's p as int pairs (LeafStats._p_ints) into
    _ber_poly's int coefficients, so that each t's rhs is one int sum over
    the leaves' common denominator.
    Also emits the coarser exponential form E_leaf[g_t(dens - adv)], from
    leaves grouped once (_g_sum), and certifies it dominates the rhs.
    """
    k = tree.k
    law = block_error_law(tree, direct_product(f, k), product_power(mu, k))
    stats = leaf_stats(tree, f, h, mu)
    laws = [(s.reach, *_ber_poly(s._p_ints())) for s in stats]
    den = lcm(*(r.denominator * b for r, b, _ in laws))
    cdfs = [[r.numerator * (den // (r.denominator * b)) * c for c in accumulate(coeffs)]
            for r, b, coeffs in laws]
    gaps = _groups((s.reach, s.dens_total - s.adv_total) for s in stats)
    reports = []
    for t in range(k + 1):
        lhs = ber_sum_cdf(law, t)
        rhs = Fraction(sum(cdf[t] for cdf in cdfs), den)
        g_form = _g_sum(gaps, t, 1)
        g_dominates = (g_form - rhs).sign() >= 0
        reports.append(_report(
            "accuracy-from-stats", lhs, rhs,
            related=(("g_form", g_form), ("g_form_dominates", g_dominates))))
    return reports


def verify_error_no_advantage(tree: DecisionTree, h: Measure,
                              mu: Distribution) -> BoundReport:
    """Leaf-averaged g at threshold delta*k/10, advantage ignored, against
    the closed form e^{-0.121 delta k}."""
    k = tree.k
    delta = density(h, mu)
    t = delta * k / 10
    lhs = _g_sum(_groups(_reachable_density_stats(tree, h, mu)), t.numerator, t.denominator)
    rhs = ExpSum.exp(-Fraction(121, 1000) * delta * k)
    return _report("error-no-advantage", lhs, rhs,
                   related=(("delta", delta), ("k", k)))


def verify_bounds_from_hardcore(tree: DecisionTree,
                                cert: HardcoreCertificate) -> BoundReport:
    """End of the pipeline: a certified hardcore measure caps the probability
    that a depth-k*d tree gets all but a tenth-of-delta*k fraction of blocks
    right, at e^{-delta*k/10} + 10*gamma.

    delta here is the certified measure's density (half the solver's target).
    The lhs is read off the tree's block_error_law.  Trees over budget are
    reported with hypothesis_ok False, not as failures.
    """
    f, mu, h = cert.f, cert.mu, cert.measure
    if tree.n != f.n:
        raise DimensionMismatch("tree blocks must match the certificate's function")
    k = tree.k
    delta = density(h, mu)
    mu_k = product_power(mu, k)
    hypothesis_ok = expected_depth(tree, mu_k) <= k * cert.depth_budget

    t = delta * k / 10
    lhs = ber_sum_cdf(block_error_law(tree, direct_product(f, k), mu_k), t)
    rhs = ExpSum.exp(-t) + 10 * cert.gamma
    return _report("bounds-from-hardcore", lhs, rhs,
                   hypothesis_ok=hypothesis_ok,
                   related=(("delta", delta), ("k", k),
                            ("gamma_vacuous", cert.gamma >= Fraction(1, 10))))


# ---------------------------------------------------------------------------
# structural laws


def verify_leaf_product(tree: DecisionTree, mu: Distribution) -> BoundReport:
    """Conditional input law at each reachable leaf factors across blocks.

    lhs is the total absolute deviation, over every reachable leaf and every
    point p of its cube, between the conditional joint mu^k(p)/reach and the
    product of the k per-block factors from conditional_blocks_at_leaf; the
    law holds iff it is exactly 0.  It is summed on ints, point by point and
    never factored: with mu's scaled ints m, the joint is prod m[p_i] and
    reach its sum over the cube; with factor i's scaled ints L over D_i, both
    kept from where the laws were built and not rescaled, a leaf adds the sum of
    |joint * prod D_i - prod L_i[p_i] * reach| over reach * prod D_i.
    """
    n, k = tree.n, tree.k
    if mu.n != n:
        raise DimensionMismatch("verify_leaf_product expects single-block mu")
    weights = mu.scaled[1]
    mask_n = (1 << n) - 1
    shifts = range(0, n * k, n)
    deviation = _ZERO
    for ref in leaves(tree):
        cube = [[(p >> s) & mask_n for s in shifts]
                for p in cube_points(tree.total_vars, ref.fixed_mask, ref.fixed_vals)]
        joints = [prod(weights[b] for b in blocks) for blocks in cube]
        reach = sum(joints)
        if reach == 0:
            continue
        scales, factors = zip(*(d.scaled for d in conditional_blocks_at_leaf(tree, mu, ref)))
        den = prod(scales)
        total = sum(abs(joint * den - prod(fac[b] for fac, b in zip(factors, blocks)) * reach)
                    for blocks, joint in zip(cube, joints))
        deviation += Fraction(total, reach * den)
    return _report("leaf-product-law", deviation, _ZERO)


def verify_embedding(tree: DecisionTree, f: BooleanFunction, h: Measure,
                     mu: Distribution) -> list[BoundReport]:
    """Exact identities of the block embedding on a sign-fixed source tree:
    k times the small tree's expected depth equals the large tree's, and k
    times its h-weighted correlation with f equals the expected total leaf
    advantage."""
    k = tree.k
    mu_k = product_power(mu, k)
    small = embed_block_reduction(tree, mu)

    depth_lhs = k * expected_depth(small, mu)
    depth_rhs = expected_depth(tree, mu_k)

    corr = correlation(small, f, mu, h)
    adv = sum((s.reach * s.adv_total for s in leaf_stats(tree, f, h, mu)), _ZERO)
    return [
        _equality_report("embedding-depth-identity", depth_lhs, depth_rhs),
        _equality_report("embedding-advantage-identity", k * corr, adv),
    ]


def verify_product_tree(t_xor: DecisionTree, f: BooleanFunction,
                        mu: Distribution, k: int) -> BoundReport:
    """Vector success probability of the relabeled tree dominates the scalar
    correlation with the XOR of the blocks."""
    mu_k = product_power(mu, k)
    t_prod = product_tree(t_xor, f, mu, k)
    lhs = correlation(t_xor, xor_power(f, k), mu_k)
    rhs = 1 - error(t_prod, direct_product(f, k), mu_k)
    return _report("product-tree-success", lhs, rhs)


def verify_parity_leaf_error(tree: DecisionTree) -> BoundReport:
    """Every leaf that leaves a block's parity undetermined errs on that block
    with conditional probability exactly 1/2 under the uniform distribution.

    lhs is the largest absolute deviation from 1/2 over all such (leaf, block)
    pairs; the claim holds iff it is exactly 0.
    """
    n, k = tree.n, tree.k
    par = parity(n)
    mask_n = (1 << n) - 1
    worst = _ZERO
    checked = 0
    for ref in leaves(tree):
        cube = list(cube_points(tree.total_vars, ref.fixed_mask, ref.fixed_vals))
        for i in range(k):
            if (ref.fixed_mask >> (i * n)) & mask_n == mask_n:  # parity determined
                continue
            wrong = sum(1 for p in cube
                        if ref.label[i] != par.table[(p >> (i * n)) & mask_n])
            worst = max(worst, abs(Fraction(wrong, len(cube)) - Fraction(1, 2)))
            checked += 1
    return _report("parity-shallow-leaf-error", worst, _ZERO,
                   related=(("pairs_checked", checked),))


def parity_counterexample(n: int, k: int, gamma) -> tuple[RandomizedTree, BoundReport]:
    """The mixture that queries everything with probability gamma: expected
    depth exactly gamma*k*n and vector error exactly (1-gamma)(1-2^-k) on the
    uniform product, with the shallow-leaf half-error law checked on every
    component."""
    gamma = Fraction(gamma)
    rt = parity_mixture(n, k, gamma)
    mu_k = product_power(uniform(n), k)
    target = direct_product(parity(n), k)

    depth = expected_depth(rt, mu_k)
    err = error(rt, target, mu_k)
    depth_target = gamma * k * n
    err_target = (1 - gamma) * (1 - Fraction(1, 2 ** k))
    shallow_ok = all(verify_parity_leaf_error(t).holds for _, t in rt.components)

    report = BoundReport(
        "parity-mixture-claim", ExpSum.of(err), ExpSum.of(err_target),
        err == err_target and depth == depth_target and shallow_ok,
        related=(("expected_depth", depth), ("depth_target", depth_target),
                 ("shallow_leaf_law", shallow_ok)))
    return rt, report


def xor_vs_product_gap(f: BooleanFunction, mu: Distribution, k: int, eps) -> BoundReport:
    """Halving the error budget, the XOR of k blocks is at least as deep as
    the k-block direct product; also records that the XOR task is free at
    error 1/2."""
    eps = Fraction(eps)
    if not 0 <= eps <= Fraction(1, 2):
        raise InvalidValue("eps must lie in [0,1/2]")
    mu_k = product_power(mu, k)
    fx = pareto_frontier(xor_power(f, k), mu_k)
    fp = pareto_frontier(direct_product(f, k), mu_k)
    lhs = opt_depth(fp, eps)
    rhs = opt_depth(fx, eps / 2)
    return _report("xor-vs-product-depth", lhs, rhs,
                   related=(("xor_depth_at_half", opt_depth(fx, Fraction(1, 2))),))


def constant_chain_reports() -> list[BoundReport]:
    """Standalone numeric facts the closed forms lean on: e^{-1/4} <= 779/1000
    and the residual rate 9/10 - e^{-1/4} >= 121/1000."""
    quarter = ExpSum.exp(Fraction(-1, 4))
    return [
        _report("exp-quarter-upper", quarter, Fraction(779, 1000)),
        _report("exp-rate-constant", Fraction(121, 1000), Fraction(9, 10) - quarter),
    ]
