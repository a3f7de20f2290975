"""Hardcore-measure game: certificates of low advantage, or boosted committees.

The game pits measures H (0 <= H <= 1 pointwise, density exactly delta/2
under mu) against randomized decision trees of expected depth at most d; the
payoff is E_mu[f * T * H].  If the value is at most gamma*delta/2 the optimal
H is a hardcore measure and we emit a certificate whose best response is
re-derived exactly.  Otherwise the optimal tree mixture correlates with f on
all but a delta/2 fraction of inputs, and an odd majority committee sampled
from it computes f with error at most delta.

Solved by column generation: keep a finite pool of deterministic trees, solve
the restricted game exactly as a pair of rational LPs (one per player), and
grow the pool with exact best responses from the advantage-frontier envelope.
Each restricted solve is certified twice over: the two LP values must agree
exactly (strong duality), the row player's value is re-derived by a greedy
closed form, and the column player's value by envelope enumeration.  A wrong
LP answer therefore cannot escape the solver.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from sympy import Rational
from sympy.solvers.simplex import linprog as _sympy_linprog

from .errors import BoostFailure, DimensionMismatch, InvalidValue, IterationBudget
from .exactexp import ExpSum, fraction_from_str, fraction_to_str
from .functions import (
    BooleanFunction,
    Distribution,
    Measure,
    constant_measure,
    density,
    function_from_json,
    function_to_json,
    distribution_from_json,
    distribution_to_json,
    measure_from_json,
    measure_to_json,
)
from .synth import ADVANTAGE, mixture_optimum, opt_objective_witness, pareto_frontier
from .trees import (
    DecisionTree,
    RandomizedTree,
    evaluate,
    expected_depth,
    randomized_tree_from_json,
    randomized_tree_to_json,
    tree_from_json,
    tree_to_json,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

DEFAULT_MAX_ITERATIONS = 64
DEFAULT_BOOST_CONSTANT = 8
DEFAULT_RETRY_CAP = 16


@dataclass(frozen=True)
class BestResponse:
    advantage: Fraction
    components: tuple[tuple[Fraction, DecisionTree], ...]

    def as_randomized(self) -> RandomizedTree:
        return RandomizedTree(self.components)


@dataclass(frozen=True)
class HardcoreCertificate:
    """A measure no depth-budgeted tree mixture correlates with beyond gamma*delta/2."""

    f: BooleanFunction
    mu: Distribution
    measure: Measure
    delta: Fraction
    gamma: Fraction
    depth_budget: Fraction
    best_response_advantage: Fraction
    witness: RandomizedTree
    iterations: int


@dataclass(frozen=True)
class Committee:
    """Odd-size sample of trees whose pointwise majority computes f well."""

    f: BooleanFunction
    mu: Distribution
    trees: tuple[DecisionTree, ...]
    delta: Fraction
    gamma: Fraction
    depth_budget: Fraction
    seed: int
    iterations: int

    def __post_init__(self):
        if len(self.trees) % 2 != 1:
            raise InvalidValue("committee size must be odd")

    @property
    def r(self) -> int:
        return len(self.trees)


# ---------------------------------------------------------------------------
# exact LP plumbing


def _to_rational(q: Fraction) -> Rational:
    return Rational(q.numerator, q.denominator)


def _to_fraction(v) -> Fraction:
    r = Rational(v)
    return Fraction(int(r.p), int(r.q))


def _solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds):
    """Exact rational LP: min c*x, A_ub x <= b_ub, A_eq x = b_eq, var bounds.

    sympy's linprog bounds layer is unsound for variables that may go
    negative (the standard form's x >= 0 leaks through its rewrite, e.g.
    min x s.t. x >= -5 with free bounds returns 0), so the change of
    variables to the nonnegative orthant happens here and sympy only ever
    sees default bounds.
    """
    cols = []       # per variable: ((column, sign), ...) with x = offset + sum
    offsets = []
    caps = []       # (column, cap): z_col <= cap rows for finite upper bounds
    ncols = 0
    for lo, ub in bounds:
        if lo is None and ub is None:
            cols.append(((ncols, _ONE), (ncols + 1, -_ONE)))
            offsets.append(_ZERO)
            ncols += 2
        elif lo is None:
            cols.append(((ncols, -_ONE),))
            offsets.append(Fraction(ub))
            ncols += 1
        else:
            cols.append(((ncols, _ONE),))
            offsets.append(Fraction(lo))
            if ub is not None:
                caps.append((ncols, Fraction(ub) - Fraction(lo)))
            ncols += 1

    def expand(row):
        out = [_ZERO] * ncols
        shift = _ZERO
        for coeff, parts, off in zip(row, cols, offsets):
            if coeff == 0:
                continue
            for col, sign in parts:
                out[col] += coeff * sign
            shift += coeff * off
        return out, shift

    c_z, c_shift = expand(c)
    rows_ub, rhs_ub = [], []
    for row, b in zip(a_ub, b_ub):
        r, shift = expand(row)
        rows_ub.append(r)
        rhs_ub.append(b - shift)
    for col, cap in caps:
        r = [_ZERO] * ncols
        r[col] = _ONE
        rows_ub.append(r)
        rhs_ub.append(cap)
    rows_eq, rhs_eq = [], []
    for row, b in zip(a_eq, b_eq):
        r, shift = expand(row)
        rows_eq.append(r)
        rhs_eq.append(b - shift)

    if not rows_ub and not rows_eq:
        # Orthant-only problem; sympy insists on at least one constraint row.
        if any(v < 0 for v in c_z):
            raise InvalidValue("unbounded LP")
        val, zs = _ZERO, [_ZERO] * ncols
    else:
        val, zs = _sympy_linprog(
            [_to_rational(v) for v in c_z],
            [[_to_rational(v) for v in row] for row in rows_ub] or None,
            [_to_rational(v) for v in rhs_ub] or None,
            [[_to_rational(v) for v in row] for row in rows_eq] or None,
            [_to_rational(v) for v in rhs_eq] or None,
        )
        zs = [_to_fraction(v) for v in zs]
    xs = [off + sum((sign * zs[col] for col, sign in parts), _ZERO)
          for parts, off in zip(cols, offsets)]
    return _to_fraction(val) + c_shift, xs


def _payoff_vector(f: BooleanFunction, mu: Distribution, tree: DecisionTree):
    """c_T(x) = mu(x) f(x) T(x), so payoff(H, T) = sum_x c_T(x) H(x)."""
    return tuple(
        mu.weights[x] * f.table[x] * evaluate(tree, x)[0] for x in range(1 << f.n))


def _greedy_min_measure(f, mu, half_density, scores):
    """Exact min of sum_x mu(x) score(x) H(x) over measures of given density.

    Classic fractional fill: put H = 1 on the lowest scores first.  Returns
    (value, H values)."""
    order = sorted(mu.support(), key=lambda x: (scores[x], x))
    values = [_ZERO] * (1 << mu.n)
    remaining = half_density
    value = _ZERO
    for x in order:
        if remaining == 0:
            break
        take = min(mu.weights[x], remaining)
        values[x] = take / mu.weights[x]
        value += take * scores[x]
        remaining -= take
    if remaining != 0:
        raise InvalidValue("density exceeds total distribution mass")
    return value, values


def _restricted_game(f, mu, half_density, budget, pool, payoffs, depths):
    """Exact value and both optimal strategies of the pool-restricted game.

    Returns (value, H, w).  Internally self-checking: primal and dual LP
    values must coincide exactly, and both strategies are re-verified by
    independent evaluations (greedy inner minimum for w, envelope inner
    maximum for H).
    """
    npts = 1 << f.n
    nt = len(pool)

    # Row player: min s + budget*y  s.t.  payoff(H,T) <= s + depth_T * y.
    c = [_ZERO] * npts + [_ONE, budget]
    a_ub = []
    b_ub = []
    for t in range(nt):
        a_ub.append(list(payoffs[t]) + [Fraction(-1), -depths[t]])
        b_ub.append(_ZERO)
    a_eq = [list(mu.weights) + [_ZERO, _ZERO]]
    b_eq = [half_density]
    bounds = [(0, 1)] * npts + [(None, None), (0, None)]
    v_primal, z = _solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds)
    h_values = tuple(z[:npts])

    # Column player: max half*lam - sum(u)  s.t.  w in mixture polytope and
    # lam*mu(x) - u_x <= sum_T w_T c_T(x) pointwise.
    nv = nt + 2 + npts  # w, lam+, lam-, u
    c2 = [_ZERO] * nt + [-half_density, half_density] + [_ONE] * npts
    a_ub2 = [list(depths) + [_ZERO, _ZERO] + [_ZERO] * npts]
    b_ub2 = [budget]
    for x in range(npts):
        row = [-payoffs[t][x] for t in range(nt)]
        row += [mu.weights[x], -mu.weights[x]]
        row += [-_ONE if u == x else _ZERO for u in range(npts)]
        a_ub2.append(row)
        b_ub2.append(_ZERO)
    a_eq2 = [[_ONE] * nt + [_ZERO] * (2 + npts)]
    b_eq2 = [_ONE]
    bounds2 = [(0, None)] * nv
    v_dual_neg, z2 = _solve_lp(c2, a_ub2, b_ub2, a_eq2, b_eq2, bounds2)
    v_dual = -v_dual_neg
    w = tuple(z2[:nt])

    if v_primal != v_dual:
        raise InvalidValue(
            f"strong duality violated: {v_primal} vs {v_dual} (LP kernel bug)")

    # Independent check 1: greedy minimum against the returned mixture.
    scores = [f.table[x] * sum((w[t] * evaluate(pool[t], x)[0] for t in range(nt)), _ZERO)
              for x in range(npts)]
    g_value, _ = _greedy_min_measure(f, mu, half_density, scores)
    if g_value != v_primal:
        raise InvalidValue(
            f"restricted value {v_primal} not reproduced by greedy minimum {g_value}")

    # Independent check 2: envelope maximum against the returned measure.
    pairs = []
    for t in range(nt):
        pay = sum((payoffs[t][x] * h_values[x] for x in range(npts)), _ZERO)
        pairs.append((depths[t], pay, t))
    e_value, _ = mixture_optimum(pairs, budget, minimize=False)
    if e_value != v_primal:
        raise InvalidValue(
            f"restricted value {v_primal} not reproduced by envelope maximum {e_value}")

    return v_primal, Measure(f.n, h_values), w


# ---------------------------------------------------------------------------
# public operations


def best_response(f: BooleanFunction, mu: Distribution, h: Measure,
                  depth_budget: Fraction) -> BestResponse:
    """Exact max of E[f*T*H] over tree mixtures of expected depth <= budget.

    Computed from the advantage frontier; the witness is one frontier tree or
    a two-point mixture when the optimum sits inside an envelope segment.
    """
    frontier = pareto_frontier(f, mu, ADVANTAGE, h=h)
    value, witness = opt_objective_witness(frontier, depth_budget)
    return BestResponse(value, witness)


def committee_size(delta: Fraction, gamma: Fraction,
                   constant: int = DEFAULT_BOOST_CONSTANT) -> int:
    """Smallest odd r with e^{r * gamma^2 / constant} >= 1/delta.  Each
    candidate is decided by a certified ExpSum sign; a float log only picks
    the first candidate."""
    delta, gamma = Fraction(delta), Fraction(gamma)
    if delta <= 0 or gamma <= 0 or constant <= 0:
        raise InvalidValue("committee_size needs positive delta, gamma and constant")

    def passes(r: int) -> bool:
        return (ExpSum.exp(r * gamma ** 2 / constant) - 1 / delta).sign() >= 0

    r = max(1, math.ceil(constant * math.log(1 / float(delta)) / float(gamma) ** 2))
    r += 1 - r % 2
    while not passes(r):
        r += 2
    while r > 1 and passes(r - 2):
        r -= 2
    return r


def committee_metrics(committee: Committee, f: BooleanFunction,
                      mu: Distribution) -> tuple[Fraction, Fraction]:
    """(exact pointwise majority error, summed expected depth of all members)."""
    if f.n != mu.n:
        raise DimensionMismatch("function and distribution sizes differ")
    err = _ZERO
    for x in mu.support():
        votes = sum(evaluate(t, x)[0] for t in committee.trees)
        maj = 1 if votes > 0 else -1
        if maj != f.table[x]:
            err += mu.weights[x]
    cost = sum((expected_depth(t, mu) for t in committee.trees), _ZERO)
    return err, cost


def maj_boost(weighted_trees, f: BooleanFunction, mu: Distribution,
              delta: Fraction, gamma: Fraction, depth_budget: Fraction, *,
              seed: int = 0, constant: int = DEFAULT_BOOST_CONSTANT,
              retry_cap: int = DEFAULT_RETRY_CAP, iterations: int = 0) -> Committee:
    """Sample an odd committee i.i.d. from the dual mixture and keep the first
    sample whose exact error is <= delta and whose summed expected depth is
    <= r * depth_budget; raise BoostFailure if the retry cap runs out."""
    items = [(w, t) for w, t in weighted_trees if w > 0]
    if not items:
        raise InvalidValue("empty tree mixture")
    r = committee_size(delta, gamma, constant)
    rng = random.Random(seed)

    def draw():
        u = Fraction(rng.random())
        acc = _ZERO
        for w, t in items:
            acc += w
            if u < acc:
                return t
        return items[-1][1]

    budget = r * Fraction(depth_budget)
    for _ in range(retry_cap):
        trees = tuple(draw() for _ in range(r))
        committee = Committee(f, mu, trees, Fraction(delta), Fraction(gamma),
                              Fraction(depth_budget), seed, iterations)
        err, cost = committee_metrics(committee, f, mu)
        if err <= delta and cost <= budget:
            return committee
    raise BoostFailure(
        f"no committee with error <= {delta} and cost <= {budget} "
        f"within {retry_cap} samples at seed {seed}")


def hardcore_solve(f: BooleanFunction, mu: Distribution, delta: Fraction,
                   gamma: Fraction, depth_budget: Fraction, *, seed: int = 0,
                   max_iterations: int = DEFAULT_MAX_ITERATIONS,
                   boost_constant: int = DEFAULT_BOOST_CONSTANT,
                   boost_retry_cap: int = DEFAULT_RETRY_CAP):
    """Decide the game at threshold gamma*delta/2.

    Returns a HardcoreCertificate whose measure has density exactly delta/2
    and whose exact best response is at most the threshold, or a Committee
    when the restricted game value already exceeds it (the tree players win).
    Never returns a wrong answer: hitting the iteration cap raises instead.
    """
    delta = Fraction(delta)
    gamma = Fraction(gamma)
    depth_budget = Fraction(depth_budget)
    if not 0 < delta < 1:
        raise InvalidValue(f"delta must lie in (0,1), got {delta}")
    if not 0 < gamma <= 1:
        raise InvalidValue(f"gamma must lie in (0,1], got {gamma}")
    if depth_budget < 0:
        raise InvalidValue("depth budget must be nonnegative")
    if f.n != mu.n:
        raise DimensionMismatch("function and distribution sizes differ")

    half = delta / 2
    threshold = gamma * half

    def certificate(measure, br, iterations):
        return HardcoreCertificate(
            f, mu, measure, delta, gamma, depth_budget,
            br.advantage, br.as_randomized(), iterations)

    h0 = constant_measure(f.n, half)
    br = best_response(f, mu, h0, depth_budget)
    if br.advantage <= threshold:
        return certificate(h0, br, 0)

    pool: list[DecisionTree] = []
    payoffs: list[tuple] = []
    depths: list[Fraction] = []

    def admit(tree):
        if tree not in pool:
            pool.append(tree)
            payoffs.append(_payoff_vector(f, mu, tree))
            depths.append(expected_depth(tree, mu))
            return True
        return False

    for _, t in br.components:
        admit(t)

    for iteration in range(1, max_iterations + 1):
        value, h_r, w = _restricted_game(
            f, mu, half, depth_budget, pool, payoffs, depths)
        if value > threshold:
            return maj_boost(
                list(zip(w, pool)), f, mu, delta, gamma, depth_budget,
                seed=seed, constant=boost_constant, retry_cap=boost_retry_cap,
                iterations=iteration)
        br = best_response(f, mu, h_r, depth_budget)
        if br.advantage <= threshold:
            return certificate(h_r, br, iteration)
        progressed = False
        for _, t in br.components:
            progressed = admit(t) or progressed
        if not progressed:
            raise IterationBudget(
                "best response exceeded the restricted value without new columns")
    raise IterationBudget(f"no decision within {max_iterations} iterations")


def verify_certificate(cert: HardcoreCertificate) -> dict:
    """Re-derive everything a certificate claims; returns a flat report dict."""
    dens = density(cert.measure, cert.mu)
    br = best_response(cert.f, cert.mu, cert.measure, cert.depth_budget)
    witness_adv = sum(
        (w * sum((cert.mu.weights[x] * cert.f.table[x] * cert.measure.values[x]
                  * evaluate(t, x)[0] for x in cert.mu.support()), _ZERO)
         for w, t in cert.witness.components), _ZERO)
    threshold = cert.gamma * cert.delta / 2
    checks = {
        "density_is_half_delta": dens == cert.delta / 2,
        "advantage_at_most_threshold": cert.best_response_advantage <= threshold,
        "fresh_best_response_matches": br.advantage == cert.best_response_advantage,
        "witness_attains_advantage": witness_adv == cert.best_response_advantage,
    }
    checks["ok"] = all(checks.values())
    return checks


# ---------------------------------------------------------------------------
# serialization


def certificate_to_json(cert: HardcoreCertificate) -> dict:
    return {
        "kind": "hardcore_certificate",
        "f": function_to_json(cert.f),
        "mu": distribution_to_json(cert.mu),
        "measure": measure_to_json(cert.measure),
        "delta": fraction_to_str(cert.delta),
        "gamma": fraction_to_str(cert.gamma),
        "depth_budget": fraction_to_str(cert.depth_budget),
        "best_response_advantage": fraction_to_str(cert.best_response_advantage),
        "witness": randomized_tree_to_json(cert.witness),
        "iterations": cert.iterations,
    }


def certificate_from_json(obj: dict) -> HardcoreCertificate:
    return HardcoreCertificate(
        function_from_json(obj["f"]),
        distribution_from_json(obj["mu"]),
        measure_from_json(obj["measure"]),
        fraction_from_str(obj["delta"]),
        fraction_from_str(obj["gamma"]),
        fraction_from_str(obj["depth_budget"]),
        fraction_from_str(obj["best_response_advantage"]),
        randomized_tree_from_json(obj["witness"]),
        int(obj["iterations"]),
    )


def committee_to_json(committee: Committee) -> dict:
    return {
        "kind": "committee",
        "f": function_to_json(committee.f),
        "mu": distribution_to_json(committee.mu),
        "delta": fraction_to_str(committee.delta),
        "gamma": fraction_to_str(committee.gamma),
        "depth_budget": fraction_to_str(committee.depth_budget),
        "seed": committee.seed,
        "iterations": committee.iterations,
        "trees": [tree_to_json(t) for t in committee.trees],
    }


def committee_from_json(obj: dict) -> Committee:
    return Committee(
        function_from_json(obj["f"]),
        distribution_from_json(obj["mu"]),
        tuple(tree_from_json(t) for t in obj["trees"]),
        fraction_from_str(obj["delta"]),
        fraction_from_str(obj["gamma"]),
        fraction_from_str(obj["depth_budget"]),
        int(obj["seed"]),
        int(obj["iterations"]),
    )
