"""Predicted quantities and the time-reversal branching identity.

Includes the two mean-field prediction forms, the lattice density laws with
the escape-probability constant, walker-pair estimation of the tree
avoidance constant, the exponential-stage sampler for the complete-graph
coalescence law, and a Monte Carlo evaluator for the branching-structure
integral that the k-walker coalescence probability reduces to under time
reversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb, factorial, sqrt, pi, log

import numpy as np

from ._flat import chain_walk, walk_pair
from .chains import MarkovChain
from .crw import exact_k_particle_law
from .errors import (
    DegenerateDepth,
    EmptySamples,
    KTooLarge,
    MissingPsi,
    NonpositiveTime,
    ParameterOutOfRange,
)
from .graphs import DegreeDistribution, size_biased
from .seeding import BufferedDraws

__all__ = [
    "Prediction",
    "mean_field_predictions",
    "bg_prediction",
    "estimate_psi_d",
    "estimate_alpha_D",
    "alpha_regular_tree",
    "kingman_tau_coal",
    "enumerate_patterns",
    "branching_integral_mc",
    "reversal_identity_residual",
]


@dataclass(frozen=True)
class Prediction:
    """One predicted value with the inputs it was computed from."""

    label: str
    value: float
    inputs: dict
    stderr: float | None = None

    def __post_init__(self):
        if not self.value > 0.0:
            raise ParameterOutOfRange("predictions must be positive")


def mean_field_predictions(n: int, t: float, t_meet: float, alpha_t: float) -> dict:
    """The two mean-field density predictions at time t.

    A1 = 1 / (t * alpha_t) and A2 = 2 * t_meet / (t * n); the two agree
    exactly when alpha_t = n / (2 * t_meet).
    """
    if t <= 0.0:
        raise NonpositiveTime("predictions need t > 0")
    if alpha_t <= 0.0 or t_meet <= 0.0 or n < 2:
        raise ParameterOutOfRange("need positive alpha_t, t_meet and n >= 2")
    return {
        "A1": Prediction("A1", 1.0 / (t * alpha_t), {"t": t, "alpha_t": alpha_t}),
        "A2": Prediction(
            "A2", 2.0 * t_meet / (t * n), {"t": t, "t_meet": t_meet, "n": n}
        ),
    }


def bg_prediction(d: int, t: float, psi_hat: float | None = None) -> float:
    """Lattice density law for unit-total-rate walkers on Z^d:
    1/sqrt(pi t) in d=1, log(t)/(pi t) in d=2, 1/(psi_d t) for d >= 3."""
    if d < 1:
        raise ParameterOutOfRange("dimension must be >= 1")
    if t <= 0.0 or (d == 2 and t <= 1.0):
        raise NonpositiveTime("time outside the prediction's domain")
    if d == 1:
        return 1.0 / sqrt(pi * t)
    if d == 2:
        return log(t) / (pi * t)
    if psi_hat is None:
        raise MissingPsi("d >= 3 needs an escape-probability estimate")
    return 1.0 / (psi_hat * t)


def estimate_psi_d(
    d: int, horizon_steps: int, reps: int, rng: np.random.Generator
) -> dict:
    """Fraction of discrete simple walks on Z^d with no return to the origin
    within the step horizon.  The jump chain suffices: escape probabilities
    are invariant under the continuous-time embedding.  Finite horizons bias
    the estimate upward.
    """
    if d < 1:
        raise ParameterOutOfRange("dimension must be >= 1")
    if reps < 1:
        raise EmptySamples("need at least one walk")
    pos = np.zeros((reps, d), dtype=np.int32)
    returned = 0
    alive = reps
    for _ in range(horizon_steps):
        if alive == 0:
            break
        moves = rng.integers(0, 2 * d, alive)
        pos[np.arange(alive), moves >> 1] += (moves & 1) * 2 - 1
        back = (pos == 0).all(axis=1)
        nback = int(back.sum())
        if nback:
            returned += nback
            pos = pos[~back]
            alive -= nback
    psi = alive / reps
    return {
        "psi_hat": psi,
        "stderr": sqrt(psi * (1.0 - psi) / reps),
        "upper_biased": True,
        "horizon_steps": horizon_steps,
    }


class _LazyTree:
    """Rooted tree grown on demand: root child count from D, every other
    vertex's child count from the size-biased law.  A jump to a vertex
    deeper than ``max_depth`` returns -1, which ends a two-walker run."""

    __slots__ = ("deg", "parent", "depth", "children", "dist", "draws", "max_depth")

    def __init__(self, root_degree, dist_star, draws, max_depth):
        self.max_depth = max_depth
        self.deg = [root_degree]
        self.parent = [-1]
        self.depth = [0]
        self.children = [None]
        self.dist = dist_star
        self.draws = draws

    def _kids(self, v):
        kids = self.children[v]
        if kids is None:
            n_kids = self.deg[v] if v == 0 else self.deg[v] - 1
            kids = []
            for _ in range(n_kids):
                w = len(self.deg)
                # offspring count + parent edge gives the child's degree
                off = _sample_discrete(self.dist, self.draws.u01())
                self.deg.append(off + 1)
                self.parent.append(v)
                self.depth.append(self.depth[v] + 1)
                self.children.append(None)
                kids.append(w)
            self.children[v] = kids
        return kids

    def neighbor(self, v, u):
        j = int(u * self.deg[v])
        if v == 0:
            return self._kids(v)[j]
        if j == 0:
            return self.parent[v]
        # the children are grown even on an exit, so the stream stays fixed
        w = self._kids(v)[j - 1]
        return w if self.depth[w] <= self.max_depth else -1


def _sample_discrete(pairs, u):
    # pairs = [(value, cumulative probability)]
    for value, cum in pairs:
        if u < cum:
            return value
    return pairs[-1][0]


def _cumulative(dist: DegreeDistribution):
    acc = 0.0
    out = []
    for d, p in dist.support:
        acc += p
        out.append((d, acc))
    return out


def estimate_alpha_D(
    D: DegreeDistribution,
    depth: int,
    t_horizon: float,
    reps: int,
    rng: np.random.Generator,
) -> dict:
    """Root-degree-weighted no-meeting probability on the random tree.

    Runs two walkers from the root and a uniform root neighbor on a fresh
    lazily grown tree per replicate, stopping at the first of: meeting,
    either walker leaving the radius-``depth`` ball (scored as never
    meeting, by transience), or the time horizon.  Horizon-censored pairs
    still inside the ball are scored as surviving in ``alpha_hat`` and as
    meeting in ``alpha_low``; the bracket and censoring fraction are
    reported.
    """
    if depth < 3:
        raise DegenerateDepth("depth ball must have radius >= 3")
    if reps < 1:
        raise EmptySamples("need at least one replicate")
    cum_root = _cumulative(D)
    cum_star = _cumulative(size_biased(D))
    draws = BufferedDraws(rng, block=1 << 16)
    s_hi = s_hi2 = 0.0
    s_lo = s_lo2 = 0.0
    censored = 0
    for _ in range(reps):
        k_root = _sample_discrete(cum_root, draws.u01())
        tree = _LazyTree(k_root, cum_star, draws, depth)
        b = tree.neighbor(0, draws.u01())
        outcome = walk_pair(tree.deg, tree.neighbor, 0, b, draws, t_max=t_horizon)[0]
        # "killed": a walker left the ball; "time": censored at the horizon
        hi = float(k_root) if outcome != "meet" else 0.0
        lo = float(k_root) if outcome == "killed" else 0.0
        censored += outcome == "time"
        s_hi += hi
        s_hi2 += hi * hi
        s_lo += lo
        s_lo2 += lo * lo
    mean_hi = s_hi / reps
    mean_lo = s_lo / reps
    var_hi = max(0.0, s_hi2 / reps - mean_hi**2)
    return {
        "alpha_hat": mean_hi,
        "stderr": sqrt(var_hi / reps),
        "alpha_low": mean_lo,
        "alpha_high": mean_hi,
        "censored_fraction": censored / reps,
    }


def alpha_regular_tree(d: int) -> float:
    """alpha(delta_d) exactly: d(d - 2)/(d - 1), the limit of
    ``estimate_alpha_D`` on ``DegreeDistribution.delta(d)``.

    The distance between two walkers on the d-regular tree steps down at
    rate 2 and up at rate 2(d - 1), so from 1 it ever reaches 0 with
    probability 1/(d - 1); the root weight d multiplies the rest.
    """
    if d != int(d) or d < 3:
        raise ParameterOutOfRange("the d-regular tree needs an integer d >= 3")
    return d * (d - 2) / (d - 1)


def kingman_tau_coal(
    n: int, M: float, reps: int, rng: np.random.Generator
) -> dict:
    """Samples of M * sum_{k=2..n} tau_k / C(k,2) with tau_k i.i.d. Exp(1),
    the exact complete-graph coalescence law when M is the mean pair meeting
    time from distinct starts; analytic mean 2 M (1 - 1/n)."""
    if n < 2 or M <= 0.0 or reps < 1:
        raise ParameterOutOfRange("need n >= 2, M > 0 and reps >= 1")
    inv_rates = np.array([1.0 / comb(k, 2) for k in range(2, n + 1)])
    taus = rng.standard_exponential((reps, n - 1))
    return {
        "samples": M * taus @ inv_rates,
        "mean_analytic": 2.0 * M * (1.0 - 1.0 / n),
    }


def enumerate_patterns(k: int) -> list[list[int]]:
    """All branching index vectors [i_0..i_k] with i_0 = 0 and
    0 <= i_l <= l-1, in lexicographic order; there are k! of them."""
    if k < 1 or k > 6:
        raise KTooLarge("pattern enumeration supported for 1 <= k <= 6")
    return [[0, *rest] for rest in product(*(range(max(1, l)) for l in range(1, k + 1)))]


def branching_integral_mc(
    c: MarkovChain, k: int, t: float, reps: int, rng: np.random.Generator
) -> dict:
    """Monte Carlo value of the summed branching-structure integral.

    Each sample draws ordered branch times uniformly on the simplex (sorted
    uniforms), a branching pattern uniformly (importance weight k!), grows
    the walker family with each newborn placed at a random neighbor of its
    parent, and scores the product of parent jump rates if no two walkers
    ever share a vertex on their common lifetime.  The estimator is
    t^k * mean(score), unbiased for the pattern-summed integral.
    """
    if k < 1 or k > 3:
        raise KTooLarge("branching Monte Carlo supported for 1 <= k <= 3")
    if t < 0.0:
        raise ParameterOutOfRange("t must be nonnegative")
    if t == 0.0:
        return {"estimate": 0.0, "stderr": 0.0}
    patterns = enumerate_patterns(k)
    row_rates, neighbor = chain_walk(c)
    draws = BufferedDraws(rng, block=1 << 16)
    n = c.n
    s1 = s2 = 0.0
    for _ in range(reps):
        ts = sorted(draws.u01() * t for _ in range(k))
        pattern = patterns[int(draws.u01() * len(patterns))]
        score = _branching_score(n, row_rates, neighbor, ts, pattern, t, draws)
        s1 += score
        s2 += score * score
    mean = s1 / reps
    var = max(0.0, s2 / reps - mean * mean)
    scale = t**k
    return {"estimate": scale * mean, "stderr": scale * sqrt(var / reps)}


def _branching_score(n, row_rates, neighbor, ts, pattern, t, draws) -> float:
    pos = [int(draws.u01() * n)]
    weight = 1.0
    clock = 0.0
    next_birth = 0
    k = len(ts)
    while True:
        total = 0.0
        for p in pos:
            total += row_rates[p]
        t_jump = clock + draws.expo() / total
        while next_birth < k and ts[next_birth] <= min(t_jump, t):
            clock = ts[next_birth]
            parent = pos[pattern[next_birth + 1]]
            weight *= row_rates[parent]
            born = neighbor(parent, draws.u01())
            if born in pos:
                return 0.0
            pos.append(born)
            next_birth += 1
            total = 0.0
            for p in pos:
                total += row_rates[p]
            t_jump = clock + draws.expo() / total
        if t_jump > t:
            return weight
        clock = t_jump
        u = draws.u01() * total
        acc = 0.0
        for i, p in enumerate(pos):
            acc += row_rates[p]
            if u < acc:
                break
        new = neighbor(pos[i], draws.u01())
        for j, q in enumerate(pos):
            if j != i and q == new:
                return 0.0
        pos[i] = new


def reversal_identity_residual(
    c: MarkovChain, k: int, t: float, reps: int, rng: np.random.Generator
) -> dict:
    """Standardized gap between (k+1)! times the branching-integral Monte
    Carlo and the exact joint probability that k+1 independent uniform
    walkers start pairwise distinct and coalesce by t, scaled by n^k."""
    mc = branching_integral_mc(c, k, t, reps, rng)
    fact = factorial(k + 1)
    lhs = fact * mc["estimate"]
    se = fact * mc["stderr"]
    cond = exact_k_particle_law(c, k, t, start="distinct")["p_coal"]
    n = c.n
    p_distinct = 1.0
    for j in range(1, k + 1):
        p_distinct *= 1.0 - j / n
    exact = (n**k) * cond * p_distinct
    if se == 0.0:
        resid = 0.0 if abs(lhs - exact) < 1e-12 else float("inf")
    else:
        resid = abs(lhs - exact) / se
    return {"residual": resid, "mc": lhs, "exact": exact, "stderr": se}

