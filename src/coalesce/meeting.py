"""Meeting-time and hitting-time functionals.

Exact quantities come from one hitting-time solve (conjugate gradients on
the sparse generator) and one killed uniformization, applied to a single
chain or to a two-walker chain killed where the walkers meet: the product
chain (a sparse Kronecker sum of ``MarkovChain.generator()`` on states
x * n + y, killed on its diagonal) or, on a chain whose rates an abelian
group translates (``chains.translation_group``), the n-state difference
walk Y - X killed at the identity.  Nothing reads a dense rate matrix.
Monte Carlo fallbacks for graphs beyond the exact caps run blocks of walker
pairs on the two-walker kernel ``_flat.walk_pairs``, which uniformizes both
walkers at the walk's largest rate and reports the events it used and the
thinned stays among them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._flat import (
    MEET,
    PAIR_BLOCK,
    TIME,
    FlatGraph,
    chain_pick,
    check_count,
    check_grid,
    check_subset,
    check_vertex,
    graph_pick,
    walk_pairs,
)
from .chains import (MarkovChain, _pair_generator, build_generator, spectrum,
                     translation_group, uniformize)
from .errors import (
    BadSubset,
    CoalesceError,
    NotConnected,
    NotTransitive,
    ParameterOutOfRange,
    TooLargeForExact,
)
from .graphs import Graph, is_connected

__all__ = [
    "MeetingProfile",
    "ExitMeasure",
    "pairwise_meeting_times",
    "mean_meeting_time",
    "alpha_survival",
    "exit_measure",
    "kac_residual",
    "aldous_brown_check",
    "eigentime_residual",
    "mc_pair_meeting",
]

_PAIR_CAP = 250_000
# relative residual at which conjugate gradients stop
_CG_RTOL = 1e-13


@dataclass(frozen=True, eq=False)
class MeetingProfile:
    """Expected pairwise meeting times and their stationary averages.

    ``residual`` is the max residual of the hitting-time system solved: the
    pair chain's n(n - 1) unknowns, or the difference walk's n - 1 on a
    chain with a translation group.
    """

    pairwise: np.ndarray
    t_meet_pi: float
    t_meet_distinct: float
    residual: float


def _difference_generator(c: MarkovChain, add):
    """Sparse generator of Y - X for two independent copies of a chain whose
    rates are translation invariant: the difference moves by g when Y moves
    by g or X by -g, at rate r(0, g) + r(0, -g) = 2 r(0, g)."""
    n = c.n
    ids = np.arange(n, dtype=np.int64)
    gens, base = c.row(0)
    rows = np.concatenate([np.repeat(ids, gens.size), ids])
    cols = np.concatenate([add(np.repeat(ids, gens.size), np.tile(gens, n)), ids])
    data = np.concatenate([np.tile(2.0 * base, n), np.full(n, -2.0 * c.row_rates[0])])
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def _hitting_times(q, mask):
    """Expected hitting times of the states in mask (zero there) for the
    sparse generator q, and the max residual of the linear solve.

    q is symmetric and irreducible, so -q restricted to the complement of
    mask is positive definite and conjugate gradients solve it with one
    sparse product per iteration and no factorization."""
    sub = -q[~mask][:, ~mask]
    b = np.ones(sub.shape[0])
    # info is 0 on convergence, else the number of iterations run
    sol, info = spla.cg(sub, b, rtol=_CG_RTOL)
    residual = float(np.abs(sub @ sol - b).max(initial=0.0))
    if info != 0:
        raise CoalesceError(
            f"conjugate gradients did not converge: {info} iterations, "
            f"residual {residual:.3g}"
        )
    h = np.zeros(len(mask))
    h[~mask] = sol
    return h, residual


def _survival(q, mask, mu0, times, tol=1e-12):
    """P(mask not hit by each time) from the law mu0 for the sparse
    generator q, by uniformizing the chain killed on mask at the largest
    total rate in q.  Returns the values, the term count and the dropped
    Poisson tail mass."""
    lam = float(-q.diagonal().min())
    kernel = q / lam
    kernel.setdiag(kernel.diagonal() + 1.0)

    def step(v):
        # q is symmetric, so kernel @ v moves the law v by one jump
        v = kernel @ v
        v[mask] = 0.0
        return v

    acc, terms, tail = uniformize(step, np.where(mask, 0.0, mu0), lam, times, tol)
    return [float(a[~mask].sum()) for a in acc], terms, tail


def pairwise_meeting_times(c: MarkovChain) -> MeetingProfile:
    """Expected meeting time for every ordered starting pair.

    One hitting-time solve on the pair chain, or on the difference walk when
    ``translation_group`` finds one (n - 1 unknowns instead of n(n - 1);
    ``pairwise[x, y]`` is then the hitting time of the identity from
    y - x).  Capped at n^2 pair states either way, the size of the matrix
    returned.
    """
    n = c.n
    if n * n > _PAIR_CAP:
        raise TooLargeForExact("pair state space capped at 250000")
    group = translation_group(c)
    if group is None:
        h, residual = _hitting_times(_pair_generator(c), np.eye(n, dtype=bool).ravel())
        pairwise = h.reshape(n, n)
    else:
        add, neg = group
        ids = np.arange(n, dtype=np.int64)
        h, residual = _hitting_times(_difference_generator(c, add), ids == 0)
        pairwise = h[add(ids[None, :], neg(ids[:, None]))]
    t_pi = float(pairwise.sum() / (n * n))
    t_distinct = float(pairwise.sum() / (n * (n - 1)))
    return MeetingProfile(
        pairwise=pairwise,
        t_meet_pi=t_pi,
        t_meet_distinct=t_distinct,
        residual=residual,
    )


def mean_meeting_time(c: MarkovChain, mode: str = "pi_pi") -> float:
    """Mean meeting time under independent uniform starts.

    pi_pi averages over all ordered pairs including the zero diagonal;
    distinct conditions on unequal starts.
    """
    profile = pairwise_meeting_times(c)
    if mode == "pi_pi":
        return profile.t_meet_pi
    if mode == "distinct":
        return profile.t_meet_distinct
    raise ParameterOutOfRange(f"unknown mode {mode!r}")


def alpha_survival(
    c,
    x: int,
    t: float,
    mode: str = "exact",
    reps: int = 10_000,
    rng: np.random.Generator | None = None,
) -> dict:
    """Rate-weighted no-meeting probability for walkers from x and a random
    neighbor of x: r(x) * P(no meeting by t).

    Accepts a chain or a graph (per-edge-unit rates).  exact mode runs
    killed-pair uniformization on the n^2 pair states, or on the n states of
    the difference walk when ``translation_group`` finds one (capped at
    250000 states either way); mc mode runs ``reps`` pairs on the
    two-walker kernel ``_flat.walk_pairs`` with the chain's Walker alias
    tables, in blocks of ``PAIR_BLOCK``, and returns a 95% normal interval,
    the uniformized ``events`` the pairs used and the ``thinned`` stays
    among them (none when every row has the same total rate).
    """
    if isinstance(c, Graph):
        c = build_generator(c)
    [t] = check_grid([t], "t")
    x = check_vertex(x, c.n, "x")
    rx = float(c.row_rates[x])
    nbrs, rates = c.row(x)
    if mode == "exact":
        group = translation_group(c)
        if group is None:
            if c.n * c.n > _PAIR_CAP:
                raise TooLargeForExact("exact alpha capped at 250000 pair states")
            mu0 = np.zeros((c.n, c.n))
            mu0[x, nbrs] = rates / rx
            diag = np.eye(c.n, dtype=bool).ravel()
            surv, terms, tail = _survival(_pair_generator(c), diag, mu0.ravel(), [t])
        else:
            if c.n > _PAIR_CAP:
                raise TooLargeForExact("exact alpha capped at 250000 difference states")
            # the neighbour sits at x + g with probability r(0, g) / r(x)
            mu0 = np.bincount(*c.row(0), c.n) / rx
            surv, terms, tail = _survival(_difference_generator(c, group[0]),
                                          np.arange(c.n) == 0, mu0, [t])
        return {"value": rx * surv[0], "stderr": 0.0, "terms": terms,
                "tail_mass": tail}
    if mode != "mc":
        raise ParameterOutOfRange(f"unknown mode {mode!r}")
    if rng is None:
        raise ParameterOutOfRange("mc mode needs an rng")
    check_count(reps)
    r_max, pick = chain_pick(c)
    law = rates / rx
    hits = events = thinned = 0
    for lo in range(0, reps, PAIR_BLOCK):
        a = np.full(min(PAIR_BLOCK, reps - lo), x, dtype=np.int64)
        b = rng.choice(nbrs, a.size, p=law)
        outcome, _, used, stays = walk_pairs(r_max, pick, a, b, rng, t_max=t)
        hits += int(np.count_nonzero(outcome == TIME))
        events += int(used.sum())
        thinned += int(stays.sum())
    p = hits / reps
    se = (p * (1.0 - p) / reps) ** 0.5
    return {
        "value": rx * p,
        "stderr": rx * se,
        "ci95": (rx * (p - 1.96 * se), rx * (p + 1.96 * se)),
        "events": events,
        "thinned": thinned,
    }


@dataclass(frozen=True, eq=False)
class ExitMeasure:
    A: tuple
    weights: np.ndarray
    Q_A: float


def exit_measure(c: MarkovChain, A) -> ExitMeasure:
    """Stationary exit law from A onto its complement, with the exit flow."""
    mask = _subset_mask(c.n, A)
    pi = 1.0 / c.n
    rows, cols, rates = c.entries()
    out = mask[rows] & ~mask[cols]
    flow = pi * rates[out].sum()
    # the rate into each state of the complement, summed in row order
    weights = pi * np.bincount(cols[out], rates[out], c.n) / flow
    A = tuple(int(a) for a in np.flatnonzero(mask))
    return ExitMeasure(A=A, weights=weights, Q_A=float(flow))


def _subset_mask(n: int, A) -> np.ndarray:
    A = check_subset(A, n, "A")
    if not A or len(A) >= n:
        raise BadSubset("A must be a proper nonempty subset")
    mask = np.zeros(n, dtype=bool)
    mask[list(A)] = True
    return mask


def kac_residual(c: MarkovChain, A) -> float:
    """Defect of the stationary flow identity
    pi(A^c) = Q(A, A^c) * E_{exit law}(T_A); zero for exact arithmetic."""
    mask = _subset_mask(c.n, A)
    em = exit_measure(c, A)
    h = _hitting_times(c.generator(), mask)[0]
    lhs = 1.0 - mask.sum() / c.n
    rhs = em.Q_A * float(em.weights @ h)
    return abs(lhs - rhs)


def aldous_brown_check(c: MarkovChain, A, t_grid) -> list[dict]:
    """Margins of the exponential-approximation bounds for T_A under the
    stationary start: tail bound |P(T_A > t) - exp(-t/E)| <= t_rel/E and the
    density envelope, with the density obtained by central differences of
    the exact survival curve."""
    mask = _subset_mask(c.n, A)
    q = c.generator()
    h = _hitting_times(q, mask)[0]
    e_pi = float(h.mean())
    t_rel = spectrum(c).t_rel
    # any order; check_grid wants its grid sorted, so each time alone
    t_grid = [check_grid([t], "t_grid")[0] for t in t_grid]
    # one survival curve at every t - h, t, t + h; uniformization weighs
    # each time separately, so each value equals its own single-time call
    hsteps = {t: min(1e-4, t / 100.0) for t in t_grid if t > 0.0}
    times = [s for t, dt in hsteps.items() for s in (t - dt, t, t + dt)]
    curve = _survival(q, mask, np.full(c.n, 1.0 / c.n), times)[0] if times else []
    surv = dict(zip(times, curve))
    report = []
    for t in t_grid:
        if t == 0.0:
            s0 = 1.0 - mask.sum() / c.n
            # reported as t = 0.0, also for an entry -0.0
            t, gap, above, below = 0.0, abs(s0 - 1.0), float("inf"), float("inf")
        else:
            hstep = hsteps[t]
            dens = (surv[t - hstep] - surv[t + hstep]) / (2.0 * hstep)
            gap = abs(surv[t] - np.exp(-t / e_pi))
            above = (1.0 / e_pi) * (1.0 + t_rel / (2.0 * t)) - dens
            below = dens - (1.0 / e_pi) * (1.0 - (2.0 * t_rel + t) / e_pi)
        report.append({"t": t, "margin_tail": t_rel / e_pi - gap,
                       "margin_density_upper": above, "margin_density_lower": below})
    return report


def eigentime_residual(c: MarkovChain, assume_transitive: bool = False) -> float:
    """|sum of inverse nonzero eigenvalues - 2 * mean meeting time|, the
    two sides computed independently; valid for transitive chains."""
    if not (c.transitive or assume_transitive):
        raise NotTransitive("eigentime identity needs a transitive chain")
    spec = spectrum(c)
    profile = pairwise_meeting_times(c)
    return abs(spec.eigentime_sum() - 2.0 * profile.t_meet_pi)


def mc_pair_meeting(
    g: Graph,
    reps: int,
    rng: np.random.Generator,
    convention: str = "per_edge_unit",
    horizon_events: int | None = None,
) -> dict:
    """Monte Carlo mean meeting time from independent uniform starts.

    Runs ``reps`` pairs on the two-walker kernel ``_flat.walk_pairs``, in
    blocks of ``PAIR_BLOCK``.  The walks are uniformized at the largest
    rate r_max, so ``horizon_events``, a positive integer, is a budget of
    uniformized events per pair, thinned stays included; the default is
    200 n r_max / r_min^2.  Each event is a real jump with probability at
    least r_min / r_max, so the default allows on average at least the
    200 n / r_min real jumps of a budget counted in jumps, and equals
    200 n / r on an r-regular graph, where nothing is thinned.  ``events``
    counts the events the pairs used and ``thinned`` the stays among them.

    Censored runs are excluded from ``mean`` and ``stderr`` and counted in
    ``censored`` and ``censored_fraction``.  ``mean_lower`` averages over
    all ``reps`` pairs, each censored one at the clock of its last event:
    a pair meets after that clock, so ``mean_lower``'s expectation is at
    most the mean meeting time, whatever the horizon.  It equals ``mean``
    when nothing is censored.
    """
    check_count(reps)
    if horizon_events is not None:
        check_count(horizon_events, 1, "horizon_events")
    if not is_connected(g):
        raise NotConnected("walkers on different components never meet")
    flat = FlatGraph(g, convention)
    if horizon_events is None:
        horizon_events = int(200 * g.n * flat.r_max / flat.r_min**2)
    r_max, pick = graph_pick(flat)
    s1 = 0.0
    s2 = 0.0
    s_cut = 0.0
    finished = events = thinned = 0
    for lo in range(0, reps, PAIR_BLOCK):
        a, b = rng.integers(0, g.n, (2, min(PAIR_BLOCK, reps - lo)))
        outcome, clock, used, stays = walk_pairs(r_max, pick, a, b, rng,
                                                 max_events=horizon_events)
        met = clock[outcome == MEET]
        s1 += float(met.sum())
        s2 += float(met @ met)
        s_cut += float(clock[outcome != MEET].sum())
        finished += met.size
        events += int(used.sum())
        thinned += int(stays.sum())
    censored = reps - finished
    if finished:
        mean = s1 / finished
        var = max(0.0, s2 / finished - mean * mean)
        stderr = (var / finished) ** 0.5
    else:
        mean, stderr = float("nan"), float("nan")
    return {"mean": mean, "stderr": stderr, "finished": finished, "censored": censored,
            "censored_fraction": censored / reps, "mean_lower": (s1 + s_cut) / reps,
            "events": events, "thinned": thinned}
