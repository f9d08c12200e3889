"""Meeting-time and hitting-time functionals.

Exact quantities come from one hitting-time solve (conjugate gradients) and
one killed uniformization, each taking the chain as operators built from
its sparse generator Q and the one jump kernel K = I + Q / r_max of
``chains._jump_kernel``.  Two walkers killed where they meet run on the
same Q and K (``_two_walkers``): as the pair chain, acting on n x n arrays
of pair states, or, on a chain whose rates an abelian group translates
(``chains.translation_group``), as the difference walk Y - X, which is the
chain itself at double speed.  Nothing builds a Kronecker product or reads
a dense rate matrix.  Monte Carlo fallbacks for graphs beyond the exact
caps run blocks of walker pairs on the two-walker kernel
``_flat.walk_pairs``, which uniformizes both walkers at the walk's largest
rate and reports the events it used and the thinned stays among them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
from .chains import (MarkovChain, _jump_kernel, build_generator, spectrum,
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
    "pairwise_meeting_times",
    "mean_meeting_time",
    "alpha_survival",
    "kac_residual",
    "aldous_brown_check",
    "eigentime_residual",
    "mc_pair_meeting",
]

# states of the killed two-walker chain: 32 MiB a vector, n <= 2048 for pairs
_STATE_CAP = 1 << 22
# relative residual at which conjugate gradients stop
_CG_RTOL = 1e-13


@dataclass(frozen=True, eq=False)
class MeetingProfile:
    """Expected pairwise meeting times and their stationary averages, with
    the size ``unknowns`` of the hitting-time system solved (n(n - 1) on the
    pair chain, n - 1 on the difference walk), its max ``residual`` and its
    conjugate-gradient ``iterations``.  ``t_meet_distinct`` is nan on a
    one-state chain, which has no distinct pair."""

    pairwise: np.ndarray
    t_meet_pi: float
    t_meet_distinct: float
    residual: float
    unknowns: int
    iterations: int


def _hitting_times(apply, mask):
    """Expected hitting times of the states in mask (zero there) for the
    generator that ``apply`` applies to a vector on every state, with the
    solve's max residual and iteration count.  The generator is symmetric
    and irreducible, so minus its restriction off mask is positive definite
    and conjugate gradients solve it with no factorization; the masked
    states enter each application as zeros."""
    import scipy.sparse.linalg as spla

    off = ~mask
    full = np.zeros(mask.size)

    def matvec(v):
        full[off] = v.ravel()
        return -apply(full)[off]

    size = int(off.sum())
    b = np.ones(size)
    steps = []
    # info is 0 on convergence, else the number of iterations run
    sol, info = spla.cg(spla.LinearOperator((size, size), matvec, dtype=float), b,
                        rtol=_CG_RTOL, callback=lambda _: steps.append(None))
    residual = float(np.abs(matvec(sol) - b).max(initial=0.0))
    if info != 0:
        raise CoalesceError(f"conjugate gradients did not converge: {info} iterations, "
                            f"residual {residual:.3g}")
    full[off] = sol
    return full, residual, len(steps)


def _survival(step, lam, mask, mu0, times, tol=1e-12):
    """P(mask not hit by each time) from the law mu0, for the chain whose
    one jump at uniformization rate lam ``step`` applies to a law on every
    state, killed on mask.  Returns the values, the term count and the
    dropped Poisson tail mass."""

    def killed(v):
        v = step(v)
        v[mask] = 0.0
        return v

    acc, terms, tail = uniformize(killed, np.where(mask, 0.0, mu0), lam, times, tol)
    return [float(a[~mask].sum()) for a in acc], terms, tail


def _two_walkers(c: MarkovChain, table: bool):
    """Two independent copies of c killed where they meet, on c's generator
    Q and jump kernel K = I + Q / r_max: ``(apply, step, lam, mask,
    state)``, the generator and the jump at rate lam applied to a vector on
    every state, the killed states and ``state(x, y)``, the state of
    walkers at x and y.  With a translation group the state is y - x:
    Y - X moves by g at rate 2 r(0, g), so it is c at double speed, killed
    at the identity.  Otherwise it is x * n + y, an n x n array H on which
    the generator acts as QH + HQ and the jump as (KH + HK) / 2, killed on
    the diagonal.  The states are capped at ``_STATE_CAP``, and so is the
    n x n ``table``.
    """
    n = c.n
    group = translation_group(c)
    if (n * n if group is None or table else n) > _STATE_CAP:
        raise TooLargeForExact(f"two-walker chain capped at {_STATE_CAP} states")
    q = c.generator()
    kernel = _jump_kernel(q, c.r_max)
    lam = 2.0 * c.r_max
    if group is not None:
        add, neg = group
        return (lambda v: 2.0 * q.dot(v), kernel.dot, lam, np.arange(n) == 0,
                lambda x, y: add(y, neg(x)))

    ht = np.empty((n, n))

    def both(m, v):
        # m moves either walker; it is symmetric, so H m = (m H^T)^T.  ht
        # holds H^T, then H m, so that one fresh product is alive at a time
        h = v.reshape(n, n)
        np.copyto(ht, h.T)
        np.copyto(ht, (m @ ht).T)
        out = m @ h
        out += ht
        return out.ravel()

    return (lambda v: both(q, v), lambda v: both(kernel, v) / 2.0, lam,
            np.eye(n, dtype=bool).ravel(), lambda x, y: x * n + y)


def pairwise_meeting_times(c: MarkovChain) -> MeetingProfile:
    """Expected meeting time for every ordered starting pair, from one
    hitting-time solve on ``_two_walkers``' chain; on the difference walk
    ``pairwise[x, y]`` is the hitting time of the identity from y - x."""
    n = c.n
    apply, _, _, mask, state = _two_walkers(c, table=True)
    h, residual, iterations = _hitting_times(apply, mask)
    ids = np.arange(n, dtype=np.int64)
    pairwise = h[state(ids[:, None], ids[None, :])]
    total = pairwise.sum()
    # one state has no distinct pair to average over
    distinct = float(total / (n * (n - 1))) if n > 1 else float("nan")
    return MeetingProfile(pairwise, float(total / (n * n)), distinct,
                          residual, int(mask.size - mask.sum()), iterations)


def mean_meeting_time(c: MarkovChain, mode: str = "pi_pi") -> float:
    """Mean meeting time under independent uniform starts.

    pi_pi averages over all ordered pairs including the zero diagonal;
    distinct conditions on unequal starts.
    """
    if mode not in ("pi_pi", "distinct"):
        raise ParameterOutOfRange(f"unknown mode {mode!r}")
    if mode == "distinct" and c.n < 2:
        raise ParameterOutOfRange("distinct starts need two states")
    profile = pairwise_meeting_times(c)
    return profile.t_meet_pi if mode == "pi_pi" else profile.t_meet_distinct


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

    Accepts a chain or a graph (per-edge-unit rates).  exact mode
    uniformizes the killed chain of ``_two_walkers``; mc mode runs ``reps``
    pairs on the two-walker kernel ``_flat.walk_pairs`` with the chain's
    Walker alias tables, in blocks of ``PAIR_BLOCK``, and returns a 95%
    normal interval, the uniformized ``events`` the pairs used and the
    ``thinned`` stays among them (none when every row has the same total
    rate).
    """
    if isinstance(c, Graph):
        c = build_generator(c)
    [t] = check_grid([t], "t")
    x = check_vertex(x, c.n, "x")
    rx = float(c.row_rates[x])
    if rx == 0.0:
        raise ParameterOutOfRange(f"x = {x} has no neighbours: nothing to meet")
    nbrs, rates = c.row(x)
    if mode == "exact":
        _, step, lam, mask, state = _two_walkers(c, table=False)
        mu0 = np.zeros(mask.size)
        mu0[state(x, nbrs)] = rates / rx
        surv, terms, tail = _survival(step, lam, mask, mu0, [t])
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
    return {"value": rx * p, "stderr": rx * se,
            "ci95": (rx * (p - 1.96 * se), rx * (p + 1.96 * se)),
            "events": events, "thinned": thinned}


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
    pi = 1.0 / c.n
    rows, cols, rates = c.entries()
    out = mask[rows] & ~mask[cols]
    flow = pi * rates[out].sum()
    # the stationary exit law onto A^c: the rate into each state of the
    # complement, summed in row order
    weights = pi * np.bincount(cols[out], rates[out], c.n) / flow
    h = _hitting_times(c.generator().dot, mask)[0]
    lhs = 1.0 - mask.sum() / c.n
    rhs = float(flow) * float(weights @ h)
    return abs(lhs - rhs)


def aldous_brown_check(c: MarkovChain, A, t_grid) -> list[dict]:
    """Margins of the exponential-approximation bounds for T_A under the
    stationary start: tail bound |P(T_A > t) - exp(-t/E)| <= t_rel/E and the
    density envelope, with the density obtained by central differences of
    the exact survival curve."""
    mask = _subset_mask(c.n, A)
    q = c.generator()
    h = _hitting_times(q.dot, mask)[0]
    e_pi = float(h.mean())
    t_rel = spectrum(c).t_rel
    # any order; check_grid wants its grid sorted, so each time alone
    t_grid = [check_grid([t], "t_grid")[0] for t in t_grid]
    # one survival curve at every t - h, t, t + h; uniformization weighs
    # each time separately, so each value equals its own single-time call
    hsteps = {t: min(1e-4, t / 100.0) for t in t_grid if t > 0.0}
    times = [s for t, dt in hsteps.items() for s in (t - dt, t, t + dt)]
    step = _jump_kernel(q, c.r_max).dot
    curve = _survival(step, c.r_max, mask, np.full(c.n, 1.0 / c.n), times)[0] if times else []
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
        # r_min = 0 only on one vertex, where every pair starts met
        horizon_events = int(200 * g.n * flat.r_max / flat.r_min**2) if flat.r_min else 1
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
